// pd-trace span collection: RAII scoped spans recorded into lock-free
// per-thread ring buffers, drained at quiescent points into one trace.
//
// Overhead contract
// -----------------
// * Runtime switch: when not enabled (no --trace-out), every span site
//   costs one relaxed atomic load and a branch.
// * Enabled hot paths (ring membership solves run ~10^5 times per job)
//   additionally gate on a minimum duration, evaluated at span end, so
//   the ring is not flooded by sub-microsecond solves; counters remain
//   exact regardless (see metrics.hpp).
//
// Concurrency contract
// --------------------
// Each thread owns a fixed-capacity ring (kRingCapacity spans) it alone
// writes; the write index is a release-store so a drainer reading with
// acquire sees fully-written records. Draining is only performed at
// quiescent points — between jobs in the engine, after pool joins, at
// worker frame-ship time — when instrumented threads are parked, so
// drain-vs-write races cannot drop or tear records in practice; a ring
// that wraps overwrites its oldest spans and counts the loss in the
// `obs.spans.dropped` counter rather than blocking the writer.
//
// Identity
// --------
// Spans carry (fp, tid, seq): the fingerprint of the job being executed
// (threaded through setJobFingerprint), a small per-process thread index,
// and a per-thread monotone sequence number. Two runs of the same batch
// produce the same (fp, name, seq-within-fp) span sets, so traces are
// diffable run-to-run; only timestamps move.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pd::obs {

/// One completed span. `pid` is a logical process track: 0 is the local
/// process; the shard coordinator re-tags adopted worker spans with
/// shardId + 1 so Perfetto shows one track group per worker.
struct Span {
    std::string name;    ///< e.g. "job.decompose", "probe.wave"
    std::string cat;     ///< taxonomy bucket: job|probe|ring|persist|shard
    std::string detail;  ///< optional args payload ("wave=3 cands=16")
    std::uint64_t startNs = 0;  ///< CLOCK_MONOTONIC, absolute
    std::uint64_t durNs = 0;
    std::uint64_t fp = 0;   ///< fingerprint of the enclosing job (0 = none)
    std::uint64_t seq = 0;  ///< per-thread monotone sequence
    std::uint32_t tid = 0;  ///< per-process thread index (0 = main)
    std::int32_t pid = 0;   ///< logical track; see above
};

/// CLOCK_MONOTONIC in nanoseconds — comparable across processes on the
/// same host, which is what makes the fleet-wide trace merge skew-free.
[[nodiscard]] std::uint64_t monotonicNowNs();

namespace detail {

struct ThreadRing;  // defined in obs.cpp

extern std::atomic<bool> g_enabled;

/// Registers (once) and returns the calling thread's ring.
ThreadRing& localRing();

void record(ThreadRing& ring, std::string_view name, std::string_view cat,
            std::string_view detail, std::uint64_t startNs,
            std::uint64_t durNs);

}  // namespace detail

/// Global runtime switch. Span sites are no-ops while disabled; flipping
/// it on mid-run only affects spans begun afterwards.
inline bool enabled() {
    return detail::g_enabled.load(std::memory_order_relaxed);
}
void setEnabled(bool on);

/// Tags subsequent spans on this thread with the job's fingerprint
/// (pass 0 when leaving job scope). Worker threads executing probe waves
/// inherit the fingerprint via ProbeContext, not this call.
void setJobFingerprint(std::uint64_t fp);
[[nodiscard]] std::uint64_t jobFingerprint();

/// Records an already-measured interval (the engine's phase timer emits
/// these from the same clock reads that fill timing.phases, so phase
/// spans sum to the report's totals by construction).
void emitSpan(std::string_view name, std::string_view cat,
              std::uint64_t startNs, std::uint64_t durNs,
              std::string_view detail = {});

/// Moves every thread's buffered spans out, oldest first per thread.
/// Call only at quiescent points (see file comment). Dropped-span counts
/// are flushed into the `obs.spans.dropped` counter as a side effect.
[[nodiscard]] std::vector<Span> drainSpans();

/// Total spans dropped to ring wrap since process start.
[[nodiscard]] std::uint64_t droppedSpans();

/// Appends externally-produced spans (a shard worker's, already re-tagged
/// with their pid track) to the pool the next drainSpans() returns.
/// Thread-safe; callable from the coordinator's poll loop.
void adoptSpans(std::vector<Span> spans);

/// RAII span: measures construction→destruction. When `minDurNs` is
/// nonzero the span is discarded (cheaply, at end) if shorter — used on
/// solver-grade hot paths.
class ScopedSpan {
public:
    ScopedSpan(std::string_view name, std::string_view cat,
               std::uint64_t minDurNs = 0)
        : live_(enabled()) {
        if (live_) {
            name_ = name;
            cat_ = cat;
            minDurNs_ = minDurNs;
            startNs_ = monotonicNowNs();
        }
    }
    ~ScopedSpan() {
        if (live_) finish();
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /// Attaches an args payload; only evaluated when the span is live,
    /// so callers gate expensive formatting on live().
    void setDetail(std::string detail) {
        if (live_) detail_ = std::move(detail);
    }
    [[nodiscard]] bool live() const { return live_; }

private:
    void finish();

    bool live_;
    std::string_view name_;
    std::string_view cat_;
    std::string detail_;
    std::uint64_t minDurNs_ = 0;
    std::uint64_t startNs_ = 0;
};

}  // namespace pd::obs
