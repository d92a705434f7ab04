#include "obs/obs.hpp"

#include <time.h>

#include <mutex>

#include "obs/metrics.hpp"

namespace pd::obs {

std::uint64_t monotonicNowNs() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace detail {

std::atomic<bool> g_enabled{false};

/// Capacity per thread; a wave-instrumented worst case (mul6) stays well
/// under this between drains, and wrap degrades to oldest-span loss.
constexpr std::size_t kRingCapacity = 1u << 14;

struct ThreadRing {
    std::vector<Span> slots{kRingCapacity};
    /// Total records ever written; slot = writeIdx % capacity. Written
    /// with release so drainers see complete Span payloads.
    std::atomic<std::uint64_t> writeIdx{0};
    std::uint64_t drainIdx = 0;  ///< guarded by g_registryMutex
    std::uint64_t seq = 0;       ///< owner thread only
    std::uint64_t fp = 0;        ///< owner thread only
    std::uint32_t tid = 0;
};

namespace {

std::mutex g_registryMutex;
// Never shrinks and never destroyed: a global vector would be torn
// down at exit before LeakSanitizer scans, orphaning the rings it owns.
std::vector<ThreadRing*>& g_rings = *new std::vector<ThreadRing*>();
std::vector<Span> g_adopted;               // worker spans awaiting drain
std::atomic<std::uint64_t> g_dropped{0};   // wrap losses, process-wide
std::uint32_t g_nextTid = 0;

thread_local ThreadRing* t_ring = nullptr;

ThreadRing* registerThread() {
    auto* ring = new ThreadRing();  // leaked: rings outlive their threads
    std::lock_guard lock(g_registryMutex);
    ring->tid = g_nextTid++;
    g_rings.push_back(ring);
    return ring;
}

}  // namespace

ThreadRing& localRing() {
    if (t_ring == nullptr) t_ring = registerThread();
    return *t_ring;
}

void record(ThreadRing& ring, std::string_view name, std::string_view cat,
            std::string_view detail, std::uint64_t startNs,
            std::uint64_t durNs) {
    const std::uint64_t idx = ring.writeIdx.load(std::memory_order_relaxed);
    Span& s = ring.slots[idx % kRingCapacity];
    s.name.assign(name);
    s.cat.assign(cat);
    s.detail.assign(detail);
    s.startNs = startNs;
    s.durNs = durNs;
    s.fp = ring.fp;
    s.seq = ring.seq++;
    s.tid = ring.tid;
    s.pid = 0;
    ring.writeIdx.store(idx + 1, std::memory_order_release);
}

}  // namespace detail

void setEnabled(bool on) {
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

void setJobFingerprint(std::uint64_t fp) { detail::localRing().fp = fp; }

std::uint64_t jobFingerprint() { return detail::localRing().fp; }

void emitSpan(std::string_view name, std::string_view cat,
              std::uint64_t startNs, std::uint64_t durNs,
              std::string_view detail) {
    if (!enabled()) return;
    detail::record(detail::localRing(), name, cat, detail, startNs, durNs);
}

void ScopedSpan::finish() {
    const std::uint64_t end = monotonicNowNs();
    const std::uint64_t dur = end - startNs_;
    if (dur < minDurNs_) return;
    detail::record(detail::localRing(), name_, cat_, detail_, startNs_, dur);
}

void adoptSpans(std::vector<Span> spans) {
    std::lock_guard lock(detail::g_registryMutex);
    auto& pool = detail::g_adopted;
    pool.insert(pool.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

std::vector<Span> drainSpans() {
    std::vector<Span> out;
    std::lock_guard lock(detail::g_registryMutex);
    out = std::move(detail::g_adopted);
    detail::g_adopted.clear();
    for (detail::ThreadRing* ring : detail::g_rings) {
        const std::uint64_t end =
            ring->writeIdx.load(std::memory_order_acquire);
        std::uint64_t begin = ring->drainIdx;
        if (end - begin > detail::kRingCapacity) {
            // The ring wrapped since the last drain; oldest spans between
            // begin and the wrap horizon were overwritten.
            const std::uint64_t lost =
                (end - begin) - detail::kRingCapacity;
            detail::g_dropped.fetch_add(lost, std::memory_order_relaxed);
            begin = end - detail::kRingCapacity;
        }
        for (std::uint64_t i = begin; i < end; ++i) {
            out.push_back(ring->slots[i % detail::kRingCapacity]);
        }
        ring->drainIdx = end;
    }
    if (const std::uint64_t lost =
            detail::g_dropped.exchange(0, std::memory_order_relaxed)) {
        counter("obs.spans.dropped").add(lost);
    }
    return out;
}

std::uint64_t droppedSpans() {
    // Flushed losses live in the counter (where worker deltas also land);
    // add anything not yet drained so the figure is cumulative either way.
    return counter("obs.spans.dropped").value() +
           detail::g_dropped.load(std::memory_order_relaxed);
}

}  // namespace pd::obs
