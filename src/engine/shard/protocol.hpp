// Wire protocol between the shard coordinator and its worker processes
// ("pd-shard-wire-v14"; see src/engine/shard/README.md for the full spec).
//
// Everything that crosses a worker socket is a length-prefixed, checksummed
// frame over the same little-endian primitives as the pd-cache-v6 store:
//
//   frame := type u8 | length u32 | payload[length] | checksum u64
//
// where checksum is FNV-1a over the type byte followed by the payload.
// FrameDecoder is the defensive half: it accepts bytes in arbitrary
// chunks (a stream socket cuts them wherever it likes), yields complete
// frames, and throws pd::Error on any malformation — unknown type,
// length above kMaxFramePayload, or checksum mismatch — so a corrupt or
// truncated stream can never walk the decoder out of its buffer or hand
// the coordinator a half-record. Payload encoders carry the same semantic
// fields as a pd-batch-report-v1 job record (spec in, result out); a
// result also carries the cache entries its job added, in the store's
// own record-body encoding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/cache.hpp"
#include "engine/job.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace pd::engine::shard {

/// v2 (PR 5): kJob gained DecomposeOptions::probeThreads (u64), kResult
/// gained phases.probeSweepMs (f64). The hello handshake rejects a
/// worker binary speaking a different layout cleanly instead of
/// misparsing its frames.
///
/// v3 (PR 6, pd-trace): new kObs frame — a worker ships its buffered
/// spans and a metrics *delta* (counters/histograms since its previous
/// kObs, gauges current) after each result and once more at shutdown,
/// so the coordinator can fold the fleet into one trace and one
/// registry. Workers only emit kObs when spawned with --obs, but the
/// layout change alone bumps the version: a v2 peer would poison its
/// decoder on the unknown frame type.
///
/// v4 (PR 7, CDCL verify): the kResult/kCacheEntry semantic payload —
/// the pd-cache-v3 JobResult encoding — gained the SAT-verification
/// block (satVerify.*, VerifyStatus::kSat); workers additionally accept
/// --verify-threads/--verify-conflict-budget/--verify-prop-budget argv.
///
/// v5 (SAT proof store): new kProofEntry frame — a worker streamed the
/// SAT refutations it completed (miter digest + solve statistics), so
/// the coordinator merged one proof store for the fleet. kResult
/// additionally carried a per-process proof-provenance byte; workers
/// accepted a proof-store path argv. All of it is gone since v9.
///
/// v6 (PR 10, socket transport): new kHeartbeat frame — a worker emits
/// (shardId, monotone sequence) on an interval so the coordinator can
/// supervise liveness by protocol deadline (--shard-heartbeat-ms)
/// instead of waitpid, which a socket transport to a remote host cannot
/// offer. Heartbeats carry no semantics: the coordinator counts them,
/// resets the slot's silence clock, and discards them. Workers accept
/// a coordinator-address argv (gone since v12) and a heartbeat-interval
/// argv; frame layouts other than the new type are unchanged.
///
/// v7 (content-addressed keys): kCacheEntry keys are 16-byte job digests
/// instead of full canonical-signature strings; new kIndexEntry frame —
/// a worker streams the name-index entries it recorded (registry name +
/// options fingerprint, spec stamp, digest) on the cache-delta cadence,
/// so the coordinator flushes the same index a single-process run would;
/// kResult carries the resolve/digest/cache-lookup phase times.
///
/// v8 (one answer per job): kResult carries the store records its job
/// added — cache entries, name-index entries, SAT proofs — so kCacheEntry
/// (5), kProofEntry (8) and kIndexEntry (10) are retired and rejected as
/// unknown types. kJob and kResult lose their job index: a result answers
/// the job in flight on its slot, and a result with none in flight is a
/// protocol violation.
///
/// v9 (one persistent store): the SAT proof store is gone, so kResult
/// loses the proof-provenance byte and the SAT-proof record section,
/// and workers no longer accept a proof-store path argv.
///
/// v10 (several jobs in flight per worker): kJob opens with a u32 tag —
/// the coordinator's job index — and kResult echoes it, so a worker may
/// answer its jobs in any order. A result whose tag is not in flight on
/// its slot is a protocol violation. Workers take --jobs argv (their
/// share of the coordinator's --jobs) and ship kObs metric deltas in
/// every run, spans only under --obs.
///
/// v11 (one pool): kJob loses DecomposeOptions::probeThreads (u64), which
/// is gone. A worker's sweeps run one lane per thread of its engine's
/// job pool, which its --jobs and --probe-threads argv size.
///
/// v12 (children only): a worker loses its dial-back address argv and
/// speaks on the socketpair end it inherits as fd 3 instead of dialing a
/// per-spawn localhost listener. Frame layouts are unchanged.
///
/// v13 (one SAT searcher): kResult's JobResult payload loses the SAT
/// block's portfolio winner (the pd-cache-v5 payload), and the
/// --verify-threads argv is 0 or 1.
///
/// v14 (one key per job): the name index is gone, so kResult loses its
/// index-record section (u32 count, then name, stamp and digest per
/// entry) and carries only the job's cache entries; a registry job's
/// cache key is engine::registryKey, the pd-cache-v6 key.
inline constexpr std::uint32_t kProtocolVersion = 14;

/// Upper bound on a single frame payload. Generous (a mapped multiplier
/// netlist is kilobytes, not gigabytes) while keeping a corrupt length
/// prefix from provoking a giant allocation.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

/// Type bytes 5, 8 and 10 belonged to the per-record frames retired in v8
/// and are never reused.
enum class FrameType : std::uint8_t {
    kHello = 1,      ///< worker → coordinator: ready (version, shard id)
    kJob = 2,        ///< coordinator → worker: run this job
    kResult = 3,     ///< worker → coordinator: job outcome + its records
    kShutdown = 4,   ///< coordinator → worker: drain and exit
    kBye = 6,        ///< worker → coordinator: drained, exiting
    kObs = 7,        ///< worker → coordinator: spans + metrics delta
    kHeartbeat = 9,  ///< worker → coordinator: liveness beat (wire v6)
};

struct Frame {
    FrameType type = FrameType::kHello;
    std::string payload;
};

/// Appends the framed encoding of (type, payload) to `out`.
void appendFrame(std::string& out, FrameType type, std::string_view payload);

/// send()s all of `bytes` to the connected socket `fd`, riding out EINTR
/// and short writes. MSG_NOSIGNAL turns a vanished peer into a false
/// return instead of SIGPIPE; either side then treats the other as dead.
bool writeAll(int fd, std::string_view bytes);

/// Incremental frame parser over a byte stream fed in arbitrary chunks.
class FrameDecoder {
public:
    /// Buffers more stream bytes.
    void feed(std::string_view bytes);

    /// The next complete frame, or nullopt when the buffer holds only a
    /// frame prefix (feed more). Throws pd::Error on a malformed stream —
    /// the detail names the offending frame type, its ordinal in the
    /// stream, and the absolute stream offset of its header, so a torn
    /// connection is diagnosable from the error alone. The decoder is
    /// then poisoned and every later call throws too.
    [[nodiscard]] std::optional<Frame> next();

    /// True when every fed byte has been consumed by next().
    [[nodiscard]] bool drained() const { return pos_ == buf_.size(); }

    /// True once a malformed stream has poisoned this decoder.
    [[nodiscard]] bool poisoned() const { return poisoned_; }

private:
    std::string buf_;
    std::size_t pos_ = 0;
    bool poisoned_ = false;
    std::uint64_t frames_ = 0;     ///< complete frames yielded so far
    std::uint64_t consumed_ = 0;   ///< stream bytes consumed by next()
};

// ---- payload encodings -----------------------------------------------------

struct Hello {
    std::uint32_t version = kProtocolVersion;
    std::uint32_t shardId = 0;
};

/// The store records one job added in a worker: its new result-cache
/// entries (Engine::runWireJob). They travel inside the job's kResult,
/// encoded as the store's own record bodies — the 16-byte key plus the
/// serializeJobResult payload — and the coordinator adopts them after
/// the fleet drains (Engine::adoptStoreRecords).
using StoreRecords = std::vector<ResultCache::SnapshotEntry>;

[[nodiscard]] std::string encodeHello(const Hello& h);
[[nodiscard]] Hello decodeHello(std::string_view payload);

/// A job as it crosses the wire: the coordinator's tag for it (its
/// batch index) and the spec.
struct TaggedJob {
    std::uint32_t tag = 0;
    JobSpec spec;
};

/// Throws pd::Error when the spec is not wire-serializable (it carries a
/// live Benchmark object); see wireSerializable().
[[nodiscard]] std::string encodeJob(std::uint32_t tag, const JobSpec& spec);
[[nodiscard]] TaggedJob decodeJob(std::string_view payload);

/// A job's answer: the tag of the job it answers, its result and the
/// store records it added.
struct Answer {
    std::uint32_t tag = 0;
    JobResult result;
    StoreRecords records;
};

/// Decoding throws pd::Error on any malformed field, a record's included.
[[nodiscard]] std::string encodeResult(std::uint32_t tag,
                                       const JobResult& result,
                                       const StoreRecords& records);
[[nodiscard]] Answer decodeResult(std::string_view payload);

/// One liveness beat (wire v6). Sequence numbers are worker-local and
/// strictly increasing; the coordinator only uses arrival time, but the
/// sequence makes a stalled-then-replayed stream visible in traces.
struct Heartbeat {
    std::uint32_t shardId = 0;
    std::uint64_t seq = 0;
};

[[nodiscard]] std::string encodeHeartbeat(const Heartbeat& h);
[[nodiscard]] Heartbeat decodeHeartbeat(std::string_view payload);

/// One observability shipment: the worker's drained spans (pid still 0;
/// the coordinator re-tags them with shardId + 1) and its metrics delta
/// since the previous shipment. Span timestamps are CLOCK_MONOTONIC,
/// shared across processes on one host, so no skew correction is needed
/// at merge time.
struct ObsDelta {
    std::vector<obs::Span> spans;
    obs::MetricsSnapshot metrics;
};

[[nodiscard]] std::string encodeObsDelta(const ObsDelta& d);
[[nodiscard]] ObsDelta decodeObsDelta(std::string_view payload);

/// A spec can cross the wire iff it can be rebuilt in another process:
/// registry-named benchmarks and expression jobs qualify; a spec carrying
/// a caller-built Benchmark object (executable reference semantics — a
/// std::function) cannot, and runs on the coordinator's local lane.
[[nodiscard]] bool wireSerializable(const JobSpec& spec);

}  // namespace pd::engine::shard
