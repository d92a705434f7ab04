// Wire protocol between the shard coordinator and its worker processes
// ("pd-shard-wire-v7"; see src/engine/shard/README.md for the full spec).
//
// Everything that crosses a worker pipe is a length-prefixed, checksummed
// frame over the same little-endian primitives as the pd-cache-v4 store:
//
//   frame := type u8 | length u32 | payload[length] | checksum u64
//
// where checksum is FNV-1a over the type byte followed by the payload.
// FrameDecoder is the defensive half: it accepts bytes in arbitrary
// chunks (pipes deliver whatever they like), yields complete frames, and
// throws pd::Error on any malformation — unknown type, length above
// kMaxFramePayload, or checksum mismatch — so a corrupt or truncated
// stream can never walk the decoder out of its buffer or hand the
// coordinator a half-record. Payload encoders carry the same semantic
// fields as a pd-batch-report-v1 job record (spec in, result out), plus
// the cache, proof and name-index delta records workers hand back.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/cache.hpp"
#include "engine/job.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sat/proof_cache.hpp"

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
/// v5 (proof cache): new kProofEntry frame — a worker streams the SAT
/// refutations it completed (miter digest + solve statistics) after each
/// result and once more at shutdown, so the coordinator merges one
/// pd-proof-v1 store for the fleet. kResult additionally carries the
/// per-process satVerify.proofSource provenance byte (outside the
/// semantic payload, like cacheHit/cacheSource); workers accept
/// --proof-cache-file argv and warm-start the proof cache read-only.
///
/// v6 (PR 10, socket transport): new kHeartbeat frame — a worker emits
/// (shardId, monotone sequence) on an interval so the coordinator can
/// supervise liveness by protocol deadline (--shard-heartbeat-ms)
/// instead of waitpid, which a socket transport to a remote host cannot
/// offer. Heartbeats carry no semantics: the coordinator counts them,
/// resets the slot's silence clock, and discards them. Workers accept
/// --connect/--heartbeat-ms argv; frame layouts other than the new type
/// are unchanged.
///
/// v7 (content-addressed keys): kCacheEntry keys are 16-byte job digests
/// instead of full canonical-signature strings; new kIndexEntry frame —
/// a worker streams the name-index entries it recorded (registry name +
/// options fingerprint, spec stamp, digest) on the cache-delta cadence,
/// so the coordinator flushes the same index a single-process run would;
/// kResult carries the resolve/digest/cache-lookup phase times.
inline constexpr std::uint32_t kProtocolVersion = 7;

/// Upper bound on a single frame payload. Generous (a mapped multiplier
/// netlist is kilobytes, not gigabytes) while keeping a corrupt length
/// prefix from provoking a giant allocation.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

enum class FrameType : std::uint8_t {
    kHello = 1,       ///< worker → coordinator: ready (version, shard id)
    kJob = 2,         ///< coordinator → worker: run this job
    kResult = 3,      ///< worker → coordinator: job outcome
    kShutdown = 4,    ///< coordinator → worker: drain and exit
    kCacheEntry = 5,  ///< worker → coordinator: one cache-delta entry
    kBye = 6,         ///< worker → coordinator: delta complete, exiting
    kObs = 7,         ///< worker → coordinator: spans + metrics delta
    kProofEntry = 8,  ///< worker → coordinator: one completed SAT proof
    kHeartbeat = 9,   ///< worker → coordinator: liveness beat (wire v6)
    kIndexEntry = 10, ///< worker → coordinator: one name-index entry (v7)
};

struct Frame {
    FrameType type = FrameType::kHello;
    std::string payload;
};

/// Appends the framed encoding of (type, payload) to `out`.
void appendFrame(std::string& out, FrameType type, std::string_view payload);

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

/// One worker-local cache entry handed back at shutdown: the job digest
/// key, the pd-cache-v4 payload bytes of the result,
/// and the worker's LRU stamp (larger = used more recently within that
/// worker), which the coordinator's newest-wins merge keys on.
struct CacheDelta {
    util::Digest128 key;
    std::string payload;
    std::uint64_t stamp = 0;
};

[[nodiscard]] std::string encodeHello(const Hello& h);
[[nodiscard]] Hello decodeHello(std::string_view payload);

/// Throws pd::Error when the spec is not wire-serializable (it carries a
/// live Benchmark object); see wireSerializable().
[[nodiscard]] std::string encodeJob(std::uint32_t index, const JobSpec& spec);
[[nodiscard]] std::pair<std::uint32_t, JobSpec> decodeJob(
    std::string_view payload);

[[nodiscard]] std::string encodeResult(std::uint32_t index,
                                       const JobResult& result);
[[nodiscard]] std::pair<std::uint32_t, JobResult> decodeResult(
    std::string_view payload);

[[nodiscard]] std::string encodeCacheDelta(const CacheDelta& d);
[[nodiscard]] CacheDelta decodeCacheDelta(std::string_view payload);

/// One completed SAT refutation handed back by a worker (kProofEntry):
/// the miter's content digest plus the winning solve's statistics. The
/// payload is the pd-proof-v1 record body (persist::encodeProofBody).
/// Proofs are unique per digest, so the coordinator's merge is
/// first-in-wins — no stamp needed.
[[nodiscard]] std::string encodeProofEntry(
    const sat::ProofCache::SnapshotEntry& e);
[[nodiscard]] sat::ProofCache::SnapshotEntry decodeProofEntry(
    std::string_view payload);

/// One name-index entry a worker recorded (wire v7; kIndexEntry). The
/// payload is the pd-cache-v4 index record body
/// (persist::encodeIndexBody). The coordinator records it as its own
/// engine would have, overwriting a stale entry.
[[nodiscard]] std::string encodeIndexDelta(const JobIndex::Entry& e);
[[nodiscard]] JobIndex::Entry decodeIndexDelta(std::string_view payload);

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

/// A spec can cross the pipe iff it can be rebuilt in another process:
/// registry-named benchmarks and expression jobs qualify; a spec carrying
/// a caller-built Benchmark object (executable reference semantics — a
/// std::function) cannot, and runs on the coordinator's local lane.
[[nodiscard]] bool wireSerializable(const JobSpec& spec);

}  // namespace pd::engine::shard
