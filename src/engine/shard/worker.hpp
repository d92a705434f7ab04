// Shard worker process entry point.
//
// A worker is a fresh `pd_cli worker` child of the coordinator. It
// inherits its end of a socketpair as fd 3 (kWorkerChannelFd) and
// exchanges frames in both directions over that one socket; its stdout
// is re-pointed at stderr so stray library prints never interleave with
// the coordinator's own output. It owns an Engine whose
// job pool holds the slot's share of the coordinator's --jobs: each
// received job runs as a task there, up to that many at once, and a pool
// thread with no job serves the probe lanes of the jobs beside it. The
// engine warm-starts *read-only* from the shared pd-cache-v6 store — N
// workers may open one warm.pdc simultaneously — and never writes that
// store itself: each job's kResult frame carries the cache entries the
// job added, so a crash forfeits
// only the in-flight jobs, and the coordinator alone flushes the store.
//
// Crash philosophy: a worker is disposable. An abort, OOM kill, or RSS
// budget violation costs only its in-flight jobs (the coordinator
// respawns the slot and requeues them; see coordinator.hpp for which job
// pays); a pd::Error from the flow is *not* a crash — the engine already
// converts it into a per-job failure result that travels back as a
// normal kResult frame.
//
// The worker's argv is its engine configuration. Both halves of that
// codec live here (encodeWorkerArgs for the coordinator,
// decodeWorkerArgs for the worker) and walk one field list, so a field
// cannot travel one way only.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace pd::engine::shard {

/// Environment hook for the crash-isolation tests: a worker that receives
/// a job with this exact name calls abort() before touching the engine.
inline constexpr const char* kCrashJobEnv = "PD_SHARD_TEST_CRASH_JOB";
/// Same idea for the wall-budget tests: the worker sleeps forever on the
/// named job, forcing the coordinator's deadline kill.
inline constexpr const char* kHangJobEnv = "PD_SHARD_TEST_HANG_JOB";
/// Liveness-supervision hook: the worker raises SIGSTOP on the named
/// job, freezing every thread — heartbeat pump included — so the
/// coordinator's --shard-heartbeat-ms deadline is the only thing that
/// can reap it. (A hang parks one thread and keeps beating; a stall is
/// the whole process wedged, a failure that closes no socket.)
inline constexpr const char* kStallJobEnv = "PD_SHARD_TEST_STALL_JOB";

/// The fd a worker speaks on: the coordinator dup2s the child's end of
/// the slot's socketpair onto it between fork and exec.
inline constexpr int kWorkerChannelFd = 3;

/// A worker process's configuration, decoded from its argv.
struct WorkerOptions {
    std::uint32_t shardId = 0;
    /// The coordinator's engine configuration, as encodeWorkerArgs()
    /// carried it, with `jobs` the slot's depth. The worker forces the
    /// single-process knobs (read-only stores, no nested shards) and
    /// applies shardRssMb as RLIMIT_AS and shardHeartbeatMs as the beat
    /// deadline.
    EngineOptions engine;
    /// Mirrors the coordinator's tracing switch (--obs): buffer spans and
    /// ship them in the kObs frames (metric deltas ship either way).
    bool obs = false;
};

/// The worker argv codec, both halves in one place. encodeWorkerArgs()
/// writes the shard id and every EngineOptions field a worker uses (the
/// coordinator sets `jobs` to the slot's depth first),
/// plus `--obs` when tracing is on and one `--fault` per armed fault
/// plan.
[[nodiscard]] std::vector<std::string> encodeWorkerArgs(
    std::uint32_t shardId, const EngineOptions& engine);

/// Inverse of encodeWorkerArgs(). Fields left out keep their
/// EngineOptions defaults. Forwarded `--fault` plans are armed as they
/// are decoded. Returns nullopt with `error` set on an unknown flag, a
/// missing value, a malformed integer or a bad plan.
[[nodiscard]] std::optional<WorkerOptions> decodeWorkerArgs(
    std::span<const std::string> args, std::string& error);

/// The hidden `pd_cli worker` mode: decodes `args` and runs the worker
/// loop over kWorkerChannelFd until kShutdown or EOF. Returns the
/// process exit code; a bad argv, or no socket on kWorkerChannelFd, is
/// reported on stderr and exits 2.
int workerMain(std::span<const std::string> args);

}  // namespace pd::engine::shard
