// Shard worker process entry point.
//
// A worker is a fresh `pd_cli worker` process wired to the coordinator by
// two pipes (jobs arrive on stdin, frames leave on a private dup of
// stdout; the worker's real stdout is re-pointed at stderr so stray
// library prints can never corrupt the frame stream). It owns a
// single-threaded Engine that warm-starts *read-only* from the shared
// pd-cache-v4 store — N workers may open one warm.pdc simultaneously —
// and never writes that store itself: newly computed cache entries are
// streamed back to the coordinator as checksummed kCacheEntry frames
// (with the name-index entries they came with as kIndexEntry frames)
// right after each job (plus a catch-up pass at shutdown) — so a crash
// forfeits only the in-flight entry — and the coordinator alone flushes
// the merged artifact.
//
// Crash philosophy: a worker is disposable. An abort, OOM kill, or RSS
// budget violation costs exactly the in-flight job (the coordinator
// respawns the slot and retries the job once elsewhere); a pd::Error from
// the flow is *not* a crash — the engine already converts it into a
// per-job failure result that travels back as a normal kResult frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

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
/// the whole process wedged, the failure waitpid cannot see over a
/// socket.)
inline constexpr const char* kStallJobEnv = "PD_SHARD_TEST_STALL_JOB";

struct WorkerOptions {
    std::uint32_t shardId = 0;
    /// Engine configuration mirrored from the coordinator. cacheFile is
    /// opened read-only regardless of what the caller set.
    EngineOptions engine;
    /// RLIMIT_AS budget in MiB (0 = unlimited): allocations beyond it
    /// fail, surfacing as a per-job failure or a crash — either way the
    /// blast radius is this worker, not the batch.
    std::size_t rssBudgetMb = 0;
    /// Mirrors the coordinator's tracing switch (--obs): buffer spans and
    /// ship kObs frames after every job and at shutdown.
    bool obs = false;
    /// Socket-transport endpoint (`--connect host:port`): the worker
    /// dials the coordinator's listener and speaks the identical frame
    /// protocol over the connection. Empty = pipe mode (stdin/stdout).
    std::string connect;
    /// Liveness deadline the coordinator supervises
    /// (`--heartbeat-ms`, 0 = no heartbeats): the worker emits a
    /// kHeartbeat frame every quarter of this interval from a
    /// background pump, so a busy main thread never looks dead.
    int heartbeatMs = 0;
};

/// Runs the worker loop over stdin/stdout until kShutdown or EOF.
/// Returns a process exit code.
int runWorker(const WorkerOptions& opt);

}  // namespace pd::engine::shard
