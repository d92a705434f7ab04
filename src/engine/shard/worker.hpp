// Shard worker process entry point.
//
// A worker is a fresh `pd_cli worker` process that dials the
// coordinator's localhost listener (`--connect host:port`, transport.hpp)
// and exchanges frames in both directions over that one socket; its
// stdout is re-pointed at stderr so stray library prints never
// interleave with the coordinator's own output. It owns a
// single-threaded Engine that warm-starts *read-only* from the shared
// pd-cache-v4 store — N workers may open one warm.pdc simultaneously —
// and never writes that store itself: each job's kResult frame carries
// the store records the job added (cache entries, name-index entries,
// SAT proofs), so a crash forfeits only the in-flight job, and the
// coordinator alone flushes the stores.
//
// Crash philosophy: a worker is disposable. An abort, OOM kill, or RSS
// budget violation costs exactly the in-flight job (the coordinator
// respawns the slot and retries the job once elsewhere); a pd::Error from
// the flow is *not* a crash — the engine already converts it into a
// per-job failure result that travels back as a normal kResult frame.
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
/// the whole process wedged, the failure waitpid cannot see over a
/// socket.)
inline constexpr const char* kStallJobEnv = "PD_SHARD_TEST_STALL_JOB";

/// A worker process's configuration, decoded from its argv.
struct WorkerOptions {
    std::uint32_t shardId = 0;
    /// The coordinator's engine configuration, as encodeWorkerArgs()
    /// carried it. The worker forces the single-process knobs (one job
    /// thread, read-only stores, no nested shards) and applies
    /// shardRssMb as RLIMIT_AS and shardHeartbeatMs as the beat deadline.
    EngineOptions engine;
    /// Mirrors the coordinator's tracing switch (--obs): buffer spans and
    /// ship kObs frames after every job and at shutdown.
    bool obs = false;
    /// The coordinator's listener (`--connect host:port`, required): the
    /// worker dials it and speaks the frame protocol over the connection.
    std::string connect;
};

/// The worker argv codec, both halves in one place. encodeWorkerArgs()
/// writes the shard id and every EngineOptions field a worker uses,
/// plus `--obs` when tracing is on and one `--fault` per armed fault
/// plan; the listener appends its own `--connect` (transport.hpp).
[[nodiscard]] std::vector<std::string> encodeWorkerArgs(
    std::uint32_t shardId, const EngineOptions& engine);

/// Inverse of encodeWorkerArgs() plus the required `--connect`. Fields
/// left out keep their EngineOptions defaults. Forwarded `--fault` plans
/// are armed as they are decoded. Returns nullopt with `error` set on an
/// unknown flag, a missing value, a malformed integer, a bad plan or a
/// missing `--connect`.
[[nodiscard]] std::optional<WorkerOptions> decodeWorkerArgs(
    std::span<const std::string> args, std::string& error);

/// The hidden `pd_cli worker` mode: decodes `args` and runs the worker
/// loop over its frame channel until kShutdown or EOF. Returns the
/// process exit code; a bad argv is reported on stderr and exits 2.
int workerMain(std::span<const std::string> args);

}  // namespace pd::engine::shard
