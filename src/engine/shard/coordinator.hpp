// ShardCoordinator: partitions a batch across crash-isolated worker
// processes.
//
// The coordinator fork/execs N `pd_cli worker` processes and drives them
// from a single poll() loop: an idle worker steals the next queued job
// (assignment follows idleness — no static partition, so one slow job
// never serializes the batch behind it), results stream back as
// checksummed frames, and on completion each worker ships its
// locally-computed cache entries back for the coordinator's newest-wins
// merge into the shared pd-cache-v4 store.
//
// Crash isolation: a worker that dies (abort, OOM kill, sanitizer trap)
// or overruns the per-job wall budget (SIGKILL by deadline) costs exactly
// its in-flight job. The slot is respawned under capped exponential
// backoff; the job is requeued up to `retries` times, preferring a
// *different* slot, and only exhausting the budget reports it as a
// per-job failure — the batch, the report, and the cache flush all
// complete normally. An exec failure (`_exit(127)`) is not a crash: it
// is counted separately as a spawn failure and never burns a job's
// retry budget, since the job never started. A slot that dies twice
// without ever accepting work (startup crash loop) is retired; if every
// slot retires, the remaining queued jobs are handed back to the engine
// (ShardOutcome::fallbackJobs) for in-process execution instead of
// failing — pool collapse degrades throughput, not results. A
// cooperative shutdown request (util::shutdownRequested) fails
// still-queued jobs as interrupted, grants in-flight jobs one drain
// timeout to finish, and still drains cache deltas from the survivors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/job.hpp"
#include "engine/shard/protocol.hpp"
#include "engine/shard/scheduler.hpp"
#include "engine/shard/transport.hpp"
#include "sim/equivalence.hpp"

namespace pd::engine::shard {

struct ShardConfig {
    std::size_t shards = 2;
    /// Worker executable (must understand `worker` argv). Resolution
    /// order: this field → $PD_SHARD_WORKER_EXE → /proc/self/exe.
    std::string workerExe;
    /// Engine knobs mirrored into every worker so results (and the
    /// persist fingerprint guarding the shared store) match a
    /// single-process run exactly.
    std::size_t cacheCapacity = 64;
    std::size_t conflictBudget = 0;
    std::size_t mergeBudget = 0;
    /// Probe-sweep threads per worker (deterministic — a sharded run
    /// stays byte-identical to in-process at any setting).
    std::size_t probeThreads = 0;
    /// SAT-verification portfolio searchers per worker (also
    /// deterministic; 0 = SAT verify off) and its per-searcher budgets.
    std::size_t verifyThreads = 0;
    std::uint64_t verifyConflictBudget = 0;
    std::uint64_t verifyPropagationBudget = 0;
    sim::EquivOptions equiv;
    std::string cacheFile;  ///< workers warm-start from it read-only
    /// pd-proof-v1 SAT proof store: workers warm-start from it read-only
    /// and stream fresh refutations back; the coordinator's engine
    /// merges and flushes the one store.
    std::string proofCacheFile;
    /// Per-job wall budget in ms (0 = unlimited): a worker whose job runs
    /// past it is SIGKILLed and the job takes the crash-retry path.
    double wallMsPerJob = 0.0;
    /// Per-worker RLIMIT_AS budget in MiB (0 = unlimited).
    std::size_t rssBudgetMb = 0;
    /// How many times a job may be requeued after a worker crash before
    /// it is reported failed (0 = fail on the first crash).
    std::size_t retries = 1;
    /// How long the shutdown drain may take before stragglers are
    /// SIGKILLed and their cache deltas forfeited; also the grace an
    /// in-flight job gets after a cooperative shutdown request.
    int drainTimeoutMs = 60000;
    /// Frame transport to every worker. Pipe is the fork/exec default;
    /// socket carries the identical frames over SOCK_STREAM to a
    /// localhost listener (the remote-host stepping stone). Results and
    /// flushed stores are byte-identical either way — the transport is
    /// a scheduling knob, never a fingerprint salt.
    TransportKind transport = TransportKind::kPipe;
    /// Liveness deadline in ms (0 = no supervision): a worker whose
    /// stream stays completely silent past it — no frames, no
    /// heartbeats, not even a partial frame's bytes — is declared dead
    /// and SIGKILLed exactly like a crash (respawn under backoff, the
    /// in-flight job retried under `retries`). Workers beat at a
    /// quarter of this interval, so one lost beat never kills.
    int heartbeatMs = 10000;
};

/// What one coordinated run produced besides the per-job results (which
/// land in the BatchScheduler).
struct ShardOutcome {
    /// Newest-wins-merged cache deltas from every cleanly-drained worker.
    std::vector<CacheDelta> deltas;
    /// Completed SAT refutations streamed by the workers, de-duplicated
    /// by digest (a proof of a given obligation is unique, so first-in
    /// wins).
    std::vector<sat::ProofCache::SnapshotEntry> proofDeltas;
    /// Name-index entries the workers recorded, in arrival order.
    std::vector<JobIndex::Entry> indexDeltas;
    std::size_t workerCrashes = 0;   ///< deaths observed (incl. budget kills)
    std::size_t workerRespawns = 0;
    std::size_t retries = 0;         ///< jobs requeued after a crash
    /// exec failures (exit 127): the worker binary never ran. Counted
    /// apart from crashes and charged to no job's retry budget.
    std::size_t spawnFailures = 0;
    std::size_t interruptedJobs = 0; ///< failed by a shutdown request
    /// Heartbeat-deadline expiries noticed (a slot silent past
    /// ShardConfig::heartbeatMs) and the SIGKILLs issued for them. The
    /// two differ only when a slot's process was already gone when the
    /// deadline fired.
    std::size_t heartbeatMisses = 0;
    std::size_t deadlineKills = 0;
    /// Socket-transport channel re-establishments after a slot's first
    /// successful connect (a respawned worker dialing back in).
    std::size_t reconnects = 0;
    /// Frame streams that poisoned their decoder (checksum mismatch,
    /// unknown type, oversize length — the torn-connection signature).
    std::size_t wirePoisons = 0;
    /// Jobs the pool could not run (collapse, coordinator failure),
    /// handed back for in-process execution. Not yet completed in the
    /// scheduler — the caller owns running them.
    std::vector<std::size_t> fallbackJobs;
};

class ShardCoordinator {
public:
    explicit ShardCoordinator(ShardConfig cfg);

    /// Runs every index in `sched.wireJobs()` across the worker pool,
    /// completing each into `sched`. Blocks until all wire jobs have a
    /// result and every worker exited. Does not throw: worker trouble and
    /// coordinator-side resource exhaustion (pipe/fork/poll failure) both
    /// degrade to per-job failure results, never a lost batch.
    ShardOutcome run(BatchScheduler& sched,
                     const std::vector<JobSpec>& specs);

private:
    ShardConfig cfg_;
};

/// Newest-wins de-duplication of worker cache deltas: for key collisions
/// the entry with the larger LRU stamp survives (ties: the later delta in
/// `deltas` order, i.e. the most recently drained worker). Exposed for
/// the persist-layer merge tests.
[[nodiscard]] std::vector<CacheDelta> mergeCacheDeltas(
    std::vector<CacheDelta> deltas);

/// Resolves the worker executable path (cfg → env → /proc/self/exe).
[[nodiscard]] std::string resolveWorkerExe(const std::string& configured);

}  // namespace pd::engine::shard
