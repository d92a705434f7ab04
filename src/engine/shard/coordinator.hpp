// Shard coordinator: partitions a batch across crash-isolated worker
// processes.
//
// The coordinator fork/execs N `pd_cli worker` children, each holding
// one end of its own socketpair as fd 3 (kWorkerChannelFd, worker.hpp),
// and drives them from a single poll() loop over the other ends. The
// engine's --jobs is split across the slots (slotDepths), and a slot
// keeps up to its depth of jobs in flight:
// a worker with room steals the next queued job (assignment follows
// idleness — no static partition, so one slow job never serializes the
// batch behind it), results stream back as checksummed frames tagged
// with their job — each job's kResult carrying the store records the job
// added — and after the fleet drains the engine adopts those records into
// the shared pd-cache-v6 store.
//
// Crash isolation: a worker that dies (abort, OOM kill, sanitizer trap)
// or overruns the per-job wall budget (SIGKILL by deadline) costs only
// its in-flight jobs, and charges only the job that caused it. A death
// with one job in flight charges that job; a wall-budget kill charges
// the jobs whose budget expired and requeues the rest free; any other
// death with several jobs in flight cannot name its cause, so each of
// them is requeued free for an *isolated* retry (its slot takes no other
// job while it runs), where a repeat crash is charged to it alone. The
// slot is respawned under capped exponential backoff; a charged job is
// requeued up to `shardRetries` times, preferring a *different* slot,
// and only exhausting the budget reports it as a per-job failure — the
// batch, the report, and the cache flush all complete normally. A
// worker whose socket reaches EOF before it said anything (exec failure,
// an early exit) is not a crash: it is counted separately as a spawn
// failure and never burns a job's retry budget, since it held no job. A
// slot that dies twice without ever accepting work (startup crash loop)
// is retired; if every slot retires, the remaining queued
// jobs are handed back to the engine (ShardOutcome::fallbackJobs) for
// in-process execution instead of failing — pool collapse degrades
// throughput, not results. A cooperative shutdown request
// (util::shutdownRequested) fails still-queued jobs as interrupted,
// grants in-flight jobs one drain timeout to finish, and still drains
// the survivors.
//
// The coordinator reads the shard knobs (shards, shardWorkerExe,
// shardWallMsPerJob, shardRetries, shardDrainMs, shardHeartbeatMs)
// straight from the engine's EngineOptions, and hands the same object to
// encodeWorkerArgs() (worker.hpp) for every spawn, so workers run under
// exactly the configuration of a single-process run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "engine/shard/protocol.hpp"
#include "engine/shard/scheduler.hpp"

namespace pd::engine::shard {

/// What one coordinated run produced besides the per-job results (which
/// land in the BatchScheduler).
struct ShardOutcome {
    /// The store records of every completed wire job, one bundle per
    /// kResult in arrival order; the caller adopts them first-in-wins.
    std::vector<StoreRecords> records;
    /// What the fleet survived. fallbackJobs stays 0 here: the caller
    /// counts the fallback jobs it actually runs.
    BatchResilience resilience;
    /// Jobs the pool could not run (collapse, coordinator failure),
    /// handed back for in-process execution. Not yet completed in the
    /// scheduler — the caller owns running them.
    std::vector<std::size_t> fallbackJobs;
};

/// The depth of each of `slots` slots: how many jobs it keeps in flight.
/// `jobs` is split as evenly as it goes, the first slots taking the
/// remainder, and every slot gets at least one (`jobs` 4 over 3 slots is
/// 2, 1, 1; `jobs` 1 over 2 slots is 1, 1).
[[nodiscard]] std::vector<std::size_t> slotDepths(std::size_t jobs,
                                                  std::size_t slots);

/// Runs every index in `sched.wireJobs()` across the worker pool
/// `opt` describes, completing each into `sched`. Blocks until all wire
/// jobs have a result and every worker exited. Does not throw: worker
/// trouble and coordinator-side resource exhaustion (socketpair/fork/poll
/// failure) both degrade to per-job failure results or fallback jobs,
/// never a lost batch.
ShardOutcome coordinateShards(const EngineOptions& opt, BatchScheduler& sched,
                              const std::vector<JobSpec>& specs);

/// Resolves the worker executable path (EngineOptions::shardWorkerExe →
/// /proc/self/exe).
[[nodiscard]] std::string resolveWorkerExe(const std::string& configured);

}  // namespace pd::engine::shard
