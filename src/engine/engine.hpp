// Concurrent batch decomposition engine.
//
// Turns the one-shot pipeline (parse → decompose → synth → optimize →
// map → STA → verify) into a batch service: a fixed worker pool runs one
// job per spec, each with its own VarTable (the library has no global
// mutable state, so per-job tables are the whole isolation story), and a
// result cache keyed by 128-bit digests serves repeated jobs without
// re-decomposing. A registry job is keyed by its name, options and spec
// stamp, so a warm cross-process run skips spec expansion altogether; any
// other job by a digest of its canonical ANF, so variable-renamed jobs
// share an entry. Results come back in spec order, independent of
// scheduling; a throwing job yields a JobResult with ok=false and
// poisons nothing else.
//
// With EngineOptions::shards > 1 the same batch is partitioned across
// crash-isolated worker *processes* (src/engine/shard/): both execution
// paths run through one BatchScheduler core, so spec-order results, the
// result cache, and the persistent store behave identically — a sharded
// run leaves the same warm artifact a single-process run would.
#pragma once

#include <functional>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "anf/anf.hpp"
#include "circuits/spec.hpp"
#include "engine/cache.hpp"
#include "engine/compute.hpp"
#include "engine/job.hpp"
#include "engine/persist/store.hpp"
#include "engine/shard/protocol.hpp"
#include "sim/equivalence.hpp"
#include "synth/celllib.hpp"
#include "util/digest.hpp"
#include "util/pool.hpp"

namespace pd::engine {

/// The one engine configuration, from the command line to the worker
/// process: pd_cli parses flags straight into it, runBatch hands it to
/// the shard coordinator unchanged, and shard/worker.cpp encodes the
/// fields a worker needs into its argv and decodes them back into one.
struct EngineOptions {
    /// Jobs in flight at once (0 → 1). The job pool has
    /// max(jobs, probeThreads) threads.
    std::size_t jobs = 1;
    /// Result-cache capacity: exactly this many ready entries stay
    /// resident before LRU eviction (0 disables caching).
    std::size_t cacheCapacity = 64;
    /// Lanes for each job's group-selection probe sweep (intra-job
    /// parallelism): a floor on the job pool's size. Every sweep runs
    /// with one lane per pool thread; helper lanes run only on pool
    /// workers that are idle, so with jobs > 1 the last jobs of a batch
    /// borrow the workers that ran out of jobs. The sweep is
    /// deterministic, so results are bit-identical at every setting — the
    /// knob is not part of cache keys or the persist fingerprint.
    std::size_t probeThreads = 0;
    /// Verification effort for simulation-checked jobs.
    sim::EquivOptions equiv;
    /// SAT certification of the optimize→map stages, off or on (CLI
    /// `--verify-threads 0|1`; the report's `engine.verify_threads`).
    /// On, every verified job also miters its raw synthesized netlist
    /// against the mapped netlist and refutes it with one CDCL solver on
    /// the job's own thread. Enabling it and its budgets change stored
    /// verification fields, so they salt the persist fingerprint.
    bool verifyThreads = false;
    /// Conflict budget for SAT verification (0 = unlimited).
    /// Exhaustion is reported per job as verification.sat.budget_exhausted
    /// — the simulation/algebraic verdict is never overridden by a
    /// truncated search.
    std::uint64_t verifyConflictBudget = 0;
    /// Propagation budget for SAT verification (0 = unlimited).
    std::uint64_t verifyPropagationBudget = 0;
    /// Path of a persistent pd-cache-v6 store ("" disables persistence).
    /// The engine warm-starts from it on construction and flushes ready
    /// cache entries back on destruction (or flushCache()). A missing,
    /// corrupt, wrong-version or wrong-fingerprint file is reported via
    /// persistInfo() and treated as a cold start — never a crash.
    std::string cacheFile;
    /// Load from cacheFile but never write it back (CI consumers, shared
    /// read-mostly artifacts).
    bool cacheReadonly = false;
    /// Worker *processes* for runBatch (0 → everything in-process).
    /// With N ≥ 1 every wire-serializable job (registry benchmarks,
    /// expression jobs) runs in one of N crash-isolated `pd_cli worker`
    /// children — N = 1 buys crash isolation without parallelism; specs
    /// carrying a live Benchmark object stay on the local thread-pool
    /// lane. Workers warm-start read-only from cacheFile and ship the
    /// store records each job added back with its result, so the flushed
    /// stores match a single-process run.
    std::size_t shards = 0;
    /// Per-job wall budget in sharded mode, ms (0 = unlimited): a worker
    /// whose job overruns is killed and the job retried once elsewhere.
    double shardWallMsPerJob = 0.0;
    /// Per-worker address-space budget in MiB (RLIMIT_AS; 0 = unlimited,
    /// and so is any budget too large for rlim_t to hold in bytes).
    std::size_t shardRssMb = 0;
    /// Worker executable; "" resolves /proc/self/exe (correct when the
    /// host process *is* pd_cli).
    std::string shardWorkerExe;
    /// How many times a sharded job may be requeued after a worker crash
    /// before it is reported failed (0 = fail on the first crash).
    std::size_t shardRetries = 1;
    /// Shard drain timeout in ms: how long worker shutdown (the final
    /// kObs and kBye) may take before stragglers are killed, and the
    /// grace an in-flight job gets after a cooperative shutdown request.
    int shardDrainMs = 60000;
    /// Worker liveness deadline in ms (0 disables supervision): a
    /// worker whose frame stream stays completely silent past it is
    /// declared dead exactly like a crash — killed, respawned under
    /// backoff, its in-flight job retried under shardRetries. Workers
    /// emit kHeartbeat frames at a quarter of this interval.
    int shardHeartbeatMs = 10000;
};

/// What happened to the persistent store this engine was given.
struct PersistInfo {
    std::string file;               ///< "" when persistence is off
    bool readonly = false;
    persist::LoadStatus loadStatus = persist::LoadStatus::kNoFile;
    /// Reason when the load was rejected, salvaged or skipped.
    std::string loadDetail;
    std::uint64_t loadedEntries = 0;  ///< entries adopted at warm start
    /// Entries lost to a damaged tail when the load was salvaged.
    std::uint64_t droppedEntries = 0;
};

/// Degraded-mode accounting for the most recent runBatch: what the
/// fleet survived rather than what it computed. Feeds the report's
/// `resilience` block; reset at the start of every batch.
struct BatchResilience {
    std::size_t workerCrashes = 0;   ///< deaths observed (incl. budget kills)
    std::size_t workerRespawns = 0;
    /// Workers whose stream ended before their hello (exec failure, an
    /// early exit, a death while warm-starting): the worker never joined
    /// the fleet, so no job's retry budget is charged.
    std::size_t spawnFailures = 0;
    std::size_t retries = 0;         ///< jobs requeued after a crash
    std::size_t fallbackJobs = 0;    ///< ran in-process after pool collapse
    std::size_t interruptedJobs = 0; ///< abandoned by a shutdown request
    /// Liveness deadlines expired, and the SIGKILLs issued for them; the
    /// two differ only when a slot's process was already gone.
    std::size_t heartbeatMisses = 0;
    std::size_t deadlineKills = 0;
    /// Always equal to workerRespawns: both are bumped when a respawned
    /// worker is first heard on its slot.
    std::size_t reconnects = 0;
    /// Frame streams that poisoned their decoder (checksum mismatch,
    /// unknown type, oversize length — the torn-connection signature).
    std::size_t wirePoisons = 0;
};

class Engine {
public:
    explicit Engine(EngineOptions opt = {});

    /// Best-effort final flush of the persistent store (no-op when
    /// persistence is off, readonly, or nothing changed since the last
    /// flush). Errors are swallowed: destruction is not the place to
    /// throw, and the previous store version survives an aborted save.
    ~Engine();

    /// Runs every spec through the flow; results are returned in spec
    /// order regardless of scheduling. Never throws for per-job failures:
    /// a failing job reports ok=false/error and the rest run to
    /// completion.
    [[nodiscard]] std::vector<JobResult> runBatch(
        const std::vector<JobSpec>& specs);

    /// Single-job convenience (still goes through the pool and cache).
    [[nodiscard]] JobResult runJob(const JobSpec& spec);

    [[nodiscard]] ResultCache::Stats cacheStats() const {
        return cache_.stats();
    }
    [[nodiscard]] const synth::CellLibrary& library() const { return lib_; }

    /// Snapshots the ready cache entries and atomically rewrites the
    /// configured store. Safe to call while jobs are computing: in-flight
    /// entries are simply not included. Returns false with `errorOut`
    /// when persistence is off/readonly or the write failed; `savedOut`
    /// receives the number of entries written on success.
    bool flushCache(std::size_t* savedOut = nullptr,
                    std::string* errorOut = nullptr);

    /// Warm-start outcome for reporting/diagnostics.
    [[nodiscard]] const PersistInfo& persistInfo() const { return persist_; }

    /// Degraded-mode accounting for the most recent runBatch.
    [[nodiscard]] const BatchResilience& resilience() const {
        return resilience_;
    }

    /// Worker half of the shard wire: runs `spec` on the calling thread
    /// and returns its result with the store records it added — the
    /// cache entry under the job's key. Entries adopted at warm start
    /// never qualify, and each entry is handed out once. A worker ships
    /// them inside the job's kResult, so a crash forfeits only the
    /// in-flight jobs' records; taking them by key, not as everything
    /// added since the last answer, keeps them with their own job when
    /// several run at once.
    [[nodiscard]] std::pair<JobResult, shard::StoreRecords> runWireJob(
        const JobSpec& spec);

    /// Queues `task` on the job pool; the future is ready once it ran. A
    /// worker runs each job it receives this way, so a pool thread with no
    /// job of its own serves the probe lanes of the jobs beside it. Every
    /// task must have finished before the engine is destroyed.
    std::future<void> submit(std::function<void()> task) {
        return pool_->submit(std::move(task));
    }

    /// Coordinator half: adopts one worker's records. A key already held
    /// wins, so of two equal cache keys the first one in stays.
    void adoptStoreRecords(shard::StoreRecords records);

private:
    /// Runs one job on the calling thread; `key`, when given, receives the
    /// job's cache key once it is known.
    [[nodiscard]] JobResult execute(const JobSpec& spec, std::size_t index,
                                    util::Digest128* key = nullptr) const;

    /// Monotone change counter of the store's contents.
    [[nodiscard]] std::uint64_t cacheGeneration() const {
        return cache_.stats().inserts;
    }

    EngineOptions opt_;
    synth::CellLibrary lib_;
    mutable ResultCache cache_;
    PersistInfo persist_;
    BatchResilience resilience_;
    /// Serializes flushes and guards the two markers below, which
    /// concurrent flushes and record adoption both write.
    std::mutex flushMutex_;
    /// cacheGeneration() at the last successful flush (or warm start):
    /// the destructor only rewrites the store when it moved.
    std::uint64_t flushedGeneration_ = 0;
    /// Worker records adopted since the last flush arrive via restore(),
    /// which does not move the generation.
    bool unflushedRecords_ = false;
    /// The engine's only pool, max(jobs, probeThreads) threads. `jobs` of
    /// them pull jobs (in a shard worker, run the submit()ted job tasks);
    /// the rest, and every puller that finds no job left, serve the
    /// helper tickets of the probe sweeps. A sweep never waits for a
    /// ticket no worker has started (util::runLanes), so jobs and their
    /// lanes share one pool without a wait deadlock.
    std::shared_ptr<util::ThreadPool> pool_;
};

/// One-shot convenience over a temporary Engine.
[[nodiscard]] std::vector<JobResult> runBatch(const std::vector<JobSpec>& specs,
                                              const EngineOptions& opt = {});

/// Cache key of a registry job: a domain tag, then the registry name, the
/// options fingerprint and the spec stamp. Needs no spec expansion, so a
/// hit never builds the (possibly huge) flat Reed-Muller form.
[[nodiscard]] util::Digest128 registryKey(std::string_view name,
                                          std::string_view options,
                                          std::uint64_t stamp);

/// Cache key of any other job (expressions, a live Benchmark): its output
/// ANF set under the given options. Variables are relabeled in
/// first-occurrence order over the canonically sorted term stream,
/// monomials re-encoded and re-sorted (degree, then label list) under the
/// new labels, and that term sequence — fixed-width u32 labels with
/// degree and count prefixes, after the options fingerprint — is streamed
/// into a 128-bit digest without being materialized. Equal digests ⇔ (up
/// to hash collision) the flow computes identical results, whatever the
/// variables were named.
[[nodiscard]] util::Digest128 canonicalDigest(
    std::span<const anf::Anf> outputs, const core::DecomposeOptions& opt,
    bool verify);

/// 64-bit stamp of what a registry name builds: port layout, output
/// names, and the reference outputs on a fixed seeded batch of vectors.
/// Microseconds, and never touches the benchmark's Reed-Muller form; a
/// registry change that moves the stamp moves the job's key.
[[nodiscard]] std::uint64_t specStamp(const circuits::Benchmark& bench);

/// An expanded spec in the width-free form the compute passes take: what
/// a miss hands them for a job keyed by its content.
[[nodiscard]] PackedSpec packSpec(anf::VarTable vars,
                                  std::vector<std::string> outputNames,
                                  std::span<const anf::Anf> outputs);

/// The options half of both keys.
[[nodiscard]] std::string optionsFingerprint(const core::DecomposeOptions& opt,
                                             bool verify);

/// The salt written into (and demanded from) a persistent store: the
/// engine-level knobs that change results but are *not* part of the
/// per-job key — the cell library and the verification effort,
/// including whether SAT verify runs and under which budgets. Per-job
/// DecomposeOptions need no salting: they are already in every cache
/// key, pd_cli's `--budget` (maxIterations) included.
[[nodiscard]] std::string persistFingerprint(const EngineOptions& opt);

}  // namespace pd::engine
