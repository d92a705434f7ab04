// Concurrent batch decomposition engine.
//
// Turns the one-shot pipeline (parse → decompose → synth → optimize →
// map → STA → verify) into a batch service: a fixed worker pool runs one
// job per spec, each with its own VarTable (the library has no global
// mutable state, so per-job tables are the whole isolation story), and a
// result cache keyed by a 128-bit digest of the canonical ANF serves
// repeated or variable-renamed jobs without re-decomposing. Registry jobs
// find that key through a persisted name index, so a warm cross-process
// run skips spec expansion altogether. Results come back in spec order,
// independent of scheduling; a throwing job yields a JobResult with
// ok=false and poisons nothing else.
//
// With EngineOptions::shards > 1 the same batch is partitioned across
// crash-isolated worker *processes* (src/engine/shard/): both execution
// paths run through one BatchScheduler core, so spec-order results, the
// result cache, and the persistent store behave identically — a sharded
// run leaves the same warm artifact a single-process run would.
#pragma once

#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "anf/anf.hpp"
#include "circuits/spec.hpp"
#include "engine/cache.hpp"
#include "engine/job.hpp"
#include "engine/persist/store.hpp"
#include "engine/shard/protocol.hpp"
#include "sat/proof_cache.hpp"
#include "sim/equivalence.hpp"
#include "synth/celllib.hpp"
#include "util/digest.hpp"
#include "util/pool.hpp"

namespace pd::engine {

struct EngineOptions {
    /// Worker threads (0 → 1).
    std::size_t jobs = 1;
    /// Result-cache capacity: at least this many distinct jobs stay
    /// resident before LRU eviction (0 disables caching; see cache.hpp
    /// for the exact per-shard bound).
    std::size_t cacheCapacity = 64;
    /// Per-job effort budget in decomposition iterations, in the CDCL
    /// "conflict budget" tradition: when non-zero it caps
    /// DecomposeOptions::maxIterations for every job, bounding worst-case
    /// latency of a batch at the price of possibly unconverged results.
    std::size_t conflictBudget = 0;
    /// Anytime-mode override: when non-zero, caps every job's
    /// DecomposeOptions::mergeAttemptBudget (merge solves per phase).
    /// Jobs whose own budget is 0 (unlimited) adopt this cap outright.
    /// Truncation is reported per job as budget_exhausted.
    std::size_t mergeBudget = 0;
    /// Worker threads for each job's group-selection probe sweep
    /// (intra-job parallelism, orthogonal to `jobs`). Jobs whose own
    /// DecomposeOptions::probeThreads is 0 adopt this value; all jobs
    /// share one engine-owned probe pool. The sweep is deterministic, so
    /// results are bit-identical at every setting — the knob is not part
    /// of cache keys or the persist fingerprint.
    std::size_t probeThreads = 0;
    /// Verification effort for simulation-checked jobs.
    sim::EquivOptions equiv;
    /// SAT certification of the optimize→map stages (0 = off). With
    /// N ≥ 1 every verified job also miters its raw synthesized netlist
    /// against the mapped netlist and refutes it with a portfolio of N
    /// CDCL searchers racing on an engine-owned pool. The portfolio
    /// winner is chosen by a fixed lowest-index tie-break, so reported
    /// results are bit-identical at every N (the searcher count, like
    /// probeThreads, is not part of cache keys or the persist
    /// fingerprint — but *enabling* SAT verify and its budgets are,
    /// because they change stored verification fields).
    std::size_t verifyThreads = 0;
    /// Per-searcher conflict budget for SAT verification (0 = unlimited).
    /// Exhaustion is reported per job as verification.sat.budget_exhausted
    /// — the simulation/algebraic verdict is never overridden by a
    /// truncated search.
    std::uint64_t verifyConflictBudget = 0;
    /// Per-searcher propagation budget for SAT verification (0 = unlimited).
    std::uint64_t verifyPropagationBudget = 0;
    /// Path of a persistent pd-cache-v4 store ("" disables persistence).
    /// The engine warm-starts from it on construction (results and the
    /// name index) and flushes ready cache entries back on destruction
    /// (or flushCache()). A missing, corrupt, wrong-version or
    /// wrong-fingerprint file is reported via persistInfo() and treated
    /// as a cold start — never a crash.
    std::string cacheFile;
    /// Load from cacheFile but never write it back (CI consumers, shared
    /// read-mostly artifacts).
    bool cacheReadonly = false;
    /// Path of a persistent pd-proof-v1 SAT proof store ("" disables).
    /// Meaningful only with verifyThreads > 0: the engine warm-starts
    /// the content-addressed proof cache from it and flushes completed
    /// refutations back on destruction (or flushProofCache()), so a warm
    /// batch replays its proofs (verification.sat.proof_source "cache")
    /// instead of racing the portfolio again. Same cold-start-on-damage
    /// rules as cacheFile, reported via proofPersistInfo().
    std::string proofCacheFile;
    /// Load from proofCacheFile but never write it back (shard workers,
    /// CI consumers).
    bool proofCacheReadonly = false;
    /// Worker *processes* for runBatch (0 → everything in-process).
    /// With N ≥ 1 every wire-serializable job (registry benchmarks,
    /// expression jobs) runs in one of N crash-isolated `pd_cli worker`
    /// children — N = 1 buys crash isolation without parallelism; specs
    /// carrying a live Benchmark object stay on the local thread-pool
    /// lane. Workers warm-start read-only from cacheFile and their cache
    /// deltas are merged back here, so the flushed store matches a
    /// single-process run.
    std::size_t shards = 0;
    /// Per-job wall budget in sharded mode, ms (0 = unlimited): a worker
    /// whose job overruns is killed and the job retried once elsewhere.
    double shardWallMsPerJob = 0.0;
    /// Per-worker address-space budget in MiB (0 = unlimited).
    std::size_t shardRssMb = 0;
    /// Worker executable; "" resolves $PD_SHARD_WORKER_EXE then
    /// /proc/self/exe (correct when the host process *is* pd_cli).
    std::string shardWorkerExe;
    /// How many times a sharded job may be requeued after a worker crash
    /// before it is reported failed (0 = fail on the first crash).
    std::size_t shardRetries = 1;
    /// Shard drain timeout in ms: how long worker shutdown (cache-delta
    /// drain) may take before stragglers are killed, and the grace an
    /// in-flight job gets after a cooperative shutdown request.
    int shardDrainMs = 60000;
    /// Shard frame transport: "pipe" (fork/exec stdin/stdout, the
    /// default) or "socket" (SOCK_STREAM over localhost — the
    /// remote-host stepping stone). A scheduling knob only: results,
    /// reports, and flushed stores are byte-identical either way, so it
    /// deliberately never salts persistFingerprint/proofFingerprint.
    std::string shardTransport = "pipe";
    /// Worker liveness deadline in ms (0 disables supervision): a
    /// worker whose frame stream stays completely silent past it is
    /// declared dead exactly like a crash — killed, respawned under
    /// backoff, its in-flight job retried under shardRetries. Workers
    /// emit kHeartbeat frames at a quarter of this interval.
    int shardHeartbeatMs = 10000;
};

/// What happened to one persistent store this engine was given (the
/// result store or the proof store).
struct PersistInfo {
    std::string file;               ///< "" when persistence is off
    bool readonly = false;
    persist::LoadStatus loadStatus = persist::LoadStatus::kNoFile;
    std::string loadDetail;         ///< reason when the load was rejected
    std::uint64_t loadedEntries = 0;  ///< entries adopted at warm start
    /// Entries lost to a damaged tail when the load was salvaged.
    std::uint64_t droppedEntries = 0;
};

/// Degraded-mode accounting for the most recent runBatch: what the
/// fleet survived rather than what it computed. Feeds the report's
/// `resilience` block; reset at the start of every batch.
struct BatchResilience {
    std::size_t workerCrashes = 0;
    std::size_t workerRespawns = 0;
    std::size_t spawnFailures = 0;   ///< exec failures / failed connects
    std::size_t retries = 0;         ///< jobs requeued after a crash
    std::size_t fallbackJobs = 0;    ///< ran in-process after pool collapse
    std::size_t interruptedJobs = 0; ///< abandoned by a shutdown request
    std::size_t heartbeatMisses = 0; ///< liveness deadlines expired
    std::size_t deadlineKills = 0;   ///< workers killed for silence
    std::size_t reconnects = 0;      ///< socket re-establishments
    std::size_t wirePoisons = 0;     ///< frame streams that poisoned
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

    [[nodiscard]] const EngineOptions& options() const { return opt_; }
    [[nodiscard]] ResultCache::Stats cacheStats() const {
        return cache_.stats();
    }
    [[nodiscard]] const synth::CellLibrary& library() const { return lib_; }

    /// Snapshots the ready cache entries (plus the index entries naming
    /// them) and atomically rewrites the configured store. Safe to call
    /// while jobs are computing: in-flight entries are simply not
    /// included. Returns false with `errorOut` when persistence is
    /// off/readonly or the write failed; `savedOut` receives the number
    /// of entries written on success.
    bool flushCache(std::size_t* savedOut = nullptr,
                    std::string* errorOut = nullptr);

    /// Warm-start outcome for reporting/diagnostics.
    [[nodiscard]] const PersistInfo& persistInfo() const {
        return cacheStore_.info;
    }

    /// Snapshots the proof cache (sorted by digest, so identical content
    /// yields a byte-identical store) and atomically rewrites the
    /// configured pd-proof-v1 store. Same contract as flushCache().
    bool flushProofCache(std::size_t* savedOut = nullptr,
                         std::string* errorOut = nullptr);

    /// Warm-start outcome of the proof store.
    [[nodiscard]] const PersistInfo& proofPersistInfo() const {
        return proofStore_.info;
    }

    /// Hit/miss/entry statistics of the content-addressed proof cache.
    [[nodiscard]] sat::ProofCache::Stats proofCacheStats() const {
        return proofCache_.stats();
    }

    /// Degraded-mode accounting for the most recent runBatch.
    [[nodiscard]] const BatchResilience& resilience() const {
        return resilience_;
    }

    /// The cache entries this engine computed itself (excluding anything
    /// adopted from the store at warm start, and any key in
    /// `alreadyShipped`), serialized for the shard wire. Workers stream
    /// this after every job — a crash then forfeits only the in-flight
    /// job's entry, not the whole worker's session — and once more at
    /// shutdown.
    [[nodiscard]] std::vector<shard::CacheDelta> cacheDelta(
        const std::unordered_set<util::Digest128, util::Digest128Hash>&
            alreadyShipped = {}) const;

    /// Coordinator half of the merge: deserializes worker deltas into the
    /// cache (live entries win; between deltas, callers pre-merge with
    /// shard::mergeCacheDeltas for newest-LRU-wins). Undecodable entries
    /// are dropped — a worker bug must not poison the batch. Returns the
    /// number adopted.
    std::size_t adoptCacheDeltas(const std::vector<shard::CacheDelta>& deltas);

    /// Proof-cache analogue of cacheDelta(): the refutations this engine
    /// completed itself (excluding warm-start adoptions and digests in
    /// `alreadyShipped`), ready for the shard wire.
    [[nodiscard]] std::vector<sat::ProofCache::SnapshotEntry> proofDelta(
        const std::unordered_set<std::uint64_t>& alreadyShipped = {}) const;

    /// Coordinator half: adopts worker proof deltas (a proof of a given
    /// digest is unique, so first-in wins and duplicates are dropped).
    /// Returns the number adopted.
    std::size_t adoptProofDeltas(
        const std::vector<sat::ProofCache::SnapshotEntry>& deltas);

    /// Name-index analogue: the index entries this engine recorded itself
    /// (not warm-started, names not in `alreadyShipped`), sorted by name.
    [[nodiscard]] std::vector<JobIndex::Entry> indexDelta(
        const std::unordered_set<std::string>& alreadyShipped = {}) const;

    /// Coordinator half: records worker index entries (overwriting, as a
    /// local recompute would).
    void adoptIndexDeltas(const std::vector<JobIndex::Entry>& deltas);

private:
    /// One persistent store's warm-start outcome and flush bookkeeping.
    /// The two markers are written by concurrent flushes and delta
    /// adoption alike, so they are only touched under flushMutex_.
    struct Store {
        std::string noun;  ///< "cache", "proof cache": error strings
        PersistInfo info;
        /// Why a configured store is neither loaded nor written this
        /// run ("" when it is active).
        std::string off;
        /// generation() at the last successful flush (or warm start):
        /// the destructor only rewrites the store when it moved.
        std::uint64_t flushedGeneration = 0;
        /// Worker deltas merged since the last flush arrive via
        /// restore(), which does not move the generation.
        bool unflushedDeltas = false;
    };

    [[nodiscard]] JobResult execute(const JobSpec& spec,
                                    std::size_t index) const;

    /// Fills `s` from the options; true when the store should be loaded.
    static bool openStore(Store& s, std::string noun, std::string file,
                          bool readonly, std::string off);
    /// Records a load outcome in `s.info`; true when it may be adopted.
    static bool recordLoad(Store& s, const persist::LoadOutcome& loaded);
    /// The shared flush path: refuses an absent, read-only or inactive
    /// store, then under flushMutex_ reads `generation`, runs `save`
    /// (which snapshots and writes, setting the saved count or error)
    /// and records the flush.
    bool flushStore(Store& s, const std::function<std::uint64_t()>& generation,
                    const std::function<bool(std::size_t&, std::string&)>& save,
                    std::size_t* savedOut, std::string* errorOut);
    /// Marks `s` dirty after an adopted delta.
    void markDeltas(Store& s);
    /// Monotone change counters of the two stores' contents.
    [[nodiscard]] std::uint64_t cacheGeneration() const {
        return cache_.stats().inserts + index_.changes();
    }
    [[nodiscard]] std::uint64_t proofGeneration() const {
        return proofCache_.stats().inserts;
    }

    EngineOptions opt_;
    synth::CellLibrary lib_;
    mutable ResultCache cache_;
    /// Content-addressed SAT proof cache, shared by every job's verify
    /// portfolio (thread-safe; see sat/proof_cache.hpp). Active only
    /// when verifyThreads > 0; warm-started from proofCacheFile.
    mutable sat::ProofCache proofCache_;
    Store cacheStore_;
    Store proofStore_;
    BatchResilience resilience_;
    /// Registry name + options → (spec stamp, digest), warm-started from
    /// and flushed with the store, so a repeat hit skips rebuilding the
    /// (possibly huge) flat Reed-Muller form just to compute its own key.
    mutable JobIndex index_;
    /// Serializes flushes of both stores and guards their markers.
    std::mutex flushMutex_;
    util::ThreadPool pool_;
    /// Shared probe-sweep pool (EngineOptions::probeThreads > 1). A
    /// separate pool from `pool_`: job tasks block on probe futures, so
    /// running both through one pool could deadlock with every worker
    /// parked on a wait.
    std::shared_ptr<util::ThreadPool> probePool_;
    /// Shared SAT-portfolio pool (EngineOptions::verifyThreads > 1),
    /// separate from `pool_` for the same wait-deadlock reason.
    std::shared_ptr<util::ThreadPool> verifyPool_;
};

/// One-shot convenience over a temporary Engine.
[[nodiscard]] std::vector<JobResult> runBatch(const std::vector<JobSpec>& specs,
                                              const EngineOptions& opt = {});

/// Cache key of a job's output ANF set under the given options: variables
/// are relabeled in first-occurrence order over the canonically sorted
/// term stream, monomials re-encoded and re-sorted (degree, then label
/// list) under the new labels, and that term sequence — fixed-width u32
/// labels with degree and count prefixes, after the options fingerprint —
/// is streamed into a 128-bit digest without being materialized. Equal
/// digests ⇔ (up to hash collision) the flow computes identical results,
/// whatever the variables were named.
[[nodiscard]] util::Digest128 canonicalDigest(
    std::span<const anf::Anf> outputs, const core::DecomposeOptions& opt,
    bool verify);

/// 64-bit stamp of what a registry name builds: port layout, output
/// names, and the reference outputs on a fixed seeded batch of vectors.
/// Microseconds, and never touches the benchmark's Reed-Muller form; a
/// name-index entry is trusted only under the stamp it was recorded with.
[[nodiscard]] std::uint64_t specStamp(const circuits::Benchmark& bench);

/// The options half of the key (also part of the name-index key).
[[nodiscard]] std::string optionsFingerprint(const core::DecomposeOptions& opt,
                                             bool verify);

/// The salt written into (and demanded from) a persistent store: the
/// engine-level knobs that change results but are *not* part of the
/// per-job key — the cell library and the verification
/// effort. Per-job DecomposeOptions need no salting (they are already in
/// every cache key); conflictBudget is folded into those options before
/// keys are computed, so it is covered too.
[[nodiscard]] std::string persistFingerprint(const EngineOptions& opt);

/// The salt of the pd-proof-v1 store: the per-searcher SAT budgets, which
/// change which searcher wins and what its statistics look like. The
/// searcher *count* is deliberately excluded — the portfolio contract
/// keeps results bit-identical at any count, so proofs are shareable
/// across --verify-threads settings.
[[nodiscard]] std::string proofFingerprint(const EngineOptions& opt);

}  // namespace pd::engine
