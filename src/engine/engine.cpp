#include "engine/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <ctime>
#include <utility>

#include "anf/parser.hpp"
#include "circuits/registry.hpp"
#include "core/decomposer.hpp"
#include "engine/persist/format.hpp"
#include "engine/shard/coordinator.hpp"
#include "engine/shard/scheduler.hpp"
#include "netlist/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sat/equiv.hpp"
#include "synth/hier_synth.hpp"
#include "synth/mapper.hpp"
#include "synth/opt.hpp"
#include "util/error.hpp"
#include "util/fault/fault.hpp"
#include "util/shutdown.hpp"

namespace pd::engine {
namespace {

/// steady_clock is CLOCK_MONOTONIC on this platform, so a time_point's
/// epoch offset in ns is directly comparable with obs::monotonicNowNs()
/// — phase spans and timing.phases come from the SAME clock reads, which
/// is what makes their totals agree by construction.
std::uint64_t toNs(std::chrono::steady_clock::time_point tp) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp.time_since_epoch())
            .count());
}

/// CPU time of the calling thread in milliseconds (0 where unsupported).
double threadCpuMs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<double>(ts.tv_sec) * 1e3 +
               static_cast<double>(ts.tv_nsec) * 1e-6;
#endif
    return 0.0;
}

double wallMsSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/// One job's phase clock. A single clock read closes a phase AND opens
/// the next, and a phase's span is the same interval as its
/// timing.phases slot, so the trace's per-phase sums match the report
/// exactly. Spans closed before the job's digest — its span fingerprint —
/// is known are held back and emitted once it is. Clears the thread's
/// fingerprint when the job leaves execute() by any path: the pool thread
/// will run other jobs next.
class PhaseClock {
public:
    explicit PhaseClock(std::chrono::steady_clock::time_point start)
        : start_(start) {}
    PhaseClock(const PhaseClock&) = delete;
    PhaseClock& operator=(const PhaseClock&) = delete;
    ~PhaseClock() { obs::setJobFingerprint(0); }

    /// Adds the time since the previous close to `slot` (phases that
    /// recur, like resolve after a registry job's miss, accumulate).
    void close(double& slot, std::string_view span) {
        const auto now = std::chrono::steady_clock::now();
        slot += std::chrono::duration<double, std::milli>(now - start_).count();
        const Held h{span, toNs(start_), toNs(now) - toNs(start_)};
        if (fingerprinted_)
            obs::emitSpan(h.name, "job", h.startNs, h.durNs);
        else
            held_.push_back(h);
        start_ = now;
    }

    void fingerprint(std::uint64_t fp) {
        obs::setJobFingerprint(fp);
        fingerprinted_ = true;
        for (const Held& h : held_)
            obs::emitSpan(h.name, "job", h.startNs, h.durNs);
        held_.clear();
    }

private:
    struct Held {
        std::string_view name;
        std::uint64_t startNs;
        std::uint64_t durNs;
    };
    std::chrono::steady_clock::time_point start_;
    bool fingerprinted_ = false;
    std::vector<Held> held_;
};

/// The job's working set: the benchmark (when there is one) and, once
/// expanded, the expressions plus the table they live in.
struct ResolvedJob {
    /// Present for benchmark-backed jobs; enables simulation verify.
    std::shared_ptr<const circuits::Benchmark> bench;
    bool expanded = false;
    anf::VarTable vars;
    std::vector<anf::Anf> outputs;
    std::vector<std::string> outputNames;
};

/// Builds the job's benchmark object, if it names one. Cheap: registry
/// entries hand back closures and defer their Reed-Muller form.
std::shared_ptr<const circuits::Benchmark> benchmarkOf(const JobSpec& spec) {
    if (spec.bench) return spec.bench;
    if (spec.benchmark.empty()) return nullptr;
    auto b = circuits::makeNamedBenchmark(spec.benchmark);
    if (!b)
        fail("engine", "unknown benchmark '" + spec.benchmark +
                           "' (try: pd_cli list)");
    return std::make_shared<const circuits::Benchmark>(std::move(*b));
}

/// Spec expansion: the job's output ANFs, the expensive step for wide
/// benchmarks (counted by engine.spec.expansions).
void expand(const JobSpec& spec, ResolvedJob& job) {
    static auto& expansions = obs::counter("engine.spec.expansions");
    expansions.add();
    job.expanded = true;
    if (job.bench) {
        if (!job.bench->anf)
            fail("engine", "benchmark '" + job.bench->name +
                               "' has no tractable Reed-Muller form");
        job.outputs = job.bench->anf(job.vars);
        job.outputNames = job.bench->outputNames;
        return;
    }
    if (spec.expressions.empty())
        fail("engine", "job '" + spec.name +
                           "' names no benchmark and no expressions");
    for (const auto& e : spec.expressions) {
        const auto eq = e.find('=');
        if (eq == std::string::npos)
            fail("engine", "expected <name>=<expr>, got '" + e + "'");
        job.outputNames.push_back(e.substr(0, eq));
        job.outputs.push_back(anf::parse(e.substr(eq + 1), job.vars));
    }
}

/// Input port names of a benchmark netlist: "<port><bit>", port by port,
/// LSB first (the registerPortVars convention).
std::vector<std::string> benchInputNames(const circuits::Benchmark& b) {
    std::vector<std::string> names;
    for (const auto& p : b.ports)
        for (const auto& n : circuits::bitNames(p.name, p.width))
            names.push_back(n);
    return names;
}

/// The reference guard in front of every benchmark hit: a few hundred
/// seeded vectors (exhaustive up to 8 inputs) of the cached netlist
/// against the benchmark's reference. Unverified results carry no
/// certificate to guard (an unconverged flow's netlist may legitimately
/// differ), so they pass.
bool passesReferenceGuard(const JobResult& cached,
                          const circuits::Benchmark& bench) {
    if (!cached.verified()) return true;
    sim::EquivOptions eo;
    eo.exhaustiveLimitBits = 8;
    eo.randomBatches = 4;
    eo.seed = 0x5eed9a4d5eed9a4dull;
    return sim::checkAgainstReference(cached.mapped, bench.ports,
                                      bench.outputNames, bench.reference, eo)
        .equivalent;
}

}  // namespace

std::string optionsFingerprint(const core::DecomposeOptions& opt,
                               bool verify) {
    std::string sig;
    const auto flag = [&](char c, bool v) {
        sig += '|';
        sig += c;
        sig += v ? '1' : '0';
    };
    sig += "|k" + std::to_string(opt.k);
    sig += "|d" + std::to_string(opt.identityMaxDegree);
    flag('l', opt.useLinearMinimize);
    flag('s', opt.useSizeReduction);
    flag('i', opt.useIdentities);
    flag('n', opt.useNullspaceMerging);
    flag('c', opt.complementNullspace);
    sig += "|m" + std::to_string(opt.maxIterations);
    sig += "|x" + std::to_string(opt.maxExhaustiveCombinations);
    sig += "|b" + std::to_string(opt.mergeAttemptBudget);
    flag('v', verify);
    return sig;
}

util::Digest128 canonicalDigest(std::span<const anf::Anf> outputs,
                                const core::DecomposeOptions& opt,
                                bool verify) {
    util::DigestStream h;
    h.str(optionsFingerprint(opt, verify));
    h.u32(static_cast<std::uint32_t>(outputs.size()));

    // First-occurrence relabeling over the canonical term stream: two
    // registrations of the same functions get the same labels however the
    // variables were named, as long as registration order is preserved.
    constexpr std::uint32_t kUnlabeled = ~0u;
    std::array<std::uint32_t, anf::Monomial::kMaxVars> relabel;
    relabel.fill(kUnlabeled);
    std::uint32_t next = 0;
    for (const auto& out : outputs)
        for (const auto& m : out.terms())
            m.forEachVar([&](anf::Var v) {
                if (relabel[v] == kUnlabeled) relabel[v] = next++;
            });

    // Each output's terms re-encoded under the new labels and re-sorted:
    // degree first, then lexicographically by ascending label list.
    struct Term {
        std::uint32_t degree;
        anf::Monomial labels;
    };
    std::vector<Term> terms;
    for (const auto& out : outputs) {
        terms.clear();
        terms.reserve(out.termCount());
        for (const auto& m : out.terms()) {
            Term t{0, {}};
            m.forEachVar([&](anf::Var v) {
                t.labels.insert(static_cast<anf::Var>(relabel[v]));
                ++t.degree;
            });
            terms.push_back(t);
        }
        std::sort(terms.begin(), terms.end(), [](const Term& x, const Term& y) {
            if (x.degree != y.degree) return x.degree < y.degree;
            return x.labels.membersLess(y.labels);
        });
        h.u32(static_cast<std::uint32_t>(terms.size()));
        for (const Term& t : terms) {
            h.u32(t.degree);
            t.labels.forEachVar(
                [&](anf::Var v) { h.u32(static_cast<std::uint32_t>(v)); });
        }
    }
    return h.finish();
}

util::Digest128 registryKey(std::string_view name, std::string_view options,
                            std::uint64_t stamp) {
    util::DigestStream h;
    h.str("pd-registry-key");
    h.str(name);
    h.str(options);
    h.u64(stamp);
    return h.finish();
}

std::uint64_t specStamp(const circuits::Benchmark& bench) {
    util::DigestStream h;
    h.str(bench.name);
    h.u32(static_cast<std::uint32_t>(bench.ports.size()));
    for (const auto& p : bench.ports) {
        h.str(p.name);
        h.u32(static_cast<std::uint32_t>(p.width));
    }
    h.u32(static_cast<std::uint32_t>(bench.outputNames.size()));
    for (const auto& n : bench.outputNames) h.str(n);
    // The reference outputs on a fixed seeded batch: a registry change
    // that keeps the interface but changes the function changes the stamp.
    std::uint64_t rng = 0x243f6a8885a308d3ull;
    std::vector<std::uint64_t> values(bench.ports.size());
    for (int vec = 0; vec < 64; ++vec) {
        for (std::size_t p = 0; p < values.size(); ++p) {
            const std::uint64_t z = util::splitmix64(rng);
            const int w = bench.ports[p].width;
            values[p] = w >= 64 ? z : z & ((std::uint64_t{1} << w) - 1);
        }
        h.u64(bench.reference(values));
    }
    return h.finish().b;
}

std::string persistFingerprint(const EngineOptions& opt) {
    // SAT verification changes stored fields (verification status, the
    // sat block), so whether it ran and under which budgets is part of
    // the salt.
    const std::string sat =
        opt.verifyThreads
            ? "|vs1|vcb" + std::to_string(opt.verifyConflictBudget) +
                  "|vpb" + std::to_string(opt.verifyPropagationBudget)
            : "|vs0";
    // The decomposer revision: a store written before a change to what
    // the decomposer emits for the same options must cold-start, not
    // serve the old blocks. dr2 never commits a rename block.
    return "lib:umc130|dr2|xl" +
           std::to_string(opt.equiv.exhaustiveLimitBits) +
           "|rb" + std::to_string(opt.equiv.randomBatches) + "|sd" +
           std::to_string(opt.equiv.seed) + sat;
}

Engine::Engine(EngineOptions opt)
    : opt_(opt),
      lib_(synth::CellLibrary::umc130()),
      cache_(opt.cacheCapacity),
      pool_(std::make_shared<util::ThreadPool>(
          std::max({opt.jobs, opt.probeThreads, std::size_t{1}}))) {
    // Registered up front so every report carries them, zeros included:
    // the warm-start gate demands engine.spec.expansions == 0.
    for (const char* name :
         {"engine.spec.expansions", "cache.digest_mismatch"})
        (void)obs::counter(name);
    for (const char* name : core::kStopCounters) (void)obs::counter(name);
    persist_.file = opt_.cacheFile;
    persist_.readonly = opt_.cacheReadonly;
    if (persist_.file.empty()) return;
    if (opt_.cacheCapacity == 0) {
        persist_.loadStatus = persist::LoadStatus::kDisabled;
        persist_.loadDetail =
            "result caching is disabled (capacity 0); store not loaded";
        return;
    }
    auto loaded =
        persist::CacheStore::load(opt_.cacheFile, persistFingerprint(opt_));
    persist_.loadStatus = loaded.status;
    persist_.loadDetail = loaded.detail;
    persist_.droppedEntries = loaded.droppedEntries;
    // A salvaged prefix warms the engine like a pristine store would:
    // every adopted record passed its own checksum. Anything less usable
    // cold-starts, loudly recorded.
    if (!loaded.usable()) return;
    std::vector<ResultCache::SnapshotEntry> entries;
    entries.reserve(loaded.entries.size());
    for (auto& e : loaded.entries)
        entries.push_back({e.key, std::move(e.result)});
    persist_.loadedEntries = cache_.restore(std::move(entries));
    flushedGeneration_ = cacheGeneration();
}

Engine::~Engine() {
    // No other thread can reach the engine any more, so the markers are
    // read without flushMutex_.
    if (cacheGeneration() > flushedGeneration_ || unflushedRecords_)
        flushCache();
}

bool Engine::flushCache(std::size_t* savedOut, std::string* errorOut) {
    std::string error;
    if (persist_.file.empty())
        error = "no cache file configured";
    else if (persist_.readonly)
        error = "cache file is read-only";
    else if (persist_.loadStatus == persist::LoadStatus::kDisabled)
        // Nothing was stored this run; writing would replace a possibly
        // warm store with an empty one.
        error = "result caching is disabled (capacity 0); refusing to "
                "overwrite the store with nothing";
    if (!error.empty()) {
        if (errorOut) *errorOut = error;
        return false;
    }
    std::lock_guard lock(flushMutex_);
    // Generation first, snapshot second: records published between the
    // two are still saved now and merely re-flushed by the destructor.
    const std::uint64_t before = cacheGeneration();
    auto snap = cache_.snapshot();
    // Canonical entry order: snapshot order is hash-map order, which
    // varies run to run; sorting by key makes equal entry *sets* produce
    // byte-identical stores — a sharded run and a single-process run of
    // the same batch leave the same artifact bits.
    std::sort(snap.begin(), snap.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    std::vector<persist::StoreEntry> entries;
    entries.reserve(snap.size());
    for (auto& e : snap) entries.push_back({e.key, std::move(e.value)});
    if (!persist::CacheStore::save(opt_.cacheFile, persistFingerprint(opt_),
                                   entries, &error)) {
        if (errorOut) *errorOut = error;
        return false;
    }
    flushedGeneration_ = before;
    unflushedRecords_ = false;
    if (savedOut) *savedOut = entries.size();
    return true;
}

std::pair<JobResult, shard::StoreRecords> Engine::runWireJob(
    const JobSpec& spec) {
    util::Digest128 key;
    JobResult result = execute(spec, 0, &key);
    // No key means the job failed before its key: it added nothing.
    if (result.cacheKey.empty()) return {std::move(result), {}};
    return {std::move(result), cache_.takeFresh(key)};
}

void Engine::adoptStoreRecords(shard::StoreRecords records) {
    if (cache_.restore(std::move(records)) > 0) {
        std::lock_guard lock(flushMutex_);
        unflushedRecords_ = true;
    }
}

std::vector<JobResult> Engine::runBatch(const std::vector<JobSpec>& specs) {
    obs::ScopedSpan batchSpan("batch.run", "job");
    // One scheduling core for both execution paths: the scheduler
    // partitions jobs into a local lane (this process's thread pool) and,
    // in sharded mode, a wire lane (worker processes). Pool threads and
    // the shard coordinator pull from it concurrently and complete
    // results by index, so output stays in spec order either way.
    const bool sharded = opt_.shards >= 1;
    shard::BatchScheduler sched(specs, sharded);
    resilience_ = BatchResilience{};

    // For jobs failed before they ever ran (shutdown abandonment).
    const auto failInterrupted = [&](std::size_t index) {
        JobResult r;
        r.name = jobDisplayName(specs[index], index);
        r.ok = false;
        r.error = std::string(util::kInterruptedError) +
                  " before this job ran";
        sched.complete(index, std::move(r));
        ++resilience_.interruptedJobs;
    };

    std::vector<std::future<void>> pullers;
    const std::size_t threads =
        std::min(std::max<std::size_t>(opt_.jobs, 1),
                 specs.size() - sched.wireJobs().size());
    for (std::size_t t = 0; t < threads; ++t)
        pullers.push_back(pool_->submit([this, &sched, &specs] {
            while (!util::shutdownRequested()) {
                const auto index = sched.stealLocal();
                if (!index) return;
                sched.complete(*index, execute(specs[*index], *index));
            }
        }));

    std::vector<std::size_t> fallbackJobs;
    if (!sched.wireJobs().empty()) {
        auto outcome = shard::coordinateShards(opt_, sched, specs);
        for (auto& records : outcome.records)
            adoptStoreRecords(std::move(records));
        // Nothing else has touched the counters yet: the local lane
        // only books interruptions and fallbacks after this point.
        resilience_ = outcome.resilience;
        fallbackJobs = std::move(outcome.fallbackJobs);
    }

    for (auto& p : pullers) p.get();

    // Jobs the shard fleet could not run degrade to in-process
    // execution here, with `shard.fallback` provenance in the report.
    for (const std::size_t index : fallbackJobs) {
        if (util::shutdownRequested()) {
            failInterrupted(index);
            continue;
        }
        JobResult r = execute(specs[index], index);
        r.shardFallback = true;
        ++resilience_.fallbackJobs;
        sched.complete(index, std::move(r));
    }

    // Local-lane jobs the pullers abandoned on shutdown still need
    // results: completed work is reported, the rest say why they didn't
    // run.
    if (util::shutdownRequested())
        while (const auto index = sched.stealLocal()) failInterrupted(*index);

    // LRU-age census for the report's observability block: distance of
    // each resident entry's last use from the freshest stamp. Reset
    // first — the histogram describes the cache's state *now*, not an
    // accumulation over repeated batches.
    {
        const auto entries = cache_.snapshot();
        auto& ages = obs::histogram("cache.entry.lru_age");
        ages.reset();
        std::uint64_t freshest = 0;
        for (const auto& e : entries)
            freshest = std::max(freshest, e.lastUse);
        for (const auto& e : entries) ages.observe(freshest - e.lastUse);
    }
    return std::move(sched).take();
}

JobResult Engine::runJob(const JobSpec& spec) {
    return runBatch({spec}).front();
}

JobResult Engine::execute(const JobSpec& spec, std::size_t index,
                          util::Digest128* key) const {
    const auto wallStart = std::chrono::steady_clock::now();
    const double cpuStart = threadCpuMs();
    PhaseClock clock(wallStart);

    JobResult result;
    result.name = jobDisplayName(spec, index);
    try {
        if (PD_FAULT("engine.job.fail"))
            fail("engine", result.name +
                               ": injected fault engine.job.fail (clean "
                               "per-job failure)");
        core::DecomposeOptions dopt = spec.options;
        if (opt_.conflictBudget != 0)
            dopt.maxIterations =
                std::min(dopt.maxIterations, opt_.conflictBudget);
        // Injected *before* the cache key is computed: the merge budget is
        // part of the options fingerprint, so a budget-starved result
        // lands under its own key and can never impersonate the
        // untruncated one.
        if (PD_FAULT("engine.merge.budget")) dopt.mergeAttemptBudget = 1;
        // Probe parallelism is purely a scheduling knob (results are
        // deterministic at any setting), so it is not part of the cache
        // key. Sweeps get a lane per job-pool thread; helper lanes only
        // run on workers that are idle.
        dopt.probePool = pool_;

        ResolvedJob job;
        job.bench = benchmarkOf(spec);
        clock.close(result.phases.resolveMs, "job.resolve");
        // A registry job is keyed by its name, options and spec stamp, so
        // it expands its spec (the expensive step) only on a miss. Any
        // other job is keyed by the content of its expanded outputs.
        util::Digest128 digest;
        if (!spec.bench && job.bench) {
            digest = registryKey(spec.benchmark,
                                 optionsFingerprint(dopt, spec.verify),
                                 specStamp(*job.bench));
        } else {
            expand(spec, job);
            clock.close(result.phases.resolveMs, "job.resolve");
            digest = canonicalDigest(job.outputs, dopt, spec.verify);
        }
        clock.close(result.phases.digestMs, "job.digest");
        // Span identity: every span this job emits (on this thread)
        // carries lane a of its key, making traces diffable run-to-run —
        // same batch, same (fp, name, seq) span sets.
        clock.fingerprint(digest.a);

        // Every benchmark hit must pass the reference guard; a key that
        // names the wrong result is a miss, computed without publishing.
        const ResultCache::Accept accept = [&job](const JobResult& cached) {
            if (!job.bench || passesReferenceGuard(cached, *job.bench))
                return true;
            static auto& mismatches = obs::counter("cache.digest_mismatch");
            mismatches.add();
            return false;
        };
        auto lookup = cache_.lookupOrReserve(digest, accept);
        clock.close(result.phases.cacheLookupMs, "job.cache_lookup");
        result.cacheKey = digest.hex();
        if (key) *key = digest;

        if (auto* hit = std::get_if<ResultCache::Value>(&lookup)) {
            const JobResult& cached = **hit;
            // A netlist-carrying hit must present the requester's own
            // interface: the key identifies isomorphs up to renaming, but
            // a renamed job's netlist has the donor's port names. Serve it
            // only when the names line up; otherwise fall through and
            // compute locally (without re-publishing).
            bool serveable = true;
            if (spec.keepMapped) {
                const auto& outputNames =
                    job.bench ? job.bench->outputNames : job.outputNames;
                std::vector<std::string> inputNames;
                if (job.bench) {
                    inputNames = benchInputNames(*job.bench);
                } else {
                    for (const anf::Var v :
                         job.vars.varsOfKind(anf::VarKind::kInput))
                        inputNames.push_back(job.vars.name(v));
                }
                serveable = cached.mapped.outputs().size() ==
                                outputNames.size() &&
                            cached.mapped.inputs().size() == inputNames.size();
                for (std::size_t i = 0; serveable && i < outputNames.size();
                     ++i)
                    serveable = cached.mapped.outputs()[i].name ==
                                outputNames[i];
                for (std::size_t i = 0; serveable && i < inputNames.size();
                     ++i)
                    serveable = cached.mapped.inputName(i) == inputNames[i];
            }
            if (serveable) {
                // Copy everything except the netlist, which is only
                // materialized for keepMapped consumers — the default hit
                // path must stay allocation-light.
                const std::string name = std::move(result.name);
                const std::string key = std::move(result.cacheKey);
                const JobResult::PhaseTimes phases = result.phases;
                result = JobResult{};
                result.ok = cached.ok;
                result.error = cached.error;
                result.blocks = cached.blocks;
                result.iterations = cached.iterations;
                result.leaders = cached.leaders;
                result.converged = cached.converged;
                result.budgetExhausted = cached.budgetExhausted;
                result.qor = cached.qor;
                result.levels = cached.levels;
                result.interconnect = cached.interconnect;
                result.verification = cached.verification;
                result.vectorsTested = cached.vectorsTested;
                result.exhaustive = cached.exhaustive;
                // The donor's sat block: no search ran for this hit, so
                // the verify.sat.* counters are not bumped.
                result.satVerify = cached.satVerify;
                if (spec.keepMapped) result.mapped = cached.mapped;
                result.name = name;
                result.cacheKey = key;
                result.phases = phases;
                result.cacheHit = true;
                // Disk-loaded entries answer "disk" for every hit they
                // serve; entries computed this process answer "memory".
                result.cacheSource = cached.cacheSource;
                result.wallMs = wallMsSince(wallStart);
                result.cpuMs = threadCpuMs() - cpuStart;
                return result;
            }
        }

        // Miss (reserved) or non-caching miss: run the full flow, timing
        // each phase so reports can say where the job's wall time went.
        if (!job.expanded) {
            expand(spec, job);
            clock.close(result.phases.resolveMs, "job.resolve");
        }
        const auto d =
            core::decompose(job.vars, job.outputs, job.outputNames, dopt);
        clock.close(result.phases.decomposeMs, "job.decompose");
        result.phases.probeSweepMs = d.probe.sweepMs;
        result.blocks = d.blocks.size();
        result.iterations = d.iterations;
        result.leaders = d.totalBlockOutputs();
        result.converged = d.converged;
        result.budgetExhausted = d.budgetExhausted;

        const auto raw = synth::synthDecomposition(d, job.vars);
        clock.close(result.phases.synthMs, "job.synth");
        const auto optimized = synth::optimize(raw);
        clock.close(result.phases.optimizeMs, "job.optimize");
        auto mapped = synth::techMap(optimized, lib_);
        clock.close(result.phases.mapMs, "job.map");
        result.qor = synth::qor(mapped, lib_);
        const auto stats = netlist::computeStats(mapped);
        result.levels = stats.levels;
        result.interconnect = stats.interconnect;
        clock.close(result.phases.staMs, "job.sta");

        if (!spec.verify) {
            result.verification = VerifyStatus::kSkipped;
        } else if (job.bench) {
            const auto eq = sim::checkAgainstReference(
                mapped, job.bench->ports, job.bench->outputNames,
                job.bench->reference, opt_.equiv);
            result.vectorsTested = eq.vectorsTested;
            result.exhaustive = eq.exhaustive;
            if (!eq.equivalent) {
                result.verification = VerifyStatus::kFailed;
                fail("engine", result.name +
                                   ": mapped netlist failed verification: " +
                                   eq.message);
            }
            result.verification = VerifyStatus::kSimulated;
        } else {
            if (d.expandedOutputs(job.vars) != job.outputs) {
                result.verification = VerifyStatus::kFailed;
                fail("engine",
                     result.name +
                         ": expanded decomposition differs from input ANF");
            }
            result.verification = VerifyStatus::kAlgebraic;
        }
        // SAT budgets are engine-level (persist-fingerprint salt, not
        // per-job key), so a budget-starved sat block must NOT be
        // published to the cache: it would impersonate the full-budget
        // result for every later run of this key.
        bool tainted = false;
        if (spec.verify && opt_.verifyThreads) {
            // SAT certification of the optimize→map stages: miter the
            // raw synthesized netlist against the mapped one and refute
            // it. Complements the reference check above (which certifies
            // decompose→synth against the spec but only samples wide
            // circuits); UNSAT here covers the full input space.
            static auto& satJobs = obs::counter("verify.sat.jobs");
            static auto& satConflicts = obs::counter("verify.sat.conflicts");
            static auto& satProps = obs::counter("verify.sat.propagations");
            static auto& satRestarts = obs::counter("verify.sat.restarts");
            static auto& satLearned = obs::counter("verify.sat.learned");
            static auto& satExhausted =
                obs::counter("verify.sat.budget_exhausted");
            sat::EquivSatOptions satOpt;
            satOpt.conflictBudget = opt_.verifyConflictBudget;
            satOpt.propagationBudget = opt_.verifyPropagationBudget;
            if (PD_FAULT("verify.sat.budget")) {
                // Starve the search: the honest outcome is kUnknown with
                // budget_exhausted, never a wrong verdict.
                satOpt.conflictBudget = 1;
                satOpt.propagationBudget = 1;
                tainted = true;
            }
            const auto eq = sat::checkEquivalentSat(raw, mapped, satOpt);
            result.satVerify.ran = true;
            result.satVerify.conflicts = eq.conflicts;
            result.satVerify.propagations = eq.propagations;
            result.satVerify.restarts = eq.restarts;
            result.satVerify.learned = eq.learned;
            result.satVerify.budgetExhausted = eq.budgetExhausted;
            satJobs.add(1);
            satConflicts.add(eq.conflicts);
            satProps.add(eq.propagations);
            satRestarts.add(eq.restarts);
            satLearned.add(eq.learned);
            obs::histogram("verify.sat.conflicts").observe(eq.conflicts);
            obs::histogram("verify.sat.propagations").observe(eq.propagations);
            switch (eq.status) {
                case sat::EquivCheckResult::Status::kEquivalent:
                    result.verification = VerifyStatus::kSat;
                    break;
                case sat::EquivCheckResult::Status::kDifferent:
                    result.verification = VerifyStatus::kFailed;
                    fail("engine",
                         result.name +
                             ": SAT found raw/mapped mismatch at output '" +
                             eq.differingOutput + "'");
                    break;
                case sat::EquivCheckResult::Status::kUnknown:
                    // Budget exhausted: keep the simulated/algebraic
                    // verdict and report the truncation honestly.
                    satExhausted.add(1);
                    break;
            }
        }
        clock.close(result.phases.verifyMs, "job.verify");

        result.ok = true;
        result.mapped = std::move(mapped);
        result.wallMs = wallMsSince(wallStart);
        result.cpuMs = threadCpuMs() - cpuStart;

        if (auto* reservation =
                std::get_if<ResultCache::Reservation>(&lookup);
            reservation != nullptr && !tainted) {
            // Cache the full result (netlist included) so a later
            // keepMapped request can be served from cache too. The
            // published copy is what future hits report against, so it
            // carries kMemory; the requester's own copy stays kComputed.
            // Tainted results (fault-starved sat budgets) are withheld:
            // the abandoned reservation wakes waiters to compute for
            // themselves.
            auto published = std::make_shared<JobResult>(result);
            published->cacheSource = CacheSource::kMemory;
            reservation->fulfill(std::move(published));
        }
        if (!spec.keepMapped) result.mapped = netlist::Netlist{};
        return result;
    } catch (const std::exception& e) {
        result.ok = false;
        result.error = e.what();
    } catch (...) {
        result.ok = false;
        result.error = "unknown exception";
    }
    result.wallMs = wallMsSince(wallStart);
    result.cpuMs = threadCpuMs() - cpuStart;
    return result;
}

std::vector<JobResult> runBatch(const std::vector<JobSpec>& specs,
                                const EngineOptions& opt) {
    Engine engine(opt);
    return engine.runBatch(specs);
}

}  // namespace pd::engine
