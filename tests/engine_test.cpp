// Batch-engine tests: determinism across thread counts, canonical-ANF
// cache behaviour (hits on resubmit and on renamed-variable isomorphs,
// no false hits across option fingerprints), the streamed job digest
// against the materialized-signature oracle, error isolation, the
// worker pool's exception capture, LRU eviction, SAT verification
// through the result cache (a hit replays the donor's block, a
// fault-starved verify is never published), the default batch at 4
// jobs against 1 (jobs and sweep counters), and the JSON reporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <unordered_map>

#include "anf/parser.hpp"
#include "circuits/registry.hpp"
#include "engine/cache.hpp"
#include "engine/engine.hpp"
#include "engine/report_json.hpp"
#include "obs/metrics.hpp"
#include "util/fault/fault.hpp"
#include "util/pool.hpp"

namespace pd::engine {
namespace {

std::vector<JobSpec> smallBatch() {
    std::vector<JobSpec> specs;
    for (const char* name : {"majority7", "counter8", "adder8"}) {
        JobSpec s;
        s.benchmark = name;
        specs.push_back(std::move(s));
    }
    JobSpec expr;
    expr.name = "maj-expr";
    expr.expressions = {"maj=a*b ^ a*c ^ b*c"};
    specs.push_back(std::move(expr));
    JobSpec dup;  // duplicate of specs[0]: exercised the in-flight dedup
    dup.benchmark = "majority7";
    dup.name = "majority7-again";
    specs.push_back(std::move(dup));
    return specs;
}

/// Everything except timings and cache provenance must be identical
/// between runs, whatever the thread count or hit/miss history.
void expectSameSemantics(const JobResult& a, const JobResult& b) {
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.leaders, b.leaders);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.qor.area, b.qor.area);
    EXPECT_EQ(a.qor.delay, b.qor.delay);
    EXPECT_EQ(a.qor.gates, b.qor.gates);
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.interconnect, b.interconnect);
    EXPECT_EQ(a.verification, b.verification);
    EXPECT_EQ(a.vectorsTested, b.vectorsTested);
    EXPECT_EQ(a.exhaustive, b.exhaustive);
    EXPECT_EQ(a.cacheKey, b.cacheKey);
}

TEST(Engine, DeterministicAcrossThreadCounts) {
    const auto specs = smallBatch();
    EngineOptions one;
    one.jobs = 1;
    EngineOptions eight;
    eight.jobs = 8;
    const auto r1 = runBatch(specs, one);
    const auto r8 = runBatch(specs, eight);
    ASSERT_EQ(r1.size(), specs.size());
    ASSERT_EQ(r8.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(r1[i].name);
        EXPECT_TRUE(r1[i].ok) << r1[i].error;
        EXPECT_EQ(r1[i].name, r8[i].name);
        expectSameSemantics(r1[i], r8[i]);
    }
}

/// The report's jobs array with every timing zeroed: all of a job that
/// must not depend on the schedule.
std::string jobsWithoutTiming(std::vector<JobResult> results) {
    for (auto& r : results) {
        r.wallMs = 0.0;
        r.cpuMs = 0.0;
        r.phases = {};
    }
    std::ostringstream os;
    writeBatchReport(os, EngineOptions{}, results, ResultCache::Stats{});
    const std::string doc = os.str();
    const auto from = doc.find("\"jobs\":");
    const auto to = doc.find("\"resilience\":");
    EXPECT_NE(from, std::string::npos);
    EXPECT_NE(to, std::string::npos);
    return doc.substr(from, to - from);
}

/// What a run added to the probe.* and ring.member.* counters, except
/// probe.speculative_discards, which depends on the schedule by design.
std::map<std::string, std::uint64_t> sweepCounterDelta(
    const obs::MetricsSnapshot& before) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] :
         obs::deltaMetrics(obs::snapshotMetrics(), before).counters)
        if ((name.starts_with("probe.") || name.starts_with("ring.member.")) &&
            name != "probe.speculative_discards")
            out[name] = value;
    return out;
}

TEST(Engine, DefaultBatchAtFourJobsEqualsOneJob) {
    // At --jobs 4 every sweep runs on 4 lanes whose helpers are whichever
    // job workers are idle, so the schedule differs from run to run; jobs
    // (timing aside) and the sweep counters must not.
    std::vector<JobSpec> specs;
    for (const auto& name : circuits::benchmarkNames(false)) {
        JobSpec s;
        s.benchmark = name;
        specs.push_back(std::move(s));
    }
    std::vector<std::string> jobs;
    std::vector<std::map<std::string, std::uint64_t>> counters;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        EngineOptions opt;
        opt.jobs = threads;
        opt.cacheCapacity = 0;
        const auto before = obs::snapshotMetrics();
        const auto results = runBatch(specs, opt);
        for (const auto& r : results) EXPECT_TRUE(r.ok) << r.name;
        counters.push_back(sweepCounterDelta(before));
        jobs.push_back(jobsWithoutTiming(results));
    }
    EXPECT_GT(counters[0]["probe.probed"], 0u);
    EXPECT_GT(counters[0]["ring.member.queries"], 0u);
    EXPECT_EQ(counters[0], counters[1]);
    EXPECT_EQ(jobs[0], jobs[1]);
}

TEST(Engine, CacheHitOnResubmittedIdenticalSpec) {
    EngineOptions opt;
    opt.jobs = 2;
    Engine engine(opt);
    JobSpec spec;
    spec.benchmark = "majority7";
    const auto first = engine.runJob(spec);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_FALSE(first.cacheHit);

    const auto second = engine.runJob(spec);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.cacheHit);
    expectSameSemantics(first, second);

    const auto stats = engine.cacheStats();
    EXPECT_GE(stats.hits, 1u);
    EXPECT_GE(stats.inserts, 1u);
}

TEST(Engine, DuplicateSpecsWithinOneBatchShareOneComputation) {
    EngineOptions opt;
    opt.jobs = 4;
    Engine engine(opt);
    std::vector<JobSpec> specs(4);
    for (auto& s : specs) s.benchmark = "majority7";
    const auto results = engine.runBatch(specs);
    for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;
    // Exactly one miss computed; the other three were served (in-flight
    // dedup or ready hit, depending on scheduling).
    const auto stats = engine.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 3u);
    for (std::size_t i = 1; i < results.size(); ++i)
        expectSameSemantics(results[0], results[i]);
}

TEST(Engine, OptionsFingerprintPreventsFalseHits) {
    EngineOptions opt;
    opt.jobs = 1;
    Engine engine(opt);
    JobSpec k4;
    k4.benchmark = "majority7";
    k4.options.k = 4;
    JobSpec k3 = k4;
    k3.options.k = 3;

    const auto first = engine.runJob(k4);
    const auto second = engine.runJob(k3);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_FALSE(second.cacheHit) << "k=3 must not hit the k=4 entry";
    EXPECT_NE(first.cacheKey, second.cacheKey);

    // And the same options do hit again.
    const auto third = engine.runJob(k3);
    EXPECT_TRUE(third.cacheHit);
}

TEST(Engine, IsomorphicRenamedExpressionsShareOneEntry) {
    EngineOptions opt;
    opt.jobs = 1;
    Engine engine(opt);
    JobSpec f;
    f.name = "f";
    f.expressions = {"f=a*b ^ c*d ^ a*d"};
    JobSpec g;  // same function, different variable names
    g.name = "g";
    g.expressions = {"g=p*q ^ r*s ^ p*s"};
    const auto rf = engine.runJob(f);
    const auto rg = engine.runJob(g);
    ASSERT_TRUE(rf.ok) << rf.error;
    ASSERT_TRUE(rg.ok) << rg.error;
    EXPECT_TRUE(rg.cacheHit) << "renamed isomorph must be served from cache";
    EXPECT_EQ(rf.cacheKey, rg.cacheKey);
    EXPECT_EQ(rg.name, "g") << "display name must come from the spec";
}

TEST(Engine, ErrorIsolation) {
    std::vector<JobSpec> specs(4);
    specs[0].benchmark = "majority7";
    specs[1].name = "bad-parse";
    specs[1].expressions = {"y=((a*"};
    specs[2].name = "bad-bench";
    specs[2].benchmark = "no_such_benchmark";
    specs[3].benchmark = "counter8";

    const auto results = runBatch(specs, [] {
        EngineOptions o;
        o.jobs = 4;
        return o;
    }());
    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_FALSE(results[2].ok);
    EXPECT_NE(results[2].error.find("no_such_benchmark"), std::string::npos);
    EXPECT_TRUE(results[3].ok) << results[3].error;
}

TEST(Engine, ConflictBudgetCapsIterations) {
    EngineOptions opt;
    opt.jobs = 1;
    opt.conflictBudget = 1;
    JobSpec spec;
    spec.benchmark = "counter8";
    spec.verify = false;  // an unconverged result cannot verify
    const auto r = runBatch({spec}, opt).front();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_LE(r.iterations, 1u);
    EXPECT_FALSE(r.converged);
}

TEST(Engine, KeepMappedServedFromCacheToo) {
    EngineOptions opt;
    opt.jobs = 1;
    Engine engine(opt);
    JobSpec light;
    light.benchmark = "majority7";
    const auto first = engine.runJob(light);
    EXPECT_EQ(first.mapped.numNets(), 0u) << "light results carry no netlist";

    JobSpec full = light;
    full.keepMapped = true;
    const auto second = engine.runJob(full);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_GT(second.mapped.numNets(), 0u)
        << "cache must retain the netlist for keepMapped consumers";
}

TEST(Engine, KeepMappedIsomorphGetsItsOwnPortNames) {
    EngineOptions opt;
    opt.jobs = 1;
    Engine engine(opt);
    JobSpec f;
    f.name = "f";
    f.expressions = {"f=a*b ^ c"};
    f.keepMapped = true;
    JobSpec g;  // isomorphic, but its netlist must say "g", "p", "q", "r"
    g.name = "g";
    g.expressions = {"g=p*q ^ r"};
    g.keepMapped = true;
    const auto rf = engine.runJob(f);
    const auto rg = engine.runJob(g);
    ASSERT_TRUE(rf.ok) << rf.error;
    ASSERT_TRUE(rg.ok) << rg.error;
    ASSERT_EQ(rg.mapped.outputs().size(), 1u);
    EXPECT_EQ(rg.mapped.outputs()[0].name, "g")
        << "a donor netlist with foreign port names must not be served";
    EXPECT_FALSE(rg.cacheHit);
    ASSERT_EQ(rf.mapped.outputs().size(), 1u);
    EXPECT_EQ(rf.mapped.outputs()[0].name, "f");
}

/// The materialized canonical signature the engine keyed by before job
/// digests: kept here as the oracle the streamed digest must agree with.
std::string oracleSignature(std::span<const anf::Anf> outputs,
                            const core::DecomposeOptions& opt, bool verify) {
    std::string sig = "pdsig1" + optionsFingerprint(opt, verify);
    std::unordered_map<anf::Var, std::uint32_t> relabel;
    for (const auto& out : outputs)
        for (const auto& m : out.terms())
            m.forEachVar([&](anf::Var v) {
                relabel.emplace(v, static_cast<std::uint32_t>(relabel.size()));
            });
    for (const auto& out : outputs) {
        std::vector<std::vector<std::uint32_t>> monos;
        for (const auto& m : out.terms()) {
            std::vector<std::uint32_t> ids;
            m.forEachVar([&](anf::Var v) { ids.push_back(relabel.at(v)); });
            std::sort(ids.begin(), ids.end());
            monos.push_back(std::move(ids));
        }
        std::sort(monos.begin(), monos.end(),
                  [](const auto& a, const auto& b) {
                      if (a.size() != b.size()) return a.size() < b.size();
                      return a < b;
                  });
        sig += "|O";
        for (const auto& ids : monos) {
            sig += 'M';
            for (const auto id : ids) {
                sig += std::to_string(id);
                sig += '.';
            }
        }
    }
    return sig;
}

TEST(Digest, DistinguishesOptionsAndFunctions) {
    anf::VarTable vt;
    const std::vector<anf::Anf> f = {anf::parse("a*b ^ c", vt)};
    const std::vector<anf::Anf> g = {anf::parse("a*b ^ a", vt)};
    core::DecomposeOptions k4;
    core::DecomposeOptions k3;
    k3.k = 3;
    EXPECT_NE(canonicalDigest(f, k4, true), canonicalDigest(f, k3, true));
    EXPECT_NE(canonicalDigest(f, k4, true), canonicalDigest(g, k4, true));
    EXPECT_NE(canonicalDigest(f, k4, true), canonicalDigest(f, k4, false));
    EXPECT_EQ(canonicalDigest(f, k4, true), canonicalDigest(f, k4, true));
    EXPECT_EQ(canonicalDigest(f, k4, true).hex().size(), 32u);
}

TEST(Digest, InvariantUnderRenaming) {
    anf::VarTable vt1;
    const std::vector<anf::Anf> f1 = {anf::parse("a*b ^ b*c", vt1)};
    anf::VarTable vt2;
    const std::vector<anf::Anf> f2 = {anf::parse("x*y ^ y*z", vt2)};
    const core::DecomposeOptions opt;
    EXPECT_EQ(canonicalDigest(f1, opt, true), canonicalDigest(f2, opt, true));
    EXPECT_EQ(oracleSignature(f1, opt, true), oracleSignature(f2, opt, true));
}

/// Random multi-output ANF set over `vars`.
std::vector<anf::Anf> randomOutputs(std::mt19937_64& rng,
                                    const std::vector<anf::Var>& vars) {
    std::vector<anf::Anf> outs(1 + rng() % 3);
    for (auto& out : outs) {
        std::vector<anf::Monomial> terms(rng() % 6);
        for (auto& m : terms)
            for (const anf::Var v : vars)
                if (rng() % 3 == 0) m.insert(v);
        out = anf::Anf::fromTerms(std::move(terms));
    }
    return outs;
}

TEST(Digest, EqualExactlyWhenOracleSignaturesAreEqual) {
    // Randomized ANF sets, each also registered a second time under
    // permuted variable ids (a relabeled isomorph), under a few option
    // variants: digests must agree exactly when the oracle strings do.
    std::mt19937_64 rng(0x5151);
    std::vector<core::DecomposeOptions> variants(3);
    variants[1].k = 3;
    variants[2].useIdentities = false;
    std::vector<std::pair<std::string, util::Digest128>> seen;
    for (int round = 0; round < 150; ++round) {
        anf::VarTable vt;
        std::vector<anf::Var> vars;
        const int n = 2 + static_cast<int>(rng() % 4);
        for (int i = 0; i < n; ++i)
            vars.push_back(vt.addInput("v" + std::to_string(i), 0, i));
        const auto outs = randomOutputs(rng, vars);
        // The isomorph: the same functions over a reversed variable order.
        anf::VarTable vt2;
        std::vector<anf::Var> vars2;
        for (int i = 0; i < n; ++i)
            vars2.push_back(vt2.addInput("w" + std::to_string(i), 0, i));
        std::vector<anf::Anf> iso;
        for (const auto& out : outs) {
            std::vector<anf::Monomial> terms;
            for (const auto& m : out.terms()) {
                anf::Monomial t;
                m.forEachVar([&](anf::Var v) {
                    const auto at = std::find(vars.begin(), vars.end(), v);
                    t.insert(vars2[static_cast<std::size_t>(
                        n - 1 - (at - vars.begin()))]);
                });
                terms.push_back(t);
            }
            iso.push_back(anf::Anf::fromTerms(std::move(terms)));
        }
        for (const auto& opt : variants)
            for (const bool verify : {true, false}) {
                seen.emplace_back(oracleSignature(outs, opt, verify),
                                  canonicalDigest(outs, opt, verify));
                seen.emplace_back(oracleSignature(iso, opt, verify),
                                  canonicalDigest(iso, opt, verify));
            }
    }
    std::map<std::string, util::Digest128> byOracle;
    std::map<util::Digest128, std::string> byDigest;
    std::size_t collapsed = 0;
    for (const auto& [oracle, digest] : seen) {
        const auto [it, fresh] = byOracle.emplace(oracle, digest);
        EXPECT_EQ(it->second, digest) << "equal oracles, different digests";
        collapsed += fresh ? 0 : 1;
        const auto [jt, freshD] = byDigest.emplace(digest, oracle);
        EXPECT_EQ(jt->second, oracle) << "equal digests, different oracles";
    }
    EXPECT_EQ(byOracle.size(), byDigest.size());
    // The sample must exercise both directions: isomorphs and repeats
    // collapse, and plenty of distinct sets stay apart.
    EXPECT_GT(collapsed, seen.size() / 3);
    EXPECT_GT(byOracle.size(), 200u);
}

TEST(Pool, CapturesTaskExceptions) {
    util::ThreadPool pool(4);
    auto ok = pool.submit([] { return 41 + 1; });
    auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 42);
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The pool survives: workers keep serving after a throwing task.
    auto after = pool.submit([] { return 7; });
    EXPECT_EQ(after.get(), 7);
}

TEST(Pool, RunsManyTasksOnAllWorkers) {
    util::ThreadPool pool(8);
    std::atomic<int> sum{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 200; ++i)
        futures.push_back(pool.submit([&sum] { sum.fetch_add(1); }));
    for (auto& f : futures) f.get();
    EXPECT_EQ(sum.load(), 200);
}

ResultCache::Key key(const char* name) { return util::digestOf(name); }

ResultCache::Value makeValue(const std::string& name) {
    auto r = std::make_shared<JobResult>();
    r->name = name;
    r->ok = true;
    return r;
}

TEST(Cache, LruEviction) {
    ResultCache cache(/*capacity=*/2);
    for (const char* name : {"a", "b"}) {
        auto lookup = cache.lookupOrReserve(key(name));
        auto* reservation = std::get_if<ResultCache::Reservation>(&lookup);
        ASSERT_NE(reservation, nullptr);
        reservation->fulfill(makeValue(name));
    }
    // Touch "a" so "b" is the LRU entry, then insert "c".
    EXPECT_TRUE(std::holds_alternative<ResultCache::Value>(
        cache.lookupOrReserve(key("a"))));
    {
        auto lookup = cache.lookupOrReserve(key("c"));
        auto* reservation = std::get_if<ResultCache::Reservation>(&lookup);
        ASSERT_NE(reservation, nullptr);
        reservation->fulfill(makeValue("c"));
    }
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(std::holds_alternative<ResultCache::Value>(
        cache.lookupOrReserve(key("a"))));
    EXPECT_TRUE(std::holds_alternative<ResultCache::Reservation>(
        cache.lookupOrReserve(key("b"))))
        << "b must have been evicted";
}

TEST(Cache, CapacityBoundsReadyEntriesWhateverTheKeys) {
    // The capacity is one bound over all keys: three inserts into a
    // cache of two leave two ready entries, however the keys hash.
    for (int round = 0; round < 16; ++round) {
        ResultCache cache(2);
        for (int i = 0; i < 3; ++i) {
            const std::string name =
                std::to_string(round) + "/" + std::to_string(i);
            auto lookup = cache.lookupOrReserve(key(name.c_str()));
            auto* reservation =
                std::get_if<ResultCache::Reservation>(&lookup);
            ASSERT_NE(reservation, nullptr);
            reservation->fulfill(makeValue(name));
        }
        EXPECT_EQ(cache.stats().entries, 2u) << "round " << round;
        EXPECT_EQ(cache.stats().evictions, 1u) << "round " << round;
        EXPECT_EQ(cache.snapshot().size(), 2u) << "round " << round;
    }
}

TEST(Cache, AbandonedReservationIsNotCached) {
    ResultCache cache(4);
    {
        auto lookup = cache.lookupOrReserve(key("k"));
        ASSERT_TRUE(std::holds_alternative<ResultCache::Reservation>(lookup));
        // Reservation destroyed unfulfilled — the computation "threw".
    }
    auto retry = cache.lookupOrReserve(key("k"));
    EXPECT_TRUE(std::holds_alternative<ResultCache::Reservation>(retry))
        << "a failure must not poison the key";
}

TEST(Cache, ZeroCapacityDisables) {
    ResultCache cache(0);
    EXPECT_TRUE(
        std::holds_alternative<std::monostate>(
            cache.lookupOrReserve(key("k"))));
    EXPECT_EQ(cache.stats().hits, 0u);
}

// Regression: the move constructor used to null only cache_, leaving the
// moved-from object with a live-looking fulfilled_ over a moved-from
// promise. Moving a reservation before fulfilling — and
// letting the source die, or poking it — must be completely inert.
TEST(Cache, ReservationMovedBeforeFulfillStaysValid) {
    ResultCache cache(4);
    auto lookup = cache.lookupOrReserve(key("k"));
    auto* reservation = std::get_if<ResultCache::Reservation>(&lookup);
    ASSERT_NE(reservation, nullptr);
    {
        ResultCache::Reservation moved(std::move(*reservation));
        // The source must be a no-op for every operation it still
        // exposes: fulfill() on it must not touch the promise or the
        // cache, and its destructor (end of `lookup`'s variant life)
        // must not erase the entry the new owner still holds.
        reservation->fulfill(makeValue("stray"));
        moved.fulfill(makeValue("k"));
    }
    auto hit = cache.lookupOrReserve(key("k"));
    auto* value = std::get_if<ResultCache::Value>(&hit);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ((*value)->name, "k");
    EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(Cache, ReservationMovedThenSourceDestroyedDoesNotPoison) {
    ResultCache cache(4);
    std::optional<ResultCache::Reservation> keeper;
    {
        auto lookup = cache.lookupOrReserve(key("k"));
        auto* reservation = std::get_if<ResultCache::Reservation>(&lookup);
        ASSERT_NE(reservation, nullptr);
        keeper.emplace(std::move(*reservation));
        // `lookup` (holding the moved-from source) dies here.
    }
    keeper->fulfill(makeValue("k"));
    keeper.reset();
    EXPECT_TRUE(std::holds_alternative<ResultCache::Value>(
        cache.lookupOrReserve(key("k"))));
}

TEST(Cache, SnapshotDrainsReadyEntriesOnly) {
    ResultCache cache(8);
    {
        auto lookup = cache.lookupOrReserve(key("ready"));
        std::get_if<ResultCache::Reservation>(&lookup)->fulfill(
            makeValue("ready"));
    }
    auto inflight = cache.lookupOrReserve(key("inflight"));
    ASSERT_TRUE(
        std::holds_alternative<ResultCache::Reservation>(inflight));
    const auto snap = cache.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].key, key("ready"));
    EXPECT_EQ(snap[0].value->name, "ready");
    std::get_if<ResultCache::Reservation>(&inflight)->fulfill(
        makeValue("inflight"));
}

TEST(Cache, RestoreMergesWithoutClobberingLiveEntries) {
    ResultCache cache(8);
    {
        auto lookup = cache.lookupOrReserve(key("k1"));
        std::get_if<ResultCache::Reservation>(&lookup)->fulfill(
            makeValue("live"));
    }
    std::vector<ResultCache::SnapshotEntry> entries;
    entries.push_back({key("k1"), makeValue("stale-from-disk")});
    entries.push_back({key("k2"), makeValue("new-from-disk")});
    EXPECT_EQ(cache.restore(std::move(entries)), 1u);
    EXPECT_EQ(cache.stats().restored, 1u);
    auto h1 = cache.lookupOrReserve(key("k1"));
    EXPECT_EQ((*std::get_if<ResultCache::Value>(&h1))->name, "live")
        << "a live entry must win over the store";
    auto h2 = cache.lookupOrReserve(key("k2"));
    ASSERT_TRUE(std::holds_alternative<ResultCache::Value>(h2));
    EXPECT_EQ((*std::get_if<ResultCache::Value>(&h2))->name,
              "new-from-disk");
}

TEST(Engine, CacheSourceDistinguishesComputedFromMemory) {
    Engine engine(EngineOptions{});
    JobSpec spec;
    spec.benchmark = "majority7";
    const auto first = engine.runJob(spec);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.cacheSource, CacheSource::kComputed);
    const auto second = engine.runJob(spec);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.cacheSource, CacheSource::kMemory);
}

TEST(Engine, VariableCapacityOverflowIsAPerJobFailure) {
    // A job that outgrows the 256-variable monomial universe must fail as
    // that job — with a capacity message, not a crash — while its batch
    // mates run to completion.
    std::string huge = "y=x0";
    for (int i = 1; i < 300; ++i) huge += " ^ x" + std::to_string(i);
    std::vector<JobSpec> specs(3);
    specs[0].benchmark = "majority7";
    specs[1].name = "too-wide";
    specs[1].expressions = {huge};
    specs[2].benchmark = "counter8";

    const auto results = runBatch(specs, EngineOptions{});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("capacity"), std::string::npos)
        << results[1].error;
    EXPECT_TRUE(results[2].ok) << results[2].error;
}

TEST(Engine, MergeBudgetOverrideIsReportedHonestly) {
    // An absurdly small per-job merge budget (pd_cli --merge-budget)
    // must truncate the search (budget_exhausted) yet still produce a
    // valid, verified result — anytime semantics, not failure.
    EngineOptions opt;
    opt.jobs = 1;
    JobSpec spec;
    spec.benchmark = "counter16";
    spec.options.mergeAttemptBudget = 1;
    const auto r = runBatch({spec}, opt).front();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.budgetExhausted);
    EXPECT_TRUE(r.verified());

    // And an effectively unlimited budget reports no truncation.
    EngineOptions loose;
    loose.jobs = 1;
    JobSpec easy;
    easy.benchmark = "majority7";
    const auto ok = runBatch({easy}, loose).front();
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_FALSE(ok.budgetExhausted);
}

TEST(Engine, PhaseTimesCoverTheFlow) {
    EngineOptions opt;
    opt.jobs = 1;
    Engine engine(opt);
    JobSpec spec;
    spec.benchmark = "counter8";
    const auto r = engine.runJob(spec);
    ASSERT_TRUE(r.ok) << r.error;
    const auto& p = r.phases;
    EXPECT_GT(p.decomposeMs, 0.0);
    const double sum = p.decomposeMs + p.synthMs + p.optimizeMs + p.mapMs +
                       p.staMs + p.verifyMs;
    EXPECT_LE(sum, r.wallMs + 1.0) << "phases cannot exceed the job wall";

    // A cache hit re-runs nothing: phases must be zero.
    const auto hit = engine.runJob(spec);
    ASSERT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.phases.decomposeMs, 0.0);
    EXPECT_EQ(hit.phases.verifyMs, 0.0);
}

void expectSameSatVerify(const JobResult& a, const JobResult& b) {
    EXPECT_EQ(a.satVerify.ran, b.satVerify.ran);
    EXPECT_EQ(a.satVerify.conflicts, b.satVerify.conflicts);
    EXPECT_EQ(a.satVerify.propagations, b.satVerify.propagations);
    EXPECT_EQ(a.satVerify.restarts, b.satVerify.restarts);
    EXPECT_EQ(a.satVerify.learned, b.satVerify.learned);
    EXPECT_EQ(a.satVerify.budgetExhausted, b.satVerify.budgetExhausted);
}

TEST(Engine, SatVerifyUpgradesStatusAndIsDeterministic) {
    // The solve is a pure function of the miter: the report — including
    // every solver statistic — is bit-identical at any pool size.
    JobSpec spec;
    spec.benchmark = "majority7";
    std::vector<JobResult> runs;
    for (const std::size_t threads : {1u, 4u}) {
        EngineOptions opt;
        opt.jobs = threads;
        opt.cacheCapacity = 0;  // force a fresh compute per run
        opt.verifyThreads = true;
        const auto r = runBatch({spec}, opt).front();
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.verification, VerifyStatus::kSat);
        EXPECT_TRUE(r.verified());
        ASSERT_TRUE(r.satVerify.ran);
        EXPECT_FALSE(r.satVerify.budgetExhausted);
        EXPECT_GT(r.satVerify.propagations, 0u);
        runs.push_back(r);
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        expectSameSemantics(runs[0], runs[i]);
        expectSameSatVerify(runs[0], runs[i]);
    }
}

TEST(Engine, SatVerifyOffByDefaultAndSkippedWithNoVerify) {
    JobSpec spec;
    spec.benchmark = "majority7";
    const auto plain = runBatch({spec}, EngineOptions{}).front();
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_FALSE(plain.satVerify.ran);
    EXPECT_NE(plain.verification, VerifyStatus::kSat);

    EngineOptions opt;
    opt.verifyThreads = true;
    JobSpec unverified = spec;
    unverified.verify = false;
    const auto r = runBatch({unverified}, opt).front();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.satVerify.ran);
    EXPECT_EQ(r.verification, VerifyStatus::kSkipped);
}

TEST(Engine, SatVerifyBudgetExhaustionNeverFailsTheJob) {
    // A 1-conflict budget cannot refute the miter; the job must stay ok
    // with its simulation verdict intact and the truncation reported.
    EngineOptions opt;
    opt.jobs = 1;
    opt.verifyThreads = true;
    opt.verifyConflictBudget = 1;
    JobSpec spec;
    spec.benchmark = "mul4";
    const auto r = runBatch({spec}, opt).front();
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.satVerify.ran);
    if (r.satVerify.budgetExhausted) {
        EXPECT_NE(r.verification, VerifyStatus::kSat);
        EXPECT_NE(r.verification, VerifyStatus::kFailed);
        EXPECT_TRUE(r.verified());  // sim/algebraic verdict survives
    } else {
        EXPECT_EQ(r.verification, VerifyStatus::kSat);
    }
}

/// The solver-work counters a verify run bumps.
std::vector<std::uint64_t> satWorkCounters() {
    std::vector<std::uint64_t> values;
    for (const char* name : {"verify.sat.conflicts", "verify.sat.propagations",
                             "verify.sat.restarts", "verify.sat.learned"})
        values.push_back(obs::counter(name).value());
    return values;
}

std::vector<JobSpec> majorityAndCounter() {
    std::vector<JobSpec> specs;
    for (const char* name : {"majority7", "counter8"}) {
        JobSpec s;
        s.benchmark = name;
        specs.push_back(std::move(s));
    }
    return specs;
}

TEST(Engine, CacheHitReplaysTheDonorSatBlock) {
    // A hit copies the sat block of the solve that filled the entry. No
    // search runs for the hit, so no solver-work counter moves.
    EngineOptions opt;
    opt.jobs = 1;
    opt.verifyThreads = true;
    Engine engine(opt);
    const auto specs = majorityAndCounter();
    const auto first = engine.runBatch(specs);
    const auto before = satWorkCounters();
    const auto second = engine.runBatch(specs);
    EXPECT_EQ(satWorkCounters(), before);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < second.size(); ++i) {
        ASSERT_TRUE(first[i].ok) << first[i].error;
        EXPECT_EQ(first[i].verification, VerifyStatus::kSat);
        ASSERT_TRUE(first[i].satVerify.ran);
        EXPECT_GT(first[i].satVerify.propagations, 0u);
        ASSERT_TRUE(second[i].cacheHit) << second[i].name;
        expectSameSemantics(first[i], second[i]);
        expectSameSatVerify(first[i], second[i]);
    }
}

TEST(Engine, BudgetStarvedSatVerifyIsNeverPublished) {
    // A fault-starved search stays honest (budget exhausted, no sat
    // verdict), but it is not what these options compute: the result
    // cache withholds it, so the next run recomputes instead of
    // replaying the starved block.
    EngineOptions opt;
    opt.jobs = 1;
    opt.verifyThreads = true;
    Engine engine(opt);
    const auto specs = majorityAndCounter();
    {
        std::string error;
        ASSERT_TRUE(fault::armPlan("verify.sat.budget:e1", &error)) << error;
        const auto starved = engine.runBatch(specs);
        fault::disarmAllForTest();
        for (const auto& r : starved) {
            ASSERT_TRUE(r.ok) << r.error;
            ASSERT_TRUE(r.satVerify.ran);
            EXPECT_TRUE(r.satVerify.budgetExhausted) << r.name;
            EXPECT_NE(r.verification, VerifyStatus::kSat) << r.name;
        }
    }
    EXPECT_EQ(engine.cacheStats().entries, 0u);
    for (const auto& r : engine.runBatch(specs)) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_FALSE(r.cacheHit) << r.name << ": a starved result was served";
        EXPECT_EQ(r.verification, VerifyStatus::kSat) << r.name;
        EXPECT_FALSE(r.satVerify.budgetExhausted) << r.name;
    }
}

TEST(Engine, VerifyFingerprintPolicy) {
    // Enabling SAT verify or changing its budgets changes stored
    // verification fields and must salt the fingerprint; the pool's
    // size is scheduling and must not.
    EngineOptions off;
    EngineOptions on;
    on.verifyThreads = true;
    EXPECT_EQ(persistFingerprint(on),
              "lib:umc130|dr2|xl22|rb512|sd11400714819323198485|vs1|"
              "vcb0|vpb0");
    EXPECT_NE(persistFingerprint(off), persistFingerprint(on));
    EngineOptions pooled = on;
    pooled.jobs = 4;
    pooled.probeThreads = 4;
    EXPECT_EQ(persistFingerprint(pooled), persistFingerprint(on));
    for (const auto budget : {&EngineOptions::verifyConflictBudget,
                              &EngineOptions::verifyPropagationBudget}) {
        EngineOptions a = on;
        EngineOptions b = on;
        a.*budget = 100;
        b.*budget = 200;
        EXPECT_NE(persistFingerprint(a), persistFingerprint(on));
        EXPECT_NE(persistFingerprint(a), persistFingerprint(b));
        // A budgeted run salts the budgets and nothing else.
        const std::string fp = persistFingerprint(a);
        EXPECT_EQ(fp.substr(fp.find("|vs1")),
                  budget == &EngineOptions::verifyConflictBudget
                      ? "|vs1|vcb100|vpb0"
                      : "|vs1|vcb0|vpb100");
    }
}

TEST(ReportJson, SatVerifyBlockOnlyWhenRan) {
    JobResult r;
    r.name = "j";
    r.ok = true;
    std::ostringstream os;
    writeBatchReport(os, EngineOptions{}, std::vector<JobResult>{r},
                     ResultCache::Stats{});
    EXPECT_EQ(os.str().find("\"sat\""), std::string::npos);

    r.satVerify.ran = true;
    r.satVerify.conflicts = 42;
    r.verification = VerifyStatus::kSat;
    std::ostringstream os2;
    writeBatchReport(os2, EngineOptions{}, std::vector<JobResult>{r},
                     ResultCache::Stats{});
    const std::string out = os2.str();
    EXPECT_NE(out.find("\"status\": \"sat\""), std::string::npos);
    EXPECT_NE(out.find("\"conflicts\": 42"), std::string::npos);
    EXPECT_EQ(out.find("\"winner\""), std::string::npos);
}

TEST(ReportJson, BudgetAndPhasesInSchema) {
    JobResult r;
    r.name = "j";
    r.ok = true;
    r.budgetExhausted = true;
    r.phases.decomposeMs = 12.5;
    std::ostringstream os;
    writeBatchReport(os, EngineOptions{}, std::vector<JobResult>{r},
                     ResultCache::Stats{});
    const std::string out = os.str();
    EXPECT_NE(out.find("\"budget_exhausted\": true"), std::string::npos);
    EXPECT_NE(out.find("\"phases\""), std::string::npos);
    EXPECT_NE(out.find("\"decompose_ms\": 12.5"), std::string::npos);
}

TEST(ReportJson, EscapesAndNests) {
    JobResult r;
    r.name = "quote\" backslash\\ newline\n";
    r.ok = false;
    r.error = "tab\there";
    std::ostringstream os;
    writeBatchReport(os, EngineOptions{}, std::vector<JobResult>{r},
                     ResultCache::Stats{});
    const std::string out = os.str();
    EXPECT_NE(out.find("\\\""), std::string::npos);
    EXPECT_NE(out.find("\\\\"), std::string::npos);
    EXPECT_NE(out.find("\\n"), std::string::npos);
    EXPECT_NE(out.find("\\t"), std::string::npos);
    EXPECT_NE(out.find("\"schema\": \"pd-batch-report-v1\""),
              std::string::npos);
}

}  // namespace
}  // namespace pd::engine
