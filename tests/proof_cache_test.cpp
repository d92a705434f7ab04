// Tests for the content-addressed SAT proof cache: the in-memory cache
// (sat/proof_cache.hpp), proof provenance on the shard wire, and the
// engine-level warm-start/replay/taint/concurrent-flush behavior — the
// pd-proof-v1 store contract itself runs in persist_test's
// StoreContract suite — including the
// honest-provenance rule that replayed refutations are marked
// proof_source "cache" and never double-count solver work.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "engine/engine.hpp"
#include "engine/persist/proof_store.hpp"
#include "engine/report_json.hpp"
#include "engine/shard/protocol.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sat/equiv.hpp"
#include "sat/miter.hpp"
#include "sat/proof_cache.hpp"
#include "util/error.hpp"
#include "util/fault/fault.hpp"

namespace pd {
namespace {

using engine::persist::LoadStatus;
using engine::persist::ProofStore;
using sat::ProofCache;
using sat::ProofEntry;

/// Unique-per-test temp path, removed on scope exit.
class TempFile {
public:
    explicit TempFile(const std::string& tag)
        : path_(std::string(::testing::TempDir()) + "pd_proof_" + tag + "_" +
                std::to_string(::getpid()) + ".pdp") {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

[[nodiscard]] std::string readFile(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return std::move(buf).str();
}

/// Arms a plan for the test body; disarms all sites on scope exit.
class ScopedFaults {
public:
    explicit ScopedFaults(const std::string& plan) {
        std::string error;
        EXPECT_TRUE(fault::armPlan(plan, &error)) << error;
    }
    ~ScopedFaults() { fault::disarmAllForTest(); }
};

[[nodiscard]] ProofEntry sampleEntry(std::uint64_t seed) {
    ProofEntry e;
    e.conflicts = 100 + seed;
    e.propagations = 1000 + seed;
    e.restarts = seed % 5;
    e.learned = 50 + seed;
    e.winner = static_cast<int>(seed % 3);
    return e;
}

// ---- in-memory cache --------------------------------------------------------

TEST(ProofCache, LookupCountsHitsAndMisses) {
    ProofCache cache;
    EXPECT_FALSE(cache.lookup(1).has_value());
    EXPECT_TRUE(cache.insert(1, sampleEntry(1)));
    const auto hit = cache.lookup(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->conflicts, sampleEntry(1).conflicts);
    EXPECT_EQ(hit->winner, sampleEntry(1).winner);
    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(ProofCache, FirstInsertWins) {
    // A proof of a given obligation is unique; a duplicate insert (a
    // concurrent solve of the same miter) must not clobber the original.
    ProofCache cache;
    EXPECT_TRUE(cache.insert(7, sampleEntry(1)));
    EXPECT_FALSE(cache.insert(7, sampleEntry(2)));
    EXPECT_EQ(cache.lookup(7)->conflicts, sampleEntry(1).conflicts);
    EXPECT_EQ(cache.stats().inserts, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ProofCache, RestoreAdoptsButLiveEntriesWin) {
    ProofCache cache;
    ASSERT_TRUE(cache.insert(1, sampleEntry(1)));
    const std::vector<ProofCache::SnapshotEntry> fromDisk = {
        {1, sampleEntry(99)},  // collides with the live proof — dropped
        {2, sampleEntry(2)},
    };
    EXPECT_EQ(cache.restore(fromDisk), 1u);
    EXPECT_EQ(cache.lookup(1)->conflicts, sampleEntry(1).conflicts);
    EXPECT_EQ(cache.lookup(2)->conflicts, sampleEntry(2).conflicts);
}

TEST(ProofCache, TakeFreshExcludesRestoredEntries) {
    // The shard-worker answer: only proofs this process minted ship back,
    // each once; the coordinator already has everything the worker
    // warm-started on.
    ProofCache cache;
    ASSERT_EQ(cache.restore({{10, sampleEntry(10)}}), 1u);
    ASSERT_TRUE(cache.insert(20, sampleEntry(20)));
    const auto fresh = cache.takeFresh();
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(fresh[0].digest, 20u);
    EXPECT_TRUE(cache.takeFresh().empty());
    EXPECT_EQ(cache.snapshot().size(), 2u);
}

TEST(ProofCache, MiterDigestIsContentAddressed) {
    const auto build = [](bool xorGate) {
        netlist::Netlist nl;
        const auto a = nl.addInput("a");
        const auto b = nl.addInput("b");
        nl.markOutput("y", nl.addGate(xorGate ? netlist::GateType::kXor
                                              : netlist::GateType::kOr,
                                      a, b));
        return nl;
    };
    const auto m1 = sat::buildMiterCnf(build(true), build(false));
    const auto m2 = sat::buildMiterCnf(build(true), build(false));
    const auto m3 = sat::buildMiterCnf(build(false), build(true));
    ASSERT_FALSE(m1.trivialUnsat);
    // Same obligation → same digest; different obligation → different.
    EXPECT_EQ(sat::miterDigest(m1.problem), sat::miterDigest(m2.problem));
    EXPECT_NE(sat::miterDigest(m1.problem), sat::miterDigest(m3.problem));
}

// ---- cache-aware equivalence check ------------------------------------------

/// A small raw/mapped-style pair that needs a real (non-trivial) solve:
/// x^y built from XOR vs from (x|y) & ~(x&y).
struct EquivPair {
    netlist::Netlist a;
    netlist::Netlist b;
};

[[nodiscard]] EquivPair xorPair() {
    EquivPair p;
    {
        const auto x = p.a.addInput("x");
        const auto y = p.a.addInput("y");
        p.a.markOutput("o", p.a.addGate(netlist::GateType::kXor, x, y));
    }
    {
        const auto x = p.b.addInput("x");
        const auto y = p.b.addInput("y");
        const auto any = p.b.addGate(netlist::GateType::kOr, x, y);
        const auto both = p.b.addGate(netlist::GateType::kNand, x, y);
        p.b.markOutput("o", p.b.addGate(netlist::GateType::kAnd, any, both));
    }
    return p;
}

TEST(ProofCacheEquiv, SecondCheckReplaysTheProof) {
    const auto p = xorPair();
    ASSERT_FALSE(sat::buildMiterCnf(p.a, p.b).trivialUnsat);
    ProofCache cache;
    sat::EquivSatOptions opt;
    opt.proofCache = &cache;

    const auto cold = sat::checkEquivalentSat(p.a, p.b, opt);
    ASSERT_EQ(cold.status, sat::EquivCheckResult::Status::kEquivalent);
    EXPECT_EQ(cold.proofSource, sat::EquivCheckResult::ProofSource::kComputed);

    const auto warm = sat::checkEquivalentSat(p.a, p.b, opt);
    EXPECT_EQ(warm.status, sat::EquivCheckResult::Status::kEquivalent);
    EXPECT_EQ(warm.proofSource, sat::EquivCheckResult::ProofSource::kCache);
    // Replayed statistics are the original solve's, bit for bit.
    EXPECT_EQ(warm.conflicts, cold.conflicts);
    EXPECT_EQ(warm.propagations, cold.propagations);
    EXPECT_EQ(warm.restarts, cold.restarts);
    EXPECT_EQ(warm.learned, cold.learned);
    EXPECT_EQ(warm.winner, cold.winner);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ProofCacheEquiv, NullCacheMeansNoProvenanceClaim) {
    const auto p = xorPair();
    const auto r = sat::checkEquivalentSat(p.a, p.b, {});
    EXPECT_EQ(r.status, sat::EquivCheckResult::Status::kEquivalent);
    EXPECT_EQ(r.proofSource, sat::EquivCheckResult::ProofSource::kNone);
}

TEST(ProofCacheEquiv, SatVerdictsAreNeverPublished) {
    // x^y vs x|y differ: the model is a counterexample, not a proof.
    netlist::Netlist a, b;
    {
        const auto x = a.addInput("x");
        const auto y = a.addInput("y");
        a.markOutput("o", a.addGate(netlist::GateType::kXor, x, y));
    }
    {
        const auto x = b.addInput("x");
        const auto y = b.addInput("y");
        b.markOutput("o", b.addGate(netlist::GateType::kOr, x, y));
    }
    ProofCache cache;
    sat::EquivSatOptions opt;
    opt.proofCache = &cache;
    const auto r = sat::checkEquivalentSat(a, b, opt);
    EXPECT_EQ(r.status, sat::EquivCheckResult::Status::kDifferent);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().inserts, 0u);
}

// ---- shard wire -------------------------------------------------------------

TEST(ProofWire, ResultCarriesProofSourceOutsideTheSemanticPayload) {
    engine::JobResult r;
    r.name = "j";
    r.ok = true;
    r.satVerify.ran = true;
    r.satVerify.proofSource = engine::JobResult::SatVerify::ProofSource::kCache;
    auto [back, records] =
        engine::shard::decodeResult(engine::shard::encodeResult(r, {}));
    EXPECT_TRUE(records.proofs.empty());
    EXPECT_EQ(back.satVerify.proofSource,
              engine::JobResult::SatVerify::ProofSource::kCache);
}

// ---- engine integration -----------------------------------------------------

[[nodiscard]] std::vector<engine::JobSpec> twoJobs() {
    std::vector<engine::JobSpec> specs;
    for (const char* name : {"majority7", "counter8"}) {
        engine::JobSpec s;
        s.benchmark = name;
        specs.push_back(std::move(s));
    }
    return specs;
}

TEST(ProofEngine, WarmRunReplaysEveryProofAndFlushesByteIdentically) {
    TempFile file("engine_warm");
    engine::EngineOptions opt;
    opt.verifyThreads = 1;
    opt.proofCacheFile = file.path();
    {
        engine::Engine cold(opt);
        EXPECT_EQ(cold.proofPersistInfo().loadStatus,
                  LoadStatus::kNoFile);
        for (const auto& r : cold.runBatch(twoJobs())) {
            ASSERT_TRUE(r.ok) << r.error;
            ASSERT_TRUE(r.satVerify.ran);
            EXPECT_EQ(r.satVerify.proofSource,
                      engine::JobResult::SatVerify::ProofSource::kComputed);
        }
        ASSERT_TRUE(cold.flushProofCache());
    }
    const std::string coldBytes = readFile(file.path());
    ASSERT_FALSE(coldBytes.empty());

    engine::Engine warm(opt);
    EXPECT_EQ(warm.proofPersistInfo().loadStatus, LoadStatus::kLoaded);
    EXPECT_GT(warm.proofPersistInfo().loadedEntries, 0u);
    const auto coldResults = [&] {
        engine::EngineOptions fresh = opt;
        fresh.proofCacheFile.clear();
        return engine::Engine(fresh).runBatch(twoJobs());
    }();
    const auto results = warm.runBatch(twoJobs());
    ASSERT_EQ(results.size(), coldResults.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_TRUE(r.satVerify.ran);
        EXPECT_EQ(r.satVerify.proofSource,
                  engine::JobResult::SatVerify::ProofSource::kCache)
            << r.name;
        // Replay is honest: the verdict and statistics match a computed
        // run bit for bit — only the provenance differs.
        EXPECT_EQ(r.verification, coldResults[i].verification);
        EXPECT_EQ(r.satVerify.conflicts, coldResults[i].satVerify.conflicts);
        EXPECT_EQ(r.satVerify.winner, coldResults[i].satVerify.winner);
    }
    const auto stats = warm.proofCacheStats();
    EXPECT_EQ(stats.misses, 0u) << "a warm run must not race the portfolio";
    EXPECT_GT(stats.hits, 0u);
    ASSERT_TRUE(warm.flushProofCache());
    EXPECT_EQ(readFile(file.path()), coldBytes)
        << "replaying proofs must rewrite the store byte-identically";
}

TEST(ProofEngine, BudgetStarvedRunsNeverPublishProofs) {
    TempFile file("engine_taint");
    engine::EngineOptions opt;
    opt.verifyThreads = 1;
    opt.proofCacheFile = file.path();
    {
        ScopedFaults faults("verify.sat.budget:e1");
        engine::Engine engine(opt);
        for (const auto& r : engine.runBatch(twoJobs())) {
            ASSERT_TRUE(r.ok) << r.error;
            EXPECT_NE(r.verification, engine::VerifyStatus::kSat)
                << "a starved search cannot certify";
        }
        EXPECT_EQ(engine.proofCacheStats().entries, 0u)
            << "fault-starved runs must never publish proofs";
        ASSERT_TRUE(engine.flushProofCache());
    }
    // The flushed store is honest too: empty, so the next run cold-solves.
    const auto loaded =
        ProofStore::load(file.path(), engine::proofFingerprint(opt));
    EXPECT_EQ(loaded.status, LoadStatus::kLoaded);
    EXPECT_TRUE(loaded.entries.empty());
}

TEST(ProofEngine, ReadonlyRefusesToFlushAndBudgetSaltGuardsReplay) {
    TempFile file("engine_ro");
    engine::EngineOptions opt;
    opt.verifyThreads = 1;
    opt.proofCacheFile = file.path();
    {
        engine::Engine engine(opt);
        for (const auto& r : engine.runBatch(twoJobs()))
            ASSERT_TRUE(r.ok) << r.error;
        ASSERT_TRUE(engine.flushProofCache());
    }
    engine::EngineOptions ro = opt;
    ro.proofCacheReadonly = true;
    engine::Engine reader(ro);
    EXPECT_EQ(reader.proofPersistInfo().loadStatus,
              LoadStatus::kLoaded);
    std::string error;
    EXPECT_FALSE(reader.flushProofCache(nullptr, &error));
    EXPECT_NE(error.find("read-only"), std::string::npos) << error;

    // A different SAT budget is a different salt: the store must not
    // replay under it (stats minted under another budget would lie).
    engine::EngineOptions budget = opt;
    budget.verifyConflictBudget = 123456;
    engine::Engine other(budget);
    EXPECT_EQ(other.proofPersistInfo().loadStatus,
              LoadStatus::kBadFingerprint);
}

TEST(ProofEngine, CacheHitReplayKeepsSatProvenanceHonest) {
    // In-memory result-cache hit: the replayed JobResult's satVerify
    // block is served from the cache, so its proof_source must say
    // "cache" — the portfolio never ran for the second call.
    engine::EngineOptions opt;
    opt.verifyThreads = 1;
    engine::Engine engine(opt);
    const auto specs = twoJobs();
    const auto first = engine.runBatch(specs);
    const auto second = engine.runBatch(specs);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < second.size(); ++i) {
        ASSERT_TRUE(second[i].ok) << second[i].error;
        ASSERT_TRUE(second[i].cacheHit);
        ASSERT_TRUE(second[i].satVerify.ran);
        EXPECT_EQ(second[i].satVerify.proofSource,
                  engine::JobResult::SatVerify::ProofSource::kCache);
        EXPECT_EQ(second[i].satVerify.conflicts,
                  first[i].satVerify.conflicts);
    }
}

TEST(ProofEngine, ConcurrentFlushWhileVerifying) {
    // flushProofCache() promises flushCache()'s contract: safe while jobs
    // run. Hammer it from two threads during a verify-on batch; every
    // written version must load clean, and the final flush must hold
    // every proof.
    TempFile file("engine_concurrent");
    engine::EngineOptions opt;
    opt.verifyThreads = 1;
    opt.jobs = 4;
    opt.proofCacheFile = file.path();
    engine::Engine engine(opt);
    std::vector<engine::JobSpec> specs = twoJobs();
    for (const char* name : {"adder8", "comparator8"}) {
        engine::JobSpec s;
        s.benchmark = name;
        specs.push_back(std::move(s));
    }

    const std::string fp = engine::proofFingerprint(opt);
    std::atomic<bool> done{false};
    const auto flusher = [&] {
        while (!done.load()) {
            engine.flushProofCache();
            const auto loaded = ProofStore::load(file.path(), fp);
            if (loaded.status != LoadStatus::kNoFile) {
                EXPECT_TRUE(loaded.ok()) << loaded.detail;
            }
            std::this_thread::yield();
        }
    };
    std::thread t1(flusher), t2(flusher);
    const auto results = engine.runBatch(specs);
    done.store(true);
    t1.join();
    t2.join();
    for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;

    ASSERT_TRUE(engine.flushProofCache());
    const auto loaded = ProofStore::load(file.path(), fp);
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    EXPECT_GT(loaded.entries.size(), 0u);
    EXPECT_EQ(loaded.entries.size(), engine.proofCacheStats().entries);
}

TEST(ProofEngine, ReportSpellsProofProvenance) {
    using engine::JobResult;
    EXPECT_EQ(engine::proofSourceName(
                  JobResult::SatVerify::ProofSource::kComputed),
              "computed");
    EXPECT_EQ(
        engine::proofSourceName(JobResult::SatVerify::ProofSource::kCache),
        "cache");
}

}  // namespace
}  // namespace pd
