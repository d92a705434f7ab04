// Probe-sweep tests: the incremental speculative group-selection sweep
// (core/probe) against the sequential PR-4 reference and against its own
// 1-lane run, including under probeMergeBudget truncation, a starved
// pool and tickets that outlive their context, plus decompose-level
// determinism at every probe-thread setting and winner-basis reuse
// correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "anf/anf.hpp"
#include "anf/parser.hpp"
#include "anf/printer.hpp"
#include "circuits/registry.hpp"
#include "core/basis.hpp"
#include "core/decomposer.hpp"
#include "core/group.hpp"
#include "core/minimize.hpp"
#include "core/probe/probe.hpp"
#include "ring/identity_db.hpp"
#include "util/pool.hpp"

namespace pd::core {
namespace {

using anf::Anf;
using anf::Monomial;
using anf::Var;
using anf::VarTable;

/// A pool of `lanes` threads for a probe sweep of that many lanes; none
/// (a sequential sweep) for one lane.
std::shared_ptr<util::ThreadPool> lanePool(std::size_t lanes) {
    return lanes > 1 ? std::make_shared<util::ThreadPool>(lanes) : nullptr;
}

class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed ? seed : 1) {}
    std::uint64_t next() {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return s_;
    }
    std::size_t below(std::size_t n) { return next() % n; }

private:
    std::uint64_t s_;
};

Anf randomAnf(Rng& rng, Var maxVar, std::size_t terms, std::size_t maxDeg) {
    std::vector<Monomial> ts;
    for (std::size_t i = 0; i < terms; ++i) {
        Monomial m;
        const std::size_t deg = 1 + rng.below(maxDeg);
        for (std::size_t d = 0; d < deg; ++d)
            m.insert(static_cast<Var>(rng.below(maxVar)));
        ts.push_back(m);
    }
    return Anf::fromTerms(std::move(ts));
}

/// A random sweep workload: derived-variable expression (so candidate
/// generation runs the exhaustive phase), optionally seeded identities.
struct Workload {
    VarTable vars;
    Anf folded;
    ring::IdentityDb ids;
    std::vector<anf::VarSet> candidates;
};

Workload makeWorkload(std::uint64_t seed, std::size_t nVars,
                      std::size_t terms, bool withIdentities,
                      const GroupOptions& opt) {
    Workload w;
    Rng rng(seed);
    for (std::size_t i = 0; i < nVars; ++i)
        (void)w.vars.addDerived("s" + std::to_string(i + 1),
                                static_cast<int>(i / 4));
    w.folded = randomAnf(rng, static_cast<Var>(nVars), terms, 3);
    if (withIdentities) {
        for (int i = 0; i < 5; ++i)
            w.ids.add(Anf::var(static_cast<Var>(rng.below(nVars))) *
                      randomAnf(rng, static_cast<Var>(nVars), 2, 2));
    }
    auto gen = groupCandidates(w.folded, w.vars, {}, opt);
    w.candidates = std::move(gen.candidates);
    return w;
}

void expectSameOutcome(const probe::SweepOutcome& a,
                       const probe::SweepOutcome& b) {
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.budgetExhausted, b.budgetExhausted);
}

TEST(ProbeSweep, MatchesReferenceOnRandomWorkloads) {
    GroupOptions opt;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (const bool withIds : {false, true}) {
            auto w = makeWorkload(seed, 9, 24, withIds, opt);
            if (w.candidates.empty()) continue;
            probe::ProbeContext ctx;
            const auto got = ctx.sweep(w.folded, w.candidates, w.ids, opt);
            const auto want =
                probe::referenceSweep(w.folded, w.candidates, w.ids, opt);
            EXPECT_EQ(got.group, want.group)
                << "seed " << seed << " ids " << withIds;
            EXPECT_EQ(got.score, want.score);
            EXPECT_EQ(got.index, want.index);
        }
    }
}

TEST(ProbeSweep, ThreadCountNeverChangesTheOutcome) {
    GroupOptions opt;
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
        auto w = makeWorkload(seed, 10, 28, true, opt);
        if (w.candidates.empty()) continue;
        probe::ProbeContext sequential;
        const auto want = sequential.sweep(w.folded, w.candidates, w.ids, opt);
        for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
            probe::ProbeContext ctx(lanePool(threads));
            const auto got = ctx.sweep(w.folded, w.candidates, w.ids, opt);
            expectSameOutcome(want, got);
        }
    }
}

TEST(ProbeSweep, BudgetTruncationIsDeterministicAcrossThreadCounts) {
    // Tiny per-probe budgets truncate candidate scoring; the sweep must
    // still return the same winner, score and exhausted flag at every
    // thread count (waves and pruning are schedule-independent).
    for (const std::size_t budget : {std::size_t{1}, std::size_t{3},
                                     std::size_t{7}}) {
        GroupOptions opt;
        opt.probeMergeBudget = budget;
        auto w = makeWorkload(21, 10, 30, true, opt);
        ASSERT_FALSE(w.candidates.empty());
        probe::ProbeContext sequential;
        const auto want = sequential.sweep(w.folded, w.candidates, w.ids, opt);
        // The reference probes every candidate, so its winner is a valid
        // cross-check even when the sweep prunes.
        const auto ref =
            probe::referenceSweep(w.folded, w.candidates, w.ids, opt);
        EXPECT_EQ(want.group, ref.group) << "budget " << budget;
        EXPECT_EQ(want.score, ref.score);
        for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
            probe::ProbeContext ctx(lanePool(threads));
            const auto got = ctx.sweep(w.folded, w.candidates, w.ids, opt);
            expectSameOutcome(want, got);
        }
    }
}

TEST(ProbeSweep, ReusedContextMatchesFreshContextAcrossSweeps) {
    // One context across many sweeps (the decomposer's usage): recycled
    // indexers, warm span pools and stale-ring clearing must never leak
    // into results.
    GroupOptions opt;
    probe::ProbeContext reused;
    for (std::uint64_t seed = 31; seed <= 36; ++seed) {
        auto w = makeWorkload(seed, 9, 26, true, opt);
        if (w.candidates.empty()) continue;
        probe::ProbeContext fresh;
        const auto a = reused.sweep(w.folded, w.candidates, w.ids, opt);
        const auto b = fresh.sweep(w.folded, w.candidates, w.ids, opt);
        expectSameOutcome(a, b);
    }
    EXPECT_GE(reused.stats().sweeps, 1u);
}

TEST(ProbeSweep, WinnerBasisEqualsFreshFindBasis) {
    GroupOptions opt;
    auto w = makeWorkload(41, 9, 24, true, opt);
    ASSERT_FALSE(w.candidates.empty());
    probe::ProbeContext ctx;
    const auto out = ctx.sweep(w.folded, w.candidates, w.ids, opt);
    ASSERT_TRUE(out.winnerBasis.has_value());
    const auto fresh = findBasis(w.folded, out.group, w.ids,
                                 probe::probeFindBasisOptions(opt));
    ASSERT_EQ(out.winnerBasis->pairs.size(), fresh.pairs.size());
    for (std::size_t i = 0; i < fresh.pairs.size(); ++i) {
        EXPECT_EQ(out.winnerBasis->pairs[i].first, fresh.pairs[i].first);
        EXPECT_EQ(out.winnerBasis->pairs[i].second, fresh.pairs[i].second);
    }
    EXPECT_EQ(out.winnerBasis->untouched, fresh.untouched);
    EXPECT_EQ(out.winnerBasis->budgetExhausted, fresh.budgetExhausted);
}

TEST(ProbeSweep, DedupAndPruneAccounting) {
    GroupOptions opt;
    auto w = makeWorkload(51, 12, 40, false, opt);
    ASSERT_GT(w.candidates.size(), 2u);
    // Duplicate the first candidate at the end: it must be deduped, and
    // the winner must not change.
    auto withDup = w.candidates;
    withDup.push_back(withDup.front());
    probe::ProbeContext a;
    probe::ProbeContext b;
    const auto clean = a.sweep(w.folded, w.candidates, w.ids, opt);
    const auto duped = b.sweep(w.folded, withDup, w.ids, opt);
    EXPECT_EQ(clean.group, duped.group);
    EXPECT_EQ(clean.score, duped.score);
    EXPECT_GE(b.stats().deduped, 1u);
    // Accounting invariant: every candidate is deduped, pruned or probed.
    EXPECT_EQ(b.stats().candidates,
              b.stats().deduped + b.stats().pruned + b.stats().probed);
}

TEST(FindBasisIndexed, SharedContextIsBitIdenticalToFreshContexts) {
    Rng rng(61);
    MergeContext shared;
    for (int round = 0; round < 6; ++round) {
        VarTable vt;
        for (int i = 0; i < 8; ++i)
            (void)vt.addDerived("s" + std::to_string(i + 1), 0);
        const Anf folded = randomAnf(rng, 8, 20, 3);
        ring::IdentityDb ids;
        ids.add(Anf::var(static_cast<Var>(rng.below(8))) *
                randomAnf(rng, 8, 2, 2));
        anf::VarSet group;
        for (int i = 0; i < 3; ++i)
            group.insert(static_cast<Var>(rng.below(8)));
        const auto a = materialize(shared.membership.indexer,
                                   findBasisIndexed(shared, folded, group, ids));
        const auto b = findBasis(folded, group, ids);
        ASSERT_EQ(a.pairs.size(), b.pairs.size());
        for (std::size_t i = 0; i < a.pairs.size(); ++i) {
            EXPECT_EQ(a.pairs[i].first, b.pairs[i].first);
            EXPECT_EQ(a.pairs[i].second, b.pairs[i].second);
        }
        EXPECT_EQ(a.untouched, b.untouched);
        EXPECT_EQ(a.mergeAttempts, b.mergeAttempts);
    }
}

TEST(ProbeSweep, EveryCandidateScoresAsTheReference) {
    // Replay every sweep of a real majority15 decompose. Sweeps of at
    // most kWaveSize distinct candidates prune nothing, so the score hook
    // sees each candidate's indexed score; the reference scores it alone
    // on the Anf path.
    struct Captured {
        Anf folded;
        std::vector<anf::VarSet> candidates;
        ring::IdentityDb ids;
    };
    std::vector<Captured> sweeps;
    const auto bench = circuits::makeNamedBenchmark("majority15");
    ASSERT_TRUE(bench.has_value());
    VarTable vt;
    const auto outs = bench->anf(vt);
    (void)decompose(vt, outs, bench->outputNames, {},
                    [&](const Anf& f, const std::vector<anf::VarSet>& c,
                        const ring::IdentityDb& i) {
                        sweeps.push_back({f, c, i});
                    });
    ASSERT_FALSE(sweeps.empty());

    GroupOptions opt;
    opt.probeMergeBudget = kDefaultMergeAttemptBudget;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        probe::ProbeContext ctx(lanePool(threads));
        std::vector<std::pair<std::size_t, std::size_t>> scores;
        ctx.scoreHook = [&](std::size_t i, std::size_t score) {
            scores.emplace_back(i, score);
        };
        std::size_t checked = 0;
        for (const auto& sw : sweeps) {
            std::vector<anf::VarSet> distinct;
            for (const auto& c : sw.candidates)
                if (std::find(distinct.begin(), distinct.end(), c) ==
                    distinct.end())
                    distinct.push_back(c);
            for (std::size_t at = 0; at < distinct.size();
                 at += probe::kWaveSize) {
                const std::vector<anf::VarSet> chunk(
                    distinct.begin() + static_cast<std::ptrdiff_t>(at),
                    distinct.begin() + static_cast<std::ptrdiff_t>(std::min(
                                           distinct.size(),
                                           at + probe::kWaveSize)));
                scores.clear();
                (void)ctx.sweep(sw.folded, chunk, sw.ids, opt);
                ASSERT_EQ(scores.size(), chunk.size());
                for (const auto& [i, score] : scores) {
                    const auto ref = probe::referenceSweep(
                        sw.folded, {chunk[i]}, sw.ids, opt);
                    EXPECT_EQ(score, ref.score)
                        << "threads " << threads << " candidate "
                        << anf::setToString(chunk[i], vt);
                    ++checked;
                }
            }
        }
        EXPECT_GT(checked, 100u);
    }
}

// ---- the bound pass --------------------------------------------------------

/// GF(2) rank of bit rows, by Gaussian elimination.
std::size_t gf2Rank(std::vector<std::vector<bool>> rows) {
    std::size_t rank = 0;
    const std::size_t cols = rows.empty() ? 0 : rows.front().size();
    for (std::size_t c = 0; c < cols && rank < rows.size(); ++c) {
        std::size_t pivot = rank;
        while (pivot < rows.size() && !rows[pivot][c]) ++pivot;
        if (pivot == rows.size()) continue;
        std::swap(rows[rank], rows[pivot]);
        for (std::size_t r = 0; r < rows.size(); ++r) {
            if (r == rank || !rows[r][c]) continue;
            for (std::size_t k = 0; k < cols; ++k)
                rows[r][k] = rows[r][k] != rows[rank][k];
        }
        ++rank;
    }
    return rank;
}

/// The bound candidateBounds computes, from explicit maps: per
/// candidate, each distinct rest monomial maps to its coefficient, the
/// set of group parts it multiplies. Rests whose variables all lie in
/// the generators of the candidate variables' null-space rings are left
/// out, since null-space merges can cancel them. The bound is the
/// untouched literal count, plus each remaining rest's degree, plus 3
/// per pair: the exact GF(2) rank of the coefficients when the candidate
/// has at most 6 variables and every one of them has a trivial
/// null-space ring, and 1 otherwise.
probe::CandidateBounds referenceBounds(
    std::span<const Monomial> terms,
    const std::vector<anf::VarSet>& candidates,
    const ring::IdentityDb& ids) {
    probe::CandidateBounds out;
    std::size_t totalLits = 0;
    for (const auto& t : terms) totalLits += t.degree();
    for (const auto& cand : candidates) {
        bool identityFree = true;
        anf::VarSet ringVars;
        cand.forEachVar([&](Var v) {
            const auto ring = ids.nullspaceOf(v);
            identityFree = identityFree && ring.trivial();
            for (const auto& g : ring.generators())
                ringVars = ringVars.unionWith(g.support());
        });
        std::unordered_map<Monomial, std::vector<Monomial>, anf::MonomialHash>
            coef;
        std::vector<std::uint32_t> touched;
        std::size_t touchedLits = 0;
        for (std::size_t ti = 0; ti < terms.size(); ++ti) {
            if (!terms[ti].intersects(cand)) continue;
            touched.push_back(static_cast<std::uint32_t>(ti));
            touchedLits += terms[ti].degree();
            const Monomial rest = terms[ti].without(cand);
            if (!identityFree && rest.subsetOf(ringVars)) continue;
            auto& parts = coef[rest];
            const Monomial part = terms[ti].restrictedTo(cand);
            const auto it = std::find(parts.begin(), parts.end(), part);
            if (it != parts.end())
                parts.erase(it);
            else
                parts.push_back(part);
        }
        std::size_t restLits = 0;
        std::unordered_map<Monomial, std::size_t, anf::MonomialHash> column;
        for (const auto& [rest, parts] : coef) {
            restLits += rest.degree();
            for (const auto& p : parts) column.emplace(p, column.size());
        }
        std::size_t pairs = coef.empty() ? 0 : 1;
        if (identityFree && cand.degree() <= 6) {
            std::vector<std::vector<bool>> rows;
            for (const auto& [rest, parts] : coef) {
                auto& row = rows.emplace_back(column.size(), false);
                for (const auto& p : parts) row[column.at(p)] = true;
            }
            pairs = gf2Rank(std::move(rows));
        }
        out.untouchedLits.push_back(totalLits - touchedLits);
        out.bound.push_back(totalLits - touchedLits + restLits + 3 * pairs);
        out.touched.push_back(std::move(touched));
    }
    return out;
}

void expectBoundsMatchReference(const Anf& folded,
                                const std::vector<anf::VarSet>& candidates,
                                const ring::IdentityDb& ids) {
    const auto got = probe::candidateBounds(folded.terms(), candidates, ids);
    const auto want = referenceBounds(folded.terms(), candidates, ids);
    ASSERT_EQ(got.bound.size(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        EXPECT_EQ(got.bound[i], want.bound[i]) << "candidate " << i;
        EXPECT_EQ(got.untouchedLits[i], want.untouchedLits[i]);
        EXPECT_EQ(got.touched[i], want.touched[i]);
    }
}

TEST(CandidateBounds, MatchReferenceOnRandomWorkloads) {
    // k = 8 exceeds the exact-coefficient width: those candidates read
    // their parts off the terms and count one pair.
    for (const std::size_t k :
         {std::size_t{4}, std::size_t{6}, std::size_t{8}}) {
        GroupOptions opt;
        opt.k = k;
        std::size_t covered = 0;
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            const auto w = makeWorkload(seed, 12, 60, seed % 2 == 0, opt);
            expectBoundsMatchReference(w.folded, w.candidates, w.ids);
            for (const auto& c : w.candidates) covered += c.degree() == k;
        }
        EXPECT_GT(covered, 0u) << "no " << k << "-variable candidates";
    }
}

TEST(CandidateBounds, SkippedCandidatesGetNothing) {
    GroupOptions opt;
    const auto w = makeWorkload(3, 10, 30, false, opt);
    ASSERT_GT(w.candidates.size(), 1u);
    std::vector<char> keep(w.candidates.size(), 1);
    keep[0] = 0;
    const auto got =
        probe::candidateBounds(w.folded.terms(), w.candidates, w.ids, keep);
    EXPECT_EQ(got.bound[0], 0u);
    EXPECT_TRUE(got.touched[0].empty());
    const auto all =
        probe::candidateBounds(w.folded.terms(), w.candidates, w.ids);
    for (std::size_t i = 1; i < w.candidates.size(); ++i)
        EXPECT_EQ(got.bound[i], all.bound[i]);
}

TEST(CandidateBounds, MatchReferenceOnRealSweeps) {
    // Replay the first sweeps of adder3_9 (hundreds of thousands of
    // terms, few candidates) and every sweep of mul4 (thousands of
    // candidates, and identities from its third iteration on).
    for (const auto& [name, iterations] :
         {std::pair{"adder3_9", 3}, std::pair{"mul4", 256}}) {
        const auto bench = circuits::makeNamedBenchmark(name);
        ASSERT_TRUE(bench.has_value());
        VarTable vt;
        const auto outs = bench->anf(vt);
        DecomposeOptions dopt;
        dopt.maxIterations = static_cast<std::size_t>(iterations);
        std::size_t sweeps = 0;
        (void)decompose(vt, outs, bench->outputNames, dopt,
                        [&](const Anf& f, const std::vector<anf::VarSet>& c,
                            const ring::IdentityDb& ids) {
                            ++sweeps;
                            expectBoundsMatchReference(f, c, ids);
                        });
        EXPECT_GT(sweeps, 0u) << name;
    }
}

TEST(CandidateBounds, NeverExceedTheProbedScore) {
    for (const std::size_t k :
         {std::size_t{4}, std::size_t{6}, std::size_t{8}}) {
        GroupOptions opt;
        opt.k = k;
        std::size_t checked = 0;
        for (std::uint64_t seed = 71; seed <= 76; ++seed) {
            const auto w = makeWorkload(seed, 10, 30, seed % 2 == 0, opt);
            if (w.candidates.empty()) continue;
            const auto bounds = probe::candidateBounds(w.folded.terms(),
                                                       w.candidates, w.ids);
            probe::ProbeContext ctx;
            ctx.scoreHook = [&](std::size_t i, std::size_t score) {
                EXPECT_LE(bounds.bound[i], score)
                    << "k " << k << " seed " << seed << " candidate " << i;
                ++checked;
            };
            (void)ctx.sweep(w.folded, w.candidates, w.ids, opt);
        }
        EXPECT_GT(checked, 0u) << "k " << k;
    }
}

TEST(CandidateBounds, NullSpaceMergesMayCancelRests) {
    // s1·(c ⊕ s2) ⊕ x·(c ⊕ s3) under the identity s1·(s2 ⊕ s3) = 0: the
    // null-space merge leaves the one pair (s1 ⊕ x, c ⊕ s3), score 5, so
    // rest s2 vanishes and counting every distinct rest would bound 6.
    VarTable vt;
    for (const char* name : {"s1", "s2", "s3", "x", "c"})
        (void)vt.addDerived(name, 0);
    const Anf folded = anf::parse("s1*c ^ s1*s2 ^ x*c ^ x*s3", vt);
    ring::IdentityDb ids;
    ids.add(anf::parse("s1*s2 ^ s1*s3", vt));
    anf::VarSet group;
    group.insert(*vt.find("s1"));
    group.insert(*vt.find("x"));
    const std::vector<anf::VarSet> candidates{group};
    const auto score =
        probe::referenceSweep(folded, candidates, ids, {}).score;
    EXPECT_EQ(score, 5u);
    const auto bounds = probe::candidateBounds(folded.terms(), candidates, ids);
    EXPECT_LE(bounds.bound[0], score);
    expectBoundsMatchReference(folded, candidates, ids);
}

/// One sweep's inputs, as a real decompose ran it.
struct CapturedSweep {
    Anf folded;
    std::vector<anf::VarSet> candidates;
    ring::IdentityDb ids;
};

/// Every sweep of the first `iterations` iterations of decomposing the
/// registry benchmark `name` (variables in `vt`).
std::vector<CapturedSweep> captureSweeps(const char* name,
                                         std::size_t iterations,
                                         VarTable& vt) {
    std::vector<CapturedSweep> sweeps;
    const auto bench = circuits::makeNamedBenchmark(name);
    if (!bench) return sweeps;
    const auto outs = bench->anf(vt);
    DecomposeOptions dopt;
    dopt.maxIterations = iterations;
    (void)decompose(vt, outs, bench->outputNames, dopt,
                    [&](const Anf& f, const std::vector<anf::VarSet>& c,
                        const ring::IdentityDb& i) {
                        sweeps.push_back({f, c, i});
                    });
    return sweeps;
}

TEST(CandidateBounds, NeverExceedTheScoreOnRealSweeps) {
    // Replay real sweeps, identity-touching candidates included, and
    // score every distinct candidate: chunks of at most kWaveSize
    // candidates run in one wave, so nothing is pruned.
    std::size_t withIds = 0;
    for (const auto& [name, iterations] :
         {std::pair{"counter16", 256u}, std::pair{"lod32", 256u},
          std::pair{"majority15", 256u}, std::pair{"lzd16", 256u},
          std::pair{"comparator8", 256u}, std::pair{"mul4", 4u}}) {
        VarTable vt;
        const auto sweeps = captureSweeps(name, iterations, vt);
        ASSERT_FALSE(sweeps.empty()) << name;

        GroupOptions opt;
        opt.probeMergeBudget = kDefaultMergeAttemptBudget;
        probe::ProbeContext ctx;
        std::size_t checked = 0;
        for (const auto& sw : sweeps) {
            std::vector<anf::VarSet> distinct;
            for (const auto& c : sw.candidates)
                if (std::find(distinct.begin(), distinct.end(), c) ==
                    distinct.end())
                    distinct.push_back(c);
            const auto bounds =
                probe::candidateBounds(sw.folded.terms(), distinct, sw.ids);
            const anf::VarSet dividing = sw.ids.dividingVars();
            for (std::size_t at = 0; at < distinct.size();
                 at += probe::kWaveSize) {
                const std::vector<anf::VarSet> chunk(
                    distinct.begin() + static_cast<std::ptrdiff_t>(at),
                    distinct.begin() + static_cast<std::ptrdiff_t>(std::min(
                                           distinct.size(),
                                           at + probe::kWaveSize)));
                ctx.scoreHook = [&](std::size_t i, std::size_t score) {
                    EXPECT_LE(bounds.bound[at + i], score)
                        << name << " candidate "
                        << anf::setToString(chunk[i], vt);
                    ++checked;
                    withIds += chunk[i].intersects(dividing);
                };
                (void)ctx.sweep(sw.folded, chunk, sw.ids, opt);
            }
        }
        EXPECT_GT(checked, 0u) << name;
    }
    EXPECT_GT(withIds, 0u) << "no identity-touching candidate scored";
}

// ---- speculative lanes ------------------------------------------------------

/// A sweep as seen from outside: its outcome, the scoreHook sequence and
/// its probe counts.
struct SweepRecord {
    probe::SweepOutcome out;
    std::vector<std::pair<std::size_t, std::size_t>> hook;
    std::uint64_t probed = 0;
    std::uint64_t pruned = 0;
};

SweepRecord recordSweep(probe::ProbeContext& ctx, const CapturedSweep& sw,
                        const GroupOptions& opt) {
    SweepRecord r;
    const probe::ProbeStats before = ctx.stats();
    ctx.scoreHook = [&](std::size_t i, std::size_t score) {
        r.hook.emplace_back(i, score);
    };
    r.out = ctx.sweep(sw.folded, sw.candidates, sw.ids, opt);
    ctx.scoreHook = nullptr;
    r.probed = ctx.stats().probed - before.probed;
    r.pruned = ctx.stats().pruned - before.pruned;
    return r;
}

void expectSameRecord(const SweepRecord& want, const SweepRecord& got) {
    expectSameOutcome(want.out, got.out);
    EXPECT_EQ(want.hook, got.hook);
    EXPECT_EQ(want.probed, got.probed);
    EXPECT_EQ(want.pruned, got.pruned);
    ASSERT_EQ(want.out.winnerBasis.has_value(),
              got.out.winnerBasis.has_value());
    if (!want.out.winnerBasis) return;
    const auto& a = *want.out.winnerBasis;
    const auto& b = *got.out.winnerBasis;
    ASSERT_EQ(a.pairs.size(), b.pairs.size());
    for (std::size_t i = 0; i < a.pairs.size(); ++i) {
        EXPECT_EQ(a.pairs[i].first, b.pairs[i].first);
        EXPECT_EQ(a.pairs[i].second, b.pairs[i].second);
    }
    EXPECT_EQ(a.untouched, b.untouched);
}

TEST(ProbeLanes, CursorSweepMatchesOneLaneAndReferenceOnRealSweeps) {
    // Every captured sweep at 1, 2 and 4 lanes, at the default merge
    // budget and at one that truncates probes: winner, score, budget
    // flag, winner basis, scoreHook sequence and probed/pruned all equal
    // the 1-lane sweep's. A prefix of each mul4 and counter16 sweep (one
    // full wave and part of a second, so the bound pass runs and pruning
    // can fire) is also checked against the reference, which rebuilds
    // every probe from scratch and is too slow for adder3_9's terms.
    std::uint64_t helperProbes = 0;
    for (const auto& [name, iterations] :
         {std::pair{"mul4", 5u}, std::pair{"counter16", 256u},
          std::pair{"adder3_9", 3u}}) {
        VarTable vt;
        const auto sweeps = captureSweeps(name, iterations, vt);
        ASSERT_FALSE(sweeps.empty()) << name;
        for (const std::size_t budget :
             {kDefaultMergeAttemptBudget, std::size_t{2}}) {
            GroupOptions opt;
            opt.probeMergeBudget = budget;
            probe::ProbeContext one;
            probe::ProbeContext two(lanePool(2));
            probe::ProbeContext four(lanePool(4));
            for (const auto& sw : sweeps) {
                SCOPED_TRACE(std::string(name) + " budget " +
                             std::to_string(budget));
                const auto want = recordSweep(one, sw, opt);
                expectSameRecord(want, recordSweep(two, sw, opt));
                expectSameRecord(want, recordSweep(four, sw, opt));

                if (sw.folded.termCount() > 20000) continue;
                CapturedSweep prefix = sw;
                prefix.candidates.resize(
                    std::min<std::size_t>(prefix.candidates.size(), 20));
                probe::ProbeContext fresh(lanePool(4));
                const auto got = fresh.sweep(prefix.folded, prefix.candidates,
                                             prefix.ids, opt);
                const auto ref = probe::referenceSweep(
                    prefix.folded, prefix.candidates, prefix.ids, opt);
                expectSameOutcome(ref, got);
            }
            EXPECT_EQ(one.stats().helperProbes, 0u);
            EXPECT_EQ(one.stats().speculativeDiscards, 0u);
            helperProbes += two.stats().helperProbes +
                            four.stats().helperProbes;
        }
    }
    // The pools' helper workers did take part.
    EXPECT_GT(helperProbes, 0u);
}

/// Occupies `workers` workers of a pool until released. The tasks own
/// what they touch, so the blocker may go before they finish.
class PoolBlocker {
public:
    PoolBlocker(util::ThreadPool& pool, std::size_t workers) {
        auto started = std::make_shared<std::atomic<std::size_t>>(0);
        for (std::size_t t = 0; t < workers; ++t)
            pool.post([started, gate = gate_] {
                started->fetch_add(1);
                gate.wait();
            });
        while (started->load() < workers) std::this_thread::yield();
    }
    void release() { release_.set_value(); }

private:
    std::promise<void> release_;
    std::shared_future<void> gate_ = release_.get_future().share();
};

TEST(ProbeLanes, StarvedPoolLeavesTheSweepToItsOwnThread) {
    // Every pool worker is blocked: no ticket ever starts, and the sweep
    // runs alone on its own thread to the same result.
    GroupOptions opt;
    const auto w = makeWorkload(81, 12, 60, true, opt);
    ASSERT_GT(w.candidates.size(), probe::kWaveSize);
    const CapturedSweep sw{w.folded, w.candidates, w.ids};
    auto pool = std::make_shared<util::ThreadPool>(4);
    PoolBlocker blocker(*pool, 4);
    probe::ProbeContext alone;
    probe::ProbeContext starved(pool);
    expectSameRecord(recordSweep(alone, sw, opt),
                     recordSweep(starved, sw, opt));
    EXPECT_EQ(starved.stats().helperProbes, 0u);
    blocker.release();
}

TEST(ProbeLanes, QueuedTicketsOutliveTheirContext) {
    // The context (and its workspaces) is destroyed while its sweeps'
    // tickets still wait in the queue; released afterwards, the pool
    // starts them, and they must return without touching the context.
    GroupOptions opt;
    auto pool = std::make_shared<util::ThreadPool>(4);
    PoolBlocker blocker(*pool, 4);
    {
        probe::ProbeContext ctx(pool);
        for (std::uint64_t seed = 82; seed <= 84; ++seed) {
            const auto w = makeWorkload(seed, 12, 60, true, opt);
            (void)ctx.sweep(w.folded, w.candidates, w.ids, opt);
        }
        EXPECT_EQ(ctx.stats().helperProbes, 0u);
    }
    blocker.release();
    pool.reset();  // runs the stale tickets, then joins
}

TEST(CandidateBounds, LanesMatchOneLane) {
    // The term index by blocks of terms (adder3_9 has hundreds of
    // thousands) and the candidates by chunks, over 4 lanes, give exactly
    // the 1-lane pass.
    util::ThreadPool pool(3);
    const auto expectSame = [&](std::span<const Monomial> terms,
                                const std::vector<anf::VarSet>& candidates,
                                const ring::IdentityDb& ids,
                                std::span<const char> keep) {
        const auto want = probe::candidateBounds(terms, candidates, ids, keep);
        const auto got =
            probe::candidateBounds(terms, candidates, ids, keep, &pool, 4);
        EXPECT_EQ(want.bound, got.bound);
        EXPECT_EQ(want.untouchedLits, got.untouchedLits);
        EXPECT_EQ(want.touched, got.touched);
    };
    for (const auto& [name, iterations] :
         {std::pair{"mul4", 5u}, std::pair{"adder3_9", 3u}}) {
        VarTable vt;
        for (const auto& sw : captureSweeps(name, iterations, vt))
            expectSame(sw.folded.terms(), sw.candidates, sw.ids, {});
    }
    GroupOptions opt;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto w = makeWorkload(seed, 12, 60, seed % 2 == 0, opt);
        std::vector<char> keep(w.candidates.size(), 1);
        for (std::size_t i = 0; i < keep.size(); i += 3) keep[i] = 0;
        expectSame(w.folded.terms(), w.candidates, w.ids, keep);
    }
}

// ---- decompose-level determinism -------------------------------------------

void expectSameDecomposition(const Decomposition& a, const Decomposition& b) {
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.budgetExhausted, b.budgetExhausted);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        EXPECT_EQ(a.blocks[i].level, b.blocks[i].level);
        EXPECT_EQ(a.blocks[i].group, b.blocks[i].group);
        ASSERT_EQ(a.blocks[i].outputs.size(), b.blocks[i].outputs.size());
        for (std::size_t j = 0; j < a.blocks[i].outputs.size(); ++j) {
            EXPECT_EQ(a.blocks[i].outputs[j].var, b.blocks[i].outputs[j].var);
            EXPECT_EQ(a.blocks[i].outputs[j].expr,
                      b.blocks[i].outputs[j].expr);
        }
        EXPECT_EQ(a.blocks[i].reduced, b.blocks[i].reduced);
    }
    EXPECT_EQ(a.residualOutputs, b.residualOutputs);
}

TEST(ProbeDecompose, IdenticalAcrossProbeThreadSettings) {
    const auto bench = circuits::makeNamedBenchmark("majority7");
    ASSERT_TRUE(bench.has_value());
    std::vector<Decomposition> runs;
    std::vector<std::vector<Anf>> expanded;
    for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                      std::size_t{4}}) {
        VarTable vt;
        const auto outs = bench->anf(vt);
        DecomposeOptions opt;
        opt.probePool = lanePool(threads);
        runs.push_back(decompose(vt, outs, bench->outputNames, opt));
        expanded.push_back(runs.back().expandedOutputs(vt));
        EXPECT_EQ(expanded.back(), outs) << "threads " << threads;
    }
    expectSameDecomposition(runs[0], runs[1]);
    expectSameDecomposition(runs[0], runs[2]);
    EXPECT_EQ(expanded[0], expanded[1]);
    EXPECT_EQ(expanded[0], expanded[2]);
}

TEST(ProbeDecompose, BudgetedRunsIdenticalAcrossProbeThreadSettings) {
    // Truncation is the adversarial case for parallel determinism: the
    // exhausted flag and the (possibly different) winner must match the
    // sequential run exactly.
    const auto bench = circuits::makeNamedBenchmark("counter8");
    ASSERT_TRUE(bench.has_value());
    std::vector<Decomposition> runs;
    for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                      std::size_t{4}}) {
        VarTable vt;
        const auto outs = bench->anf(vt);
        DecomposeOptions opt;
        opt.probePool = lanePool(threads);
        opt.mergeAttemptBudget = 2;  // binds in probes and iterations
        runs.push_back(decompose(vt, outs, bench->outputNames, opt));
        EXPECT_EQ(runs.back().expandedOutputs(vt), outs);
    }
    expectSameDecomposition(runs[0], runs[1]);
    expectSameDecomposition(runs[0], runs[2]);
}

TEST(ProbeDecompose, ProbeStatsAreReported) {
    const auto bench = circuits::makeNamedBenchmark("majority15");
    ASSERT_TRUE(bench.has_value());
    VarTable vt;
    const auto outs = bench->anf(vt);
    const auto d = decompose(vt, outs, bench->outputNames, {});
    EXPECT_GT(d.probe.sweeps, 0u);
    EXPECT_GT(d.probe.candidates, 0u);
    EXPECT_GT(d.probe.probed, 0u);
    EXPECT_GT(d.probe.basisReuses, 0u);
    EXPECT_GT(d.probe.sweepMs, 0.0);
    EXPECT_EQ(d.probe.candidates,
              d.probe.deduped + d.probe.pruned + d.probe.probed);
}

TEST(ProbeDecompose, CaptureHookSeesEverySweep) {
    const auto bench = circuits::makeNamedBenchmark("majority7");
    ASSERT_TRUE(bench.has_value());
    VarTable vt;
    const auto outs = bench->anf(vt);
    std::size_t calls = 0;
    const auto d = decompose(
        vt, outs, bench->outputNames, {},
        [&](const Anf&, const std::vector<anf::VarSet>& c,
            const ring::IdentityDb&) {
            ++calls;
            EXPECT_FALSE(c.empty());
        });
    EXPECT_EQ(calls, d.probe.sweeps);
}

TEST(GroupCandidates, ForcedPathsSkipProbing) {
    // Single-integer circuits force the heuristic candidate without
    // probing; ≤ k remaining derived variables force the full set.
    VarTable vt;
    std::vector<Var> a;
    for (int i = 0; i < 8; ++i)
        a.push_back(vt.addInput("a" + std::to_string(i), 0, i));
    Anf e;
    for (const Var v : a) e ^= Anf::var(v);
    ring::IdentityDb ids;
    const auto gen = groupCandidates(e, vt, {}, {.k = 4});
    EXPECT_TRUE(gen.candidates.empty());
    EXPECT_FALSE(gen.forced.isOne());

    VarTable vt2;
    const Var s1 = vt2.addDerived("s1", 0);
    const Var s2 = vt2.addDerived("s2", 0);
    const auto gen2 = groupCandidates(Anf::var(s1) ^ Anf::var(s2), vt2, {},
                                      {.k = 4});
    EXPECT_TRUE(gen2.candidates.empty());
    EXPECT_TRUE(gen2.forced.contains(s1));
    EXPECT_TRUE(gen2.forced.contains(s2));
}

}  // namespace
}  // namespace pd::core
