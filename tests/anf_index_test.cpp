// Differential tests for the indexed-ANF hot-path kernel.
//
// Every IndexedAnf operation (xor, product, substitution, spanning-set
// construction, sum-membership with witness) is fuzz-checked against the
// reference Anf implementation: the sorted-vector domain is the oracle,
// the bitset-over-ids domain must agree exactly — including witness
// CHOICE, not just witness validity, because findBasis results must be
// byte-identical whichever path computed them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "anf/anf.hpp"
#include "anf/indexed.hpp"
#include "anf/ops.hpp"
#include "core/basis.hpp"
#include "core/pairlist.hpp"
#include "ring/identity_db.hpp"
#include "ring/membership.hpp"
#include "ring/nullspace.hpp"
#include "util/error.hpp"

namespace pd {
namespace {

using anf::Anf;
using anf::IndexedAnf;
using anf::Monomial;
using anf::MonomialIndexer;

/// Deterministic xorshift — fuzz inputs must be reproducible.
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

Monomial randomMonomial(Rng& rng, anf::Var maxVar, std::size_t maxDeg) {
    Monomial m;
    const std::size_t deg = rng.below(maxDeg + 1);
    for (std::size_t i = 0; i < deg; ++i)
        m.insert(static_cast<anf::Var>(rng.below(maxVar)));
    return m;
}

Anf randomAnf(Rng& rng, anf::Var maxVar, std::size_t maxTerms,
              std::size_t maxDeg = 3) {
    std::vector<Monomial> terms;
    const std::size_t n = rng.below(maxTerms + 1);
    for (std::size_t i = 0; i < n; ++i)
        terms.push_back(randomMonomial(rng, maxVar, maxDeg));
    return Anf::fromTerms(std::move(terms));
}

TEST(AnfIndexTest, RoundTripPreservesCanonicalForm) {
    Rng rng(17);
    for (int it = 0; it < 200; ++it) {
        MonomialIndexer ix;
        const Anf e = randomAnf(rng, 12, 10);
        const auto indexed = IndexedAnf::fromAnf(ix, e);
        EXPECT_EQ(indexed.toAnf(ix), e);
        EXPECT_EQ(indexed.termCount(), e.termCount());
        EXPECT_EQ(indexed.isZero(), e.isZero());
    }
}

TEST(AnfIndexTest, XorMatchesReference) {
    Rng rng(23);
    for (int it = 0; it < 200; ++it) {
        MonomialIndexer ix;
        const Anf a = randomAnf(rng, 12, 10);
        const Anf b = randomAnf(rng, 12, 10);
        auto ia = IndexedAnf::fromAnf(ix, a);
        const auto ib = IndexedAnf::fromAnf(ix, b);
        ia ^= ib;
        EXPECT_EQ(ia.toAnf(ix), a ^ b);
    }
}

TEST(AnfIndexTest, XorAcrossDifferentWidths) {
    MonomialIndexer ix;
    const Anf small = Anf::var(0);
    auto a = IndexedAnf::fromAnf(ix, small);
    // Grow the id space after `a` was encoded.
    const Anf big = Anf::var(1) * Anf::var(2) ^ Anf::var(3);
    auto b = IndexedAnf::fromAnf(ix, big);
    b ^= a;  // wider ^= narrower
    EXPECT_EQ(b.toAnf(ix), big ^ small);
    auto c = IndexedAnf::fromAnf(ix, small);
    c ^= IndexedAnf::fromAnf(ix, big);  // narrower ^= wider
    EXPECT_EQ(c.toAnf(ix), big ^ small);
    EXPECT_TRUE(IndexedAnf{} == IndexedAnf{});
    EXPECT_TRUE(b == c);
    EXPECT_EQ(b.hash(), c.hash());
}

TEST(AnfIndexTest, ProductMatchesReference) {
    Rng rng(31);
    for (int it = 0; it < 200; ++it) {
        MonomialIndexer ix;
        const Anf a = randomAnf(rng, 10, 8);
        const Anf b = randomAnf(rng, 10, 8);
        const auto ia = IndexedAnf::fromAnf(ix, a);
        const auto ib = IndexedAnf::fromAnf(ix, b);
        EXPECT_EQ(indexedProduct(ix, ia, ib).toAnf(ix), a * b);
    }
}

TEST(AnfIndexTest, ProductMemoIsConsistentAcrossQueries) {
    // Re-using one indexer across many products exercises memo hits.
    Rng rng(37);
    MonomialIndexer ix;
    for (int it = 0; it < 100; ++it) {
        const Anf a = randomAnf(rng, 8, 6);
        const Anf b = randomAnf(rng, 8, 6);
        const auto ia = IndexedAnf::fromAnf(ix, a);
        const auto ib = IndexedAnf::fromAnf(ix, b);
        EXPECT_EQ(indexedProduct(ix, ia, ib).toAnf(ix), a * b);
    }
}

TEST(AnfIndexTest, SubstituteMatchesReference) {
    Rng rng(41);
    for (int it = 0; it < 100; ++it) {
        MonomialIndexer ix;
        const Anf e = randomAnf(rng, 10, 8);
        std::unordered_map<anf::Var, Anf> map;
        std::unordered_map<anf::Var, IndexedAnf> imap;
        const std::size_t nsub = 1 + rng.below(3);
        for (std::size_t i = 0; i < nsub; ++i) {
            const auto v = static_cast<anf::Var>(rng.below(10));
            const Anf repl = randomAnf(rng, 10, 4);
            if (map.emplace(v, repl).second)
                imap.emplace(v, IndexedAnf::fromAnf(ix, repl));
        }
        const auto ie = IndexedAnf::fromAnf(ix, e);
        EXPECT_EQ(indexedSubstitute(ix, ie, imap).toAnf(ix),
                  anf::substitute(e, map));
    }
}

/// anf::substitute through a fresh indexer, whole expression at once.
Anf indexedOracle(const Anf& e, const std::unordered_map<anf::Var, Anf>& map) {
    MonomialIndexer ix;
    std::unordered_map<anf::Var, IndexedAnf> imap;
    for (const auto& [v, ex] : map)
        imap.emplace(v, IndexedAnf::fromAnf(ix, ex));
    return indexedSubstitute(ix, IndexedAnf::fromAnf(ix, e), imap).toAnf(ix);
}

TEST(AnfIndexTest, SubstituteHitsNoneOneOrAllTerms) {
    Rng rng(43);
    for (int it = 0; it < 100; ++it) {
        // Terms over variables 0..7; replacements draw from 0..11.
        const Anf e = randomAnf(rng, 8, 10);
        if (e.isZero()) continue;
        const Anf repl = randomAnf(rng, 12, 4);

        // None: a variable no term holds leaves e as is.
        const std::unordered_map<anf::Var, Anf> none{{9, repl}};
        EXPECT_EQ(anf::substitute(e, none), e);

        // One: a variable of one term that no other term holds.
        for (const auto& t : e.terms()) {
            const auto vars = t.vars();
            const auto holders = [&](anf::Var v) {
                return std::count_if(
                    e.terms().begin(), e.terms().end(),
                    [&](const Monomial& u) { return u.contains(v); });
            };
            const auto lone =
                std::find_if(vars.begin(), vars.end(),
                             [&](anf::Var v) { return holders(v) == 1; });
            if (lone == vars.end()) continue;
            const std::unordered_map<anf::Var, Anf> one{{*lone, repl}};
            EXPECT_EQ(anf::substitute(e, one), indexedOracle(e, one));
            break;
        }

        // All: every variable replaced, so every non-constant term is hit.
        std::unordered_map<anf::Var, Anf> all;
        for (anf::Var v = 0; v < 8; ++v) all.emplace(v, randomAnf(rng, 12, 3));
        EXPECT_EQ(anf::substitute(e, all), indexedOracle(e, all));
    }
}

ring::NullSpaceRing randomRing(Rng& rng, std::size_t maxGens) {
    ring::NullSpaceRing r;
    const std::size_t n = rng.below(maxGens + 1);
    for (std::size_t i = 0; i < n; ++i)
        r.addGenerator(randomAnf(rng, 8, 4, 2));
    return r;
}

TEST(AnfIndexTest, IndexedSpanningSetMatchesReferenceElementwise) {
    Rng rng(47);
    for (int it = 0; it < 100; ++it) {
        MonomialIndexer ix;
        const auto ring = randomRing(rng, 4);
        const auto ref = ring.spanningSet(64);
        const auto& indexed = ring.indexedSpanningSet(ix, 64);
        ASSERT_EQ(indexed.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(indexed[i].expr, ref[i]) << "element " << i;
            // termIds must be the expression in canonical order.
            ASSERT_EQ(indexed[i].termIds.size(), ref[i].termCount());
            for (std::size_t t = 0; t < indexed[i].termIds.size(); ++t)
                EXPECT_EQ(ix.monomialAt(indexed[i].termIds[t]),
                          ref[i].terms()[t]);
        }
        // Cached: second call returns the same object state.
        const auto& again = ring.indexedSpanningSet(ix, 64);
        EXPECT_EQ(&again, &indexed);
    }
}

TEST(AnfIndexTest, SpanningSetCacheInvalidatedByNewGenerator) {
    MonomialIndexer ix;
    ring::NullSpaceRing r;
    r.addGenerator(Anf::var(1));
    EXPECT_EQ(r.indexedSpanningSet(ix, 64).size(), r.spanningSet(64).size());
    r.addGenerator(Anf::var(2) ^ Anf::var(3));
    const auto& span = r.indexedSpanningSet(ix, 64);
    const auto ref = r.spanningSet(64);
    ASSERT_EQ(span.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(span[i].expr, ref[i]);
}

TEST(AnfIndexTest, MemberOfSumAgreesWithReferenceIncludingWitness) {
    Rng rng(53);
    std::size_t members = 0;
    for (int it = 0; it < 300; ++it) {
        const auto r1 = randomRing(rng, 3);
        const auto r2 = randomRing(rng, 3);
        // Mix guaranteed members (XOR of span elements) with random
        // targets so both outcomes are exercised.
        Anf target;
        if (it % 2 == 0) {
            target = randomAnf(rng, 8, 6, 2);
        } else {
            for (const auto& e : r1.spanningSet(64))
                if (rng.below(2)) target ^= e;
            for (const auto& e : r2.spanningSet(64))
                if (rng.below(2)) target ^= e;
        }
        const auto ref = ring::memberOfSum(target, r1, r2, 64);
        ring::MembershipContext ctx;
        const auto fast = ring::memberOfSum(ctx, target, r1, r2, 64);
        ASSERT_EQ(fast.member, ref.member) << "iteration " << it;
        if (ref.member) {
            ++members;
            // The exact same witness, not merely a valid one.
            EXPECT_EQ(fast.part1, ref.part1);
            EXPECT_EQ(fast.part2, ref.part2);
            EXPECT_EQ(fast.part1 ^ fast.part2, target);
        }
    }
    EXPECT_GT(members, 50u);  // the generator must actually hit members
}

TEST(AnfIndexTest, MemberOfSumSharedContextReusesCaches) {
    Rng rng(59);
    ring::MembershipContext ctx;
    for (int it = 0; it < 100; ++it) {
        const auto r1 = randomRing(rng, 3);
        const auto r2 = randomRing(rng, 3);
        const Anf target = randomAnf(rng, 8, 6, 2);
        const auto ref = ring::memberOfSum(target, r1, r2, 64);
        const auto fast = ring::memberOfSum(ctx, target, r1, r2, 64);
        ASSERT_EQ(fast.member, ref.member);
        if (ref.member) {
            EXPECT_EQ(fast.part1, ref.part1);
            EXPECT_EQ(fast.part2, ref.part2);
        }
    }
}

// ---------------------------------------------------------------------------
// Reference findBasis pipeline in the Anf domain — what findBasis computed
// before the indexed kernel: the same split, the same algebraic and
// null-space merges over sorted-vector sides with the context-free
// membership oracle, and the same (first, second) sort. No merge memo and
// no budget: every null-space attempt is solved.
// ---------------------------------------------------------------------------

struct RefPair {
    Anf first;
    Anf second;
    ring::NullSpaceRing ns;  ///< known subring of N(first)
};
using RefPairList = std::vector<RefPair>;

void refDropNullPairs(RefPairList& pairs) {
    std::erase_if(pairs, [](const RefPair& p) {
        return p.first.isZero() || p.second.isZero();
    });
}

/// Groups pairs by equal second (bySecond) or equal first and XORs the
/// other sides, in first-occurrence order. Returns true when the list
/// shrank.
bool refMergeBy(RefPairList& pairs, bool bySecond) {
    std::unordered_map<Anf, std::vector<std::size_t>, anf::AnfHash> by;
    const auto key = [&](std::size_t i) -> const Anf& {
        return bySecond ? pairs[i].second : pairs[i].first;
    };
    for (std::size_t i = 0; i < pairs.size(); ++i) by[key(i)].push_back(i);
    if (by.size() == pairs.size()) return false;

    RefPairList merged;
    std::vector<char> used(pairs.size(), 0);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (used[i]) continue;
        RefPair acc = pairs[i];
        used[i] = 1;
        for (const std::size_t j : by[key(i)]) {
            if (used[j]) continue;
            used[j] = 1;
            if (bySecond) {
                acc.first ^= pairs[j].first;
                acc.ns = ring::NullSpaceRing::productClosure(acc.ns,
                                                             pairs[j].ns);
            } else {
                acc.second ^= pairs[j].second;
            }
        }
        merged.push_back(std::move(acc));
    }
    pairs = std::move(merged);
    refDropNullPairs(pairs);
    return true;
}

void refMergeAlgebraic(RefPairList& pairs) {
    bool changed = true;
    while (changed) {
        changed = false;
        if (refMergeBy(pairs, /*bySecond=*/false)) changed = true;
        if (refMergeBy(pairs, /*bySecond=*/true)) changed = true;
    }
}

bool refMergeNullspace(RefPairList& pairs,
                       const core::FindBasisOptions& opt) {
    if (pairs.size() > opt.maxPairsForNullspace) return false;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        for (std::size_t j = i + 1; j < pairs.size(); ++j) {
            if (pairs[i].ns.trivial() && pairs[j].ns.trivial()) continue;
            const Anf diff = pairs[i].second ^ pairs[j].second;
            const auto m = ring::memberOfSum(diff, pairs[i].ns, pairs[j].ns,
                                             opt.maxSpan);
            if (!m.member) continue;
            RefPair merged;
            merged.first = pairs[i].first ^ pairs[j].first;
            merged.second = pairs[i].second ^ m.part1;
            merged.ns =
                ring::NullSpaceRing::productClosure(pairs[i].ns, pairs[j].ns);
            pairs[i] = std::move(merged);
            pairs.erase(pairs.begin() + static_cast<std::ptrdiff_t>(j));
            refDropNullPairs(pairs);
            return true;
        }
    }
    return false;
}

core::BasisResult referenceFindBasis(const Anf& folded,
                                     const anf::VarSet& group,
                                     const ring::IdentityDb& ids,
                                     const core::FindBasisOptions& opt) {
    core::BasisResult out;
    const auto split = anf::splitByGroup(folded, group);
    out.untouched = split.untouched;

    std::vector<Monomial> order;
    std::vector<std::vector<Monomial>> rests;
    for (const auto& t : split.touching.terms()) {
        const Monomial g = t.restrictedTo(group);
        const Monomial r = t.without(group);
        std::size_t idx = order.size();
        for (std::size_t i = 0; i < order.size(); ++i)
            if (order[i] == g) {
                idx = i;
                break;
            }
        if (idx == order.size()) {
            order.push_back(g);
            rests.emplace_back();
        }
        rests[idx].push_back(r);
    }
    RefPairList pairs;
    for (std::size_t i = 0; i < order.size(); ++i) {
        RefPair p;
        p.first = Anf::term(order[i]);
        p.second = Anf::fromTerms(std::move(rests[i]));
        if (p.second.isZero()) continue;
        p.ns = ids.nullspaceOfMonomial(order[i], opt.complementNullspace);
        pairs.push_back(std::move(p));
    }
    refMergeAlgebraic(pairs);
    if (opt.useNullspaceMerging) {
        while (refMergeNullspace(pairs, opt)) refMergeAlgebraic(pairs);
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const RefPair& a, const RefPair& b) {
                  const auto c = a.first <=> b.first;
                  if (c != 0) return c < 0;
                  return a.second < b.second;
              });
    for (auto& p : pairs)
        out.pairs.push_back({std::move(p.first), std::move(p.second)});
    return out;
}

ring::IdentityDb randomIdentityDb(Rng& rng) {
    ring::IdentityDb db;
    const std::size_t n = rng.below(4);
    for (std::size_t i = 0; i < n; ++i) {
        const auto v = static_cast<anf::Var>(rng.below(6));
        const Anf e = randomAnf(rng, 8, 3, 2);
        db.add(Anf::var(v) * e);
    }
    return db;
}

TEST(AnfIndexTest, FindBasisMatchesReferencePipeline) {
    Rng rng(61);
    for (int it = 0; it < 150; ++it) {
        const Anf folded = randomAnf(rng, 10, 24);
        anf::VarSet group;
        const std::size_t k = 1 + rng.below(4);
        for (std::size_t i = 0; i < k; ++i)
            group.insert(static_cast<anf::Var>(rng.below(6)));
        const auto db = randomIdentityDb(rng);
        core::FindBasisOptions opt;
        const auto fast = core::findBasis(folded, group, db, opt);
        const auto ref = referenceFindBasis(folded, group, db, opt);
        EXPECT_EQ(fast.untouched, ref.untouched);
        ASSERT_EQ(fast.pairs.size(), ref.pairs.size()) << "iteration " << it;
        for (std::size_t i = 0; i < ref.pairs.size(); ++i) {
            EXPECT_EQ(fast.pairs[i].first, ref.pairs[i].first);
            EXPECT_EQ(fast.pairs[i].second, ref.pairs[i].second);
        }
        // The decomposition invariant regardless of merging depth.
        EXPECT_EQ(core::pairListValue(fast.pairs) ^ fast.untouched, folded);
        EXPECT_FALSE(fast.budgetExhausted);
    }
}

TEST(AnfIndexTest, BudgetedFindBasisIsSoundAndReportsTruncation) {
    Rng rng(67);
    std::size_t truncated = 0;
    for (int it = 0; it < 150; ++it) {
        const Anf folded = randomAnf(rng, 10, 24);
        anf::VarSet group;
        for (std::size_t i = 0; i < 3; ++i)
            group.insert(static_cast<anf::Var>(rng.below(6)));
        const auto db = randomIdentityDb(rng);
        core::FindBasisOptions opt;
        opt.mergeAttemptBudget = 1;
        const auto res = core::findBasis(folded, group, db, opt);
        // Whatever was or wasn't merged, the algebra must hold.
        EXPECT_EQ(core::pairListValue(res.pairs) ^ res.untouched, folded);
        EXPECT_LE(res.mergeAttempts, 1u);
        if (res.budgetExhausted) ++truncated;
    }
    EXPECT_GT(truncated, 0u);  // budget 1 must bite somewhere
}

TEST(MonomialIndexer, IdsStayDenseInFirstSeenOrderAcrossRehashes) {
    Rng rng(71);
    MonomialIndexer ix;
    std::vector<Monomial> seen;
    for (int i = 0; i < 5000; ++i) {
        const Monomial m = randomMonomial(rng, 40, 6);
        const auto at = std::find(seen.begin(), seen.end(), m);
        const auto want = static_cast<MonomialIndexer::Id>(at - seen.begin());
        if (at == seen.end()) seen.push_back(m);
        ASSERT_EQ(ix.indexOf(m), want) << "insert " << i;
    }
    ASSERT_GT(seen.size(), 1000u);  // grew through several rehashes
    ASSERT_EQ(ix.size(), seen.size());
    for (std::size_t id = 0; id < seen.size(); ++id) {
        EXPECT_EQ(ix.monomialAt(static_cast<MonomialIndexer::Id>(id)),
                  seen[id]);
        EXPECT_EQ(ix.indexOf(seen[id]), id);
    }
    EXPECT_EQ(ix.size(), seen.size());  // lookups never allocate
}

TEST(MonomialIndexer, ToBitsIsAsWideAsTheGrownIdSpace) {
    MonomialIndexer ix;
    (void)ix.indexOf(Monomial::var(9));  // a column e does not use
    const Anf e = Anf::var(1) ^ Anf::var(2) ^ (Anf::var(3) * Anf::var(4));
    const auto bits = ix.toBits(e);
    EXPECT_EQ(bits.size(), ix.size());
    EXPECT_EQ(ix.size(), 4u);
    EXPECT_EQ(bits.popcount(), 3u);
    EXPECT_EQ(IndexedAnf::fromAnf(ix, e).toAnf(ix), e);
    EXPECT_EQ(ix.toBits(Anf{}).size(), ix.size());
}

TEST(MonomialIndexer, HighVariableMonomialsSpreadOverSlots) {
    // Monomials that differ only in the top variables of the last word
    // (192 and 242–255) share Monomial::hash's low 14 bits, so `hash() &
    // mask` would home all of them in one slot. The intern table must
    // spread them (slots come from the high bits of a mixed hash) and
    // intern them all correctly.
    Rng rng(73);
    std::vector<Monomial> ms;
    MonomialIndexer ix;
    std::vector<char> lowUsed(std::size_t{1} << 14, 0);
    std::size_t lowDistinct = 0;
    while (ms.size() < 10000) {
        Monomial m = Monomial::var(5);
        if (rng.below(2)) m.insert(192);
        for (anf::Var v = 242; v < 256; ++v)
            if (rng.below(2)) m.insert(v);
        if (ix.indexOf(m) != ms.size()) continue;
        ms.push_back(m);
        auto& low = lowUsed[m.hash() & ((std::size_t{1} << 14) - 1)];
        lowDistinct += low == 0;
        low = 1;
    }
    EXPECT_LE(lowDistinct, 4u);  // the trap this guards against is real
    // The slot of a 2^14-slot table is the top 14 bits.
    std::vector<char> slotUsed(std::size_t{1} << 14, 0);
    std::size_t distinct = 0;
    for (const auto& m : ms) {
        auto& used = slotUsed[MonomialIndexer::mixedHash(m) >> (64 - 14)];
        distinct += used == 0;
        used = 1;
    }
    EXPECT_GT(distinct, 6000u);  // ~7500 expected for uniform slots
    for (std::size_t id = 0; id < ms.size(); ++id)
        EXPECT_EQ(ix.indexOf(ms[id]), id);
}

TEST(AnfIndexTest, MonomialInsertBeyondCapacityThrows) {
    Monomial m;
    EXPECT_THROW(m.insert(Monomial::kMaxVars), Error);
    EXPECT_THROW(m.insert(Monomial::kMaxVars + 100), Error);
    // The monomial is untouched by the failed insert.
    EXPECT_TRUE(m.isOne());
    m.insert(Monomial::kMaxVars - 1);  // boundary id still fine
    EXPECT_TRUE(m.contains(Monomial::kMaxVars - 1));
}

}  // namespace
}  // namespace pd
