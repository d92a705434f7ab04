// findBasis tests — the two worked examples of paper §5.2 plus invariants.
#include <gtest/gtest.h>

#include "anf/parser.hpp"
#include "core/basis.hpp"

namespace pd::core {
namespace {

using anf::Anf;
using anf::parse;
using anf::VarTable;

anf::VarSet groupOf(VarTable& vt, std::initializer_list<const char*> names) {
    anf::VarSet g;
    for (const char* n : names) g.insert(vt.findOrAddInput(n));
    return g;
}

/// Invariant: the pair list plus untouched part reconstruct the input.
void expectExact(const Anf& input, const BasisResult& res) {
    EXPECT_EQ(pairListValue(res.pairs) ^ res.untouched, input);
}

TEST(FindBasis, PaperExampleAlgebraic) {
    // X = ad ⊕ aef ⊕ bcd ⊕ abe ⊕ ace ⊕ bcef ⊕ xy, group {a,b,c}
    // → basis {a ⊕ bc, ab ⊕ ac} (paper §5.2, first example).
    VarTable vt;
    const Anf x = parse(
        "a*d ^ a*e*f ^ b*c*d ^ a*b*e ^ a*c*e ^ b*c*e*f ^ x*y", vt);
    const auto group = groupOf(vt, {"a", "b", "c"});
    ring::IdentityDb ids;
    const auto res = findBasis(x, group, ids);

    expectExact(x, res);
    EXPECT_EQ(res.untouched, parse("x*y", vt));
    ASSERT_EQ(res.pairs.size(), 2u);
    // Collect {first → second}.
    const Anf aORbc = parse("a ^ b*c", vt);
    const Anf abORac = parse("a*b ^ a*c", vt);
    bool sawFirst = false;
    bool sawSecond = false;
    for (const auto& p : res.pairs) {
        if (p.first == aORbc) {
            EXPECT_EQ(p.second, parse("d ^ e*f", vt));
            sawFirst = true;
        } else if (p.first == abORac) {
            EXPECT_EQ(p.second, parse("e", vt));
            sawSecond = true;
        }
    }
    EXPECT_TRUE(sawFirst);
    EXPECT_TRUE(sawSecond);
}

TEST(FindBasis, PaperExampleNullspace) {
    // X = ap⊕bp⊕cp⊕ax⊕ay⊕by⊕bz⊕cx⊕cz with identities az=bx=cy=0
    // merges to the single pair (a⊕b⊕c, p⊕x⊕y⊕z) (paper §5.2, second
    // example).
    VarTable vt;
    const Anf x = parse(
        "a*p ^ b*p ^ c*p ^ a*x ^ a*y ^ b*y ^ b*z ^ c*x ^ c*z", vt);
    const auto group = groupOf(vt, {"a", "b", "c"});
    ring::IdentityDb ids;
    ids.add(parse("a*z", vt));
    ids.add(parse("b*x", vt));
    ids.add(parse("c*y", vt));

    const auto res = findBasis(x, group, ids);
    ASSERT_EQ(res.pairs.size(), 1u);
    EXPECT_EQ(res.pairs[0].first, parse("a ^ b ^ c", vt));
    EXPECT_EQ(res.pairs[0].second, parse("p ^ x ^ y ^ z", vt));
    // NOTE: the merged pair's value differs from X only by expressions
    // annihilated by the firsts — check the merge is value-preserving
    // given the identities by multiplying out:
    const Anf reconstructed = res.pairs[0].first * res.pairs[0].second;
    Anf diff = reconstructed ^ x;
    // diff must lie in the ideal generated by the identities: here it is
    // az ^ bx ^ cz-ish combinations; verify by reducing with the concrete
    // identities az=bx=cy=0 → substitute each product by zero.
    // All monomials of diff must contain one of the identity pairs.
    for (const auto& mono : diff.terms()) {
        const bool covered =
            (mono.contains(*vt.find("a")) && mono.contains(*vt.find("z"))) ||
            (mono.contains(*vt.find("b")) && mono.contains(*vt.find("x"))) ||
            (mono.contains(*vt.find("c")) && mono.contains(*vt.find("y")));
        EXPECT_TRUE(covered);
    }
}

TEST(FindBasis, WithoutIdentitiesNoNullspaceMerge) {
    VarTable vt;
    const Anf x = parse(
        "a*p ^ b*p ^ c*p ^ a*x ^ a*y ^ b*y ^ b*z ^ c*x ^ c*z", vt);
    const auto group = groupOf(vt, {"a", "b", "c"});
    ring::IdentityDb ids;  // empty
    const auto res = findBasis(x, group, ids);
    EXPECT_EQ(res.pairs.size(), 3u);  // (a,…),(b,…),(c,…) stay separate
    expectExact(x, res);
}

TEST(FindBasis, MergeBySecondSharesAcrossOutputs) {
    // Two tagged outputs sharing the subexpression (a^b): pairs (a^b, K0·c)
    // and (a^b, K1·d) merge by equal first.
    VarTable vt;
    const Anf x = parse("a*K0*c ^ b*K0*c ^ a*K1*d ^ b*K1*d", vt);
    const auto group = groupOf(vt, {"a", "b"});
    ring::IdentityDb ids;
    const auto res = findBasis(x, group, ids);
    ASSERT_EQ(res.pairs.size(), 1u);
    EXPECT_EQ(res.pairs[0].first, parse("a ^ b", vt));
    EXPECT_EQ(res.pairs[0].second, parse("K0*c ^ K1*d", vt));
}

TEST(FindBasis, PureGroupMonomialGetsUnitCofactor) {
    VarTable vt;
    const Anf x = parse("a*b ^ a*c", vt);
    const auto group = groupOf(vt, {"a", "b", "c"});
    ring::IdentityDb ids;
    const auto res = findBasis(x, group, ids);
    ASSERT_EQ(res.pairs.size(), 1u);
    EXPECT_EQ(res.pairs[0].first, parse("a*b ^ a*c", vt));
    EXPECT_TRUE(res.pairs[0].second.isOne());
    EXPECT_TRUE(res.untouched.isZero());
}

TEST(FindBasis, DisjointGroupLeavesEverythingUntouched) {
    VarTable vt;
    const Anf x = parse("p*q ^ r", vt);
    const auto group = groupOf(vt, {"a", "b"});
    ring::IdentityDb ids;
    const auto res = findBasis(x, group, ids);
    EXPECT_TRUE(res.pairs.empty());
    EXPECT_EQ(res.untouched, x);
}

TEST(MergeAlgebraic, FixpointOnConstructedList) {
    VarTable vt;
    PairList pairs;
    pairs.push_back({parse("a", vt), parse("d", vt)});
    pairs.push_back({parse("a", vt), parse("e*f", vt)});
    pairs.push_back({parse("b*c", vt), parse("d", vt)});
    pairs.push_back({parse("b*c", vt), parse("e*f", vt)});
    const Anf before = pairListValue(pairs);
    anf::MonomialIndexer ix;
    IPairList indexed = encodePairs(ix, pairs);
    MergeContext ctx;
    mergeAlgebraic(indexed, ctx);
    pairs = decodePairs(ix, indexed);
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0].first, parse("a ^ b*c", vt));
    EXPECT_EQ(pairs[0].second, parse("d ^ e*f", vt));
    EXPECT_EQ(pairListValue(pairs), before);
}

TEST(PairListHelpers, LiteralsAndNullDrop) {
    VarTable vt;
    PairList pairs;
    pairs.push_back({parse("a ^ b", vt), parse("c*d", vt)});
    pairs.push_back({Anf::zero(), parse("c", vt)});
    EXPECT_EQ(pairListLiterals(pairs), 2u + 2u + 0u + 1u);
    anf::MonomialIndexer ix;
    IPairList indexed = encodePairs(ix, pairs);
    dropNullPairs(indexed);
    ASSERT_EQ(indexed.size(), 1u);
    EXPECT_EQ(indexed[0].first.toAnf(ix), parse("a ^ b", vt));
}

}  // namespace
}  // namespace pd::core
