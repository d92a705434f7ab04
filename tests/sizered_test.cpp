// §5.4 size-reduction tests, including the paper's example.
#include <gtest/gtest.h>

#include "anf/parser.hpp"
#include "core/sizered.hpp"

namespace pd::core {
namespace {

using anf::Anf;
using anf::parse;
using anf::VarTable;

/// improveBasisSizeReduction on the indexed encoding of `pairs`, decoded
/// back.
std::size_t sizeReduce(PairList& pairs) {
    anf::MonomialIndexer ix;
    IPairList indexed = encodePairs(ix, pairs);
    const std::size_t applied = improveBasisSizeReduction(ix, indexed);
    pairs = decodePairs(ix, indexed);
    return applied;
}

TEST(SizeReduction, PaperExample) {
    // {(a, p⊕q⊕r⊕s⊕t), (b, p⊕q⊕r⊕s)} → {(a⊕b, p⊕q⊕r⊕s), (a, t)}.
    VarTable vt;
    PairList pairs;
    pairs.push_back({parse("a", vt), parse("p^q^r^s^t", vt)});
    pairs.push_back({parse("b", vt), parse("p^q^r^s", vt)});
    const Anf before = pairListValue(pairs);

    const auto applied = sizeReduce(pairs);
    EXPECT_GE(applied, 1u);
    EXPECT_EQ(pairListValue(pairs), before);
    EXPECT_EQ(pairListLiterals(pairs), 8u);  // paper's reduced size
    // One pair must be (a, t).
    bool sawAT = false;
    for (const auto& p : pairs)
        if (p.first == parse("a", vt) && p.second == parse("t", vt))
            sawAT = true;
    EXPECT_TRUE(sawAT);
}

TEST(SizeReduction, NoChangeWhenOptimal) {
    VarTable vt;
    PairList pairs;
    pairs.push_back({parse("a", vt), parse("p", vt)});
    pairs.push_back({parse("b", vt), parse("q", vt)});
    EXPECT_EQ(sizeReduce(pairs), 0u);
    EXPECT_EQ(pairs.size(), 2u);
}

TEST(SizeReduction, ValuePreservedOnChains) {
    // Several overlapping cofactors: whatever transforms fire, the value
    // must not change and the literal count must not grow.
    VarTable vt;
    PairList pairs;
    pairs.push_back({parse("a", vt), parse("p^q^r", vt)});
    pairs.push_back({parse("b", vt), parse("p^q", vt)});
    pairs.push_back({parse("c", vt), parse("p", vt)});
    const Anf before = pairListValue(pairs);
    const auto lits = pairListLiterals(pairs);
    sizeReduce(pairs);
    EXPECT_EQ(pairListValue(pairs), before);
    EXPECT_LE(pairListLiterals(pairs), lits);
}

TEST(SizeReduction, IdenticalSecondsCollapseViaMerge) {
    VarTable vt;
    PairList pairs;
    pairs.push_back({parse("a", vt), parse("p ^ q", vt)});
    pairs.push_back({parse("b", vt), parse("p ^ q", vt)});
    const Anf before = pairListValue(pairs);
    sizeReduce(pairs);
    // (a,Y),(b,Y) → transform gives (a^b, Y),(b, 0) → null pair dropped,
    // i.e. the algebraic merge result.
    EXPECT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairListValue(pairs), before);
}

}  // namespace
}  // namespace pd::core
