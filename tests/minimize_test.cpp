// §5.3 linear-dependence minimization tests, including the paper's LZD
// basis example.
#include <gtest/gtest.h>

#include "anf/parser.hpp"
#include "core/minimize.hpp"

namespace pd::core {
namespace {

using anf::Anf;
using anf::parse;
using anf::VarTable;

/// minimizeBasisLinear on the indexed encoding of `pairs`, decoded back.
std::size_t minimize(PairList& pairs) {
    anf::MonomialIndexer ix;
    IPairList indexed = encodePairs(ix, pairs);
    const std::size_t removed = minimizeBasisLinear(indexed);
    pairs = decodePairs(ix, indexed);
    return removed;
}

TEST(MinimizeBasis, DependentFirstsFoldSeconds) {
    // {(X1,Y1),(X2,Y2),(X1^X2,Y3)}: the third first is dependent → list
    // shrinks to two pairs and the value is preserved.
    VarTable vt;
    PairList pairs;
    pairs.push_back({parse("a", vt), parse("p", vt)});
    pairs.push_back({parse("b", vt), parse("q", vt)});
    pairs.push_back({parse("a ^ b", vt), parse("r", vt)});
    const Anf before = pairListValue(pairs);

    const auto removed = minimize(pairs);
    EXPECT_EQ(removed, 1u);
    EXPECT_EQ(pairs.size(), 2u);
    EXPECT_EQ(pairListValue(pairs), before);
}

TEST(MinimizeBasis, PaperLzdExample) {
    // Original LZD basis {V0, P00, P01, V0+P00, V0+P01} reduces to three
    // elements (paper §5.3).
    VarTable vt;
    const Anf v0 = parse("a0 ^ a1 ^ a2 ^ a3 ^ a0*a1 ^ a0*a2", vt);  // stand-in
    const Anf p00 = parse("a0 ^ a1*a2", vt);
    const Anf p01 = parse("a1 ^ a2*a3", vt);
    PairList pairs;
    pairs.push_back({v0, parse("y0", vt)});
    pairs.push_back({p00, parse("y1", vt)});
    pairs.push_back({p01, parse("y2", vt)});
    pairs.push_back({v0 ^ p00, parse("y3", vt)});
    pairs.push_back({v0 ^ p01, parse("y4", vt)});
    const Anf before = pairListValue(pairs);

    minimize(pairs);
    EXPECT_EQ(pairs.size(), 3u);
    EXPECT_EQ(pairListValue(pairs), before);
}

TEST(MinimizeBasis, DependentSecondsFoldFirsts) {
    VarTable vt;
    PairList pairs;
    pairs.push_back({parse("a", vt), parse("p", vt)});
    pairs.push_back({parse("b", vt), parse("q", vt)});
    pairs.push_back({parse("c", vt), parse("p ^ q", vt)});
    const Anf before = pairListValue(pairs);
    minimize(pairs);
    EXPECT_EQ(pairs.size(), 2u);
    EXPECT_EQ(pairListValue(pairs), before);
}

TEST(MinimizeBasis, IndependentListUntouched) {
    VarTable vt;
    PairList pairs;
    pairs.push_back({parse("a", vt), parse("p", vt)});
    pairs.push_back({parse("b", vt), parse("q", vt)});
    EXPECT_EQ(minimize(pairs), 0u);
    EXPECT_EQ(pairs.size(), 2u);
}

TEST(MinimizeBasis, CascadesToFixpoint) {
    // After removing one dependency, a new one may appear; ensure fixpoint.
    VarTable vt;
    PairList pairs;
    pairs.push_back({parse("a", vt), parse("p", vt)});
    pairs.push_back({parse("a ^ b", vt), parse("p", vt)});  // merge → b
    pairs.push_back({parse("b", vt), parse("q", vt)});
    const Anf before = pairListValue(pairs);
    minimize(pairs);
    EXPECT_LE(pairs.size(), 2u);
    EXPECT_EQ(pairListValue(pairs), before);
}

}  // namespace
}  // namespace pd::core
