// EXPERIMENTS.md freshness: the committed claims document must be
// byte-identical to what the generator (eval::experimentsDocument, run
// by `bench_experiments EXPERIMENTS.md`) renders from the current code.
// The verdict rules are checked on hand-made numbers on both sides of
// their comparisons, since freshness alone would pass a rule that always
// says "holds".
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "eval/claims.hpp"
#include "eval/report.hpp"

namespace pd::eval {
namespace {

TEST(Experiments, CommittedDocumentIsFresh) {
    std::ifstream in(PD_EXPERIMENTS_MD, std::ios::binary);
    ASSERT_TRUE(in) << "cannot read " << PD_EXPERIMENTS_MD;
    std::stringstream committed;
    committed << in.rdbuf();

    const std::string fresh = experimentsDocument();
    EXPECT_TRUE(fresh == committed.str())
        << PD_EXPERIMENTS_MD << " (the paper's claims and their verdicts) is "
        << "stale. Regenerate it from the repository root with `cmake --build "
        << "build --target bench_experiments && ./build/bench_experiments "
        << "EXPERIMENTS.md`. The fresh document:\n"
        << fresh;
}

TEST(Claims, VerdictFollowsTheNumbers) {
    EXPECT_TRUE(pdFaster(0.5, 0.6).holds);
    EXPECT_FALSE(pdFaster(0.6, 0.6).holds);
    EXPECT_EQ(pdFaster(0.7, 0.6).numbers, "0.700 ns ≥ 0.600 ns");

    EXPECT_TRUE(pdInterconnectAtMostFlat(145, 145).holds);
    EXPECT_FALSE(pdInterconnectAtMostFlat(163, 145).holds);

    EXPECT_TRUE(hierarchyShallower(17, 31).holds);
    EXPECT_FALSE(hierarchyShallower(31, 31).holds);

    EXPECT_TRUE(counterBasis(4, 1, 2, true).holds);
    EXPECT_FALSE(counterBasis(3, 1, 2, true).holds);
    EXPECT_FALSE(counterBasis(4, 0, 2, true).holds);
    EXPECT_FALSE(counterBasis(4, 1, 1, true).holds);
    EXPECT_FALSE(counterBasis(4, 1, 2, false).holds);

    EXPECT_TRUE(pdBelowAlgebraic(200.0, 232.2).holds);
    EXPECT_FALSE(pdBelowAlgebraic(658.0, 232.2).holds);

    EXPECT_TRUE(lowersAreaSomewhere({{900, 900}, {400, 500}}).holds);
    EXPECT_FALSE(lowersAreaSomewhere({{900, 900}, {500, 400}}).holds);

    EXPECT_TRUE(kFourSmallest({{2, 500}, {4, 400}, {6, 400}}).holds);
    const auto k = kFourSmallest({{2, 366.3}, {4, 473.1}, {6, 420.4}});
    EXPECT_FALSE(k.holds);
    EXPECT_EQ(k.numbers, "k = 4: 473.1 µm² > k = 2: 366.3 µm²");

    // LOD at most 2n terms, LZD at least 2^n wherever it is built (0 =
    // refused, skipped).
    EXPECT_TRUE(reedMullerWall({{8, 14}, {32, 62}}, {{8, 614}, {32, 0}}).holds);
    EXPECT_FALSE(reedMullerWall({{8, 17}}, {{8, 614}}).holds);
    EXPECT_FALSE(reedMullerWall({{8, 14}}, {{8, 255}}).holds);
}

}  // namespace
}  // namespace pd::eval
