// Cross-module integration tests: full flows (spec → PD → synthesis →
// mapping → verification) on mid-size circuits, and the evaluation
// harness itself.
#include <gtest/gtest.h>

#include <cstdio>

#include "circuits/adder.hpp"
#include "circuits/comparator.hpp"
#include "circuits/counter.hpp"
#include "circuits/lzd.hpp"
#include "circuits/majority.hpp"
#include "eval/report.hpp"
#include "eval/table1.hpp"

namespace pd::eval {
namespace {

TEST(Flow, PdOnMajority7) {
    Flow flow;
    const auto bench = circuits::makeMajority(7);
    const auto row = flow.runPd("pd", bench, 0, 0);
    EXPECT_TRUE(row.exhaustive);
    EXPECT_GT(row.qor.area, 0.0);
    EXPECT_GT(row.qor.delay, 0.0);
    EXPECT_GT(row.pdBlocks, 0u);
}

TEST(Flow, SopBaselineOnMajority7) {
    Flow flow;
    const auto bench = circuits::makeMajority(7);
    const auto row = flow.runSopFactored("sop", bench, 0, 0);
    EXPECT_GT(row.qor.gates, 0u);
}

TEST(Flow, PdBeatsSopOnLzd8Delay) {
    // The core claim at small scale: PD's hierarchical result is faster
    // than the flat SOP synthesis of the same function.
    Flow flow;
    const auto bench = circuits::makeLzd(8);
    const auto sop = flow.runSopFactored("sop", bench, 0, 0);
    const auto pd = flow.runPd("pd", bench, 0, 0);
    EXPECT_LT(pd.qor.delay, sop.qor.delay);
}

TEST(Flow, PdOnAdder8MatchesReferenceExhaustively) {
    Flow flow;
    const auto bench = circuits::makeAdder(8);
    const auto row = flow.runPd("pd", bench, 0, 0);
    EXPECT_TRUE(row.exhaustive);  // 16 input bits
}

TEST(Flow, PdOnComparator8) {
    Flow flow;
    const auto bench = circuits::makeComparator(8);
    const auto row = flow.runPd("pd", bench, 0, 0);
    EXPECT_TRUE(row.exhaustive);
}

TEST(Flow, PdOnCounter12) {
    Flow flow;
    const auto bench = circuits::makeCounter(12);
    const auto row = flow.runPd("pd", bench, 0, 0);
}

TEST(Flow, NetlistFailingItsReferenceThrows) {
    // A row is only ever reported verified: LZD8's netlist checked
    // against LOD8 (same ports, other function) must throw out of Flow.
    Flow flow;
    const auto lzd = circuits::makeLzd(8);
    const auto lod = circuits::makeLod(8);
    const auto row = flow.runSopFactored("lzd", lzd, 0, 0);
    EXPECT_THROW((void)flow.runNetlist("lzd as lod", row.mapped, lod, 0, 0),
                 Error);
}

TEST(Flow, MissingSpecsThrow) {
    Flow flow;
    const auto noSop = circuits::makeCounter(8);
    EXPECT_THROW((void)flow.runSopFactored("x", noSop, 0, 0), Error);
    const auto noAnf = circuits::makeComparator(15, 13);
    EXPECT_THROW((void)flow.runPd("x", noAnf, 0, 0), Error);
}

TEST(Report, FormatContainsRowsAndRatios) {
    Flow flow;
    BenchReport rep;
    rep.title = "test";
    const auto bench = circuits::makeMajority(7);
    rep.rows.push_back(flow.runSopFactored("baseline", bench, 100.0, 1.0));
    rep.rows.push_back(flow.runPd("pd", bench, 50.0, 0.5));
    const auto text = formatReport(rep);
    EXPECT_NE(text.find("test"), std::string::npos);
    EXPECT_NE(text.find("baseline"), std::string::npos);
    EXPECT_NE(text.find("PD shape"), std::string::npos);
    EXPECT_NE(text.find("paper"), std::string::npos);
}

TEST(Report, PdShapeUsesItsOwnCircuitsBaseline) {
    // LZD16 and LOD16 share one row group: the LOD16 PD row is measured
    // against the LOD16 SOP row, not the group's first (LZD16) row, and
    // the ratio reads PD / baseline.
    Flow flow;
    const auto rep = rowLzdLod16(flow);
    ASSERT_EQ(rep.rows.size(), 5u);
    const auto& lodSop = rep.rows[3];
    const auto& lodPd = rep.rows[4];
    ASSERT_EQ(lodSop.variant, "LOD16 Unoptimised (SOP)");
    ASSERT_EQ(lodPd.variant, "LOD16 Progressive Decomposition");
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.2f",
                  lodPd.qor.area / lodSop.qor.area);
    const std::string want =
        "- " + lodPd.variant + " / " + lodSop.variant + ": area " + ratio;
    const auto text = formatReport(rep);
    EXPECT_NE(text.find(want), std::string::npos) << text;
}

// Every row group runs in experiments_test, which renders them all into
// EXPERIMENTS.md; here we spot-check the cheapest one end to end.
TEST(Table1, ComparatorRowGroupRuns) {
    Flow flow;
    const auto rep = rowComparator(flow, 8);
    ASSERT_GE(rep.rows.size(), 3u);
    // PD at least matches the progressive-comparator baseline on delay.
    const auto& base = rep.rows[0];
    const auto& pd = rep.rows[1];
    EXPECT_LE(pd.qor.delay, base.qor.delay * 1.05);
}

TEST(Table1, ComparatorAboveThirteenBitsSaysItDropsPd) {
    Flow flow;
    const auto rep = rowComparator(flow, 14);
    for (const auto& row : rep.rows) EXPECT_EQ(row.pdIterations, 0u);
    EXPECT_NE(formatReport(rep).find("No Progressive Decomposition row"),
              std::string::npos);
}

}  // namespace
}  // namespace pd::eval
