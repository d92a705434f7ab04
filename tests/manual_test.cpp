// Manual architecture tests: every expert design must implement the same
// function as the corresponding benchmark reference.
#include <gtest/gtest.h>

#include "circuits/adder.hpp"
#include "circuits/comparator.hpp"
#include "circuits/counter.hpp"
#include "circuits/lzd.hpp"
#include "circuits/manual.hpp"
#include "netlist/stats.hpp"
#include "sim/equivalence.hpp"

namespace pd::circuits {
namespace {

void expectImplements(const netlist::Netlist& nl, const Benchmark& bench) {
    const auto res = sim::checkAgainstReference(nl, bench.ports,
                                                bench.outputNames,
                                                bench.reference);
    EXPECT_TRUE(res.equivalent) << bench.name << ": " << res.message;
}

TEST(Rca, Widths) {
    for (const int n : {1, 2, 7, 16})
        expectImplements(rcaAdder(n), makeAdder(n));
}

TEST(Cla, Widths) {
    for (const int n : {1, 2, 4, 8, 16, 11})
        expectImplements(claAdder(n), makeAdder(n));
}

TEST(Cla, ShallowerThanRca) {
    const auto rca = netlist::computeStats(rcaAdder(16));
    const auto cla = netlist::computeStats(claAdder(16));
    EXPECT_LT(cla.levels, rca.levels);
}

TEST(AdderTreeCounter, Widths) {
    for (const int n : {3, 8, 15, 16})
        expectImplements(adderTreeCounter(n), makeCounter(n));
}

TEST(TgaCounter, Widths) {
    for (const int n : {3, 8, 15, 16})
        expectImplements(tgaCounter(n), makeCounter(n));
}

TEST(TgaCounter, FasterThanAdderTree) {
    const auto tree = netlist::computeStats(adderTreeCounter(16));
    const auto tga = netlist::computeStats(tgaCounter(16));
    EXPECT_LE(tga.levels, tree.levels);
}

TEST(OklobdzijaLzd, Implements16) {
    expectImplements(oklobdzijaLzd(16), makeLzd(16));
}

TEST(OklobdzijaLzd, Implements8) {
    expectImplements(oklobdzijaLzd(8), makeLzd(8));
}

TEST(OklobdzijaLzd, LowInterconnectVersusFlat) {
    // The Fig. 1 vs Fig. 2 argument: the hierarchical design has lower
    // interconnect and lower worst-case fan-out than the flat one. (The
    // *primary-input* fan-out of our flat model is already collapsed by
    // structural hashing of the prefix chains, so the structural metrics
    // carry the claim; EXPERIMENTS.md's Fig. 1/2 section compares the
    // mapped designs and PD's.)
    const auto flat = netlist::computeStats(flatLzd(16));
    const auto hier = netlist::computeStats(oklobdzijaLzd(16));
    EXPECT_LT(hier.interconnect, flat.interconnect);
    EXPECT_LT(hier.maxFanout, flat.maxFanout);
    EXPECT_LT(hier.numGates, flat.numGates);
}

TEST(FlatLzd, Implements16) { expectImplements(flatLzd(16), makeLzd(16)); }

TEST(FlatLod, Implements16) { expectImplements(flatLod(16), makeLod(16)); }

TEST(ProgressiveComparator, Widths) {
    for (const int n : {1, 2, 8, 15})
        expectImplements(progressiveComparator(n), makeComparator(n));
}

TEST(SubtractComparator, Widths) {
    for (const int n : {1, 2, 8, 15})
        expectImplements(subtractComparator(n), makeComparator(n));
}

TEST(CsaAdder3, BothFinals) {
    expectImplements(csaAdder3(12, true), makeAdder3(12));
    expectImplements(csaAdder3(12, false), makeAdder3(12));
    expectImplements(csaAdder3(5, true), makeAdder3(5));
}

TEST(CsaAdder3, FastFinalIsShallower) {
    const auto slow = netlist::computeStats(csaAdder3(12, false));
    const auto fast = netlist::computeStats(csaAdder3(12, true));
    EXPECT_LT(fast.levels, slow.levels);
}

TEST(RcaRcaAdder3, Widths) {
    expectImplements(rcaRcaAdder3(12), makeAdder3(12));
    expectImplements(rcaRcaAdder3(4), makeAdder3(4));
}

TEST(CarrySelectAdder, Groups) {
    for (const int group : {2, 4, 8})
        expectImplements(carrySelectAdder(16, group), makeAdder(16));
    // A width the group does not divide leaves a narrower last group.
    expectImplements(carrySelectAdder(10, 4), makeAdder(10));
}

TEST(Adder3Architectures, DelayOrdering) {
    // CSA with fast final must be the shallowest of the manual designs.
    const auto csa = netlist::computeStats(csaAdder3(12, true));
    const auto rr = netlist::computeStats(rcaRcaAdder3(12));
    EXPECT_LT(csa.levels, rr.levels);
}

}  // namespace
}  // namespace pd::circuits
