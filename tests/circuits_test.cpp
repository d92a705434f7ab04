// Benchmark generator tests: reference semantics, ANF specs, and SOP
// specs agree with each other.
#include <gtest/gtest.h>

#include "anf/ops.hpp"
#include "circuits/adder.hpp"
#include "circuits/comparator.hpp"
#include "circuits/counter.hpp"
#include "circuits/lzd.hpp"
#include "circuits/majority.hpp"
#include "circuits/registry.hpp"
#include "engine/engine.hpp"

namespace pd::circuits {
namespace {

/// Checks ANF outputs against the reference on every assignment (total
/// input width must be small).
void expectAnfMatchesReference(const Benchmark& bench) {
    ASSERT_TRUE(static_cast<bool>(bench.anf));
    anf::VarTable vt;
    const auto outs = bench.anf(vt);
    ASSERT_EQ(outs.size(), bench.outputNames.size());

    std::size_t total = 0;
    for (const auto& p : bench.ports) total += static_cast<std::size_t>(p.width);
    ASSERT_LE(total, 18u);

    for (std::uint64_t m = 0; m < (std::uint64_t{1} << total); ++m) {
        anf::Assignment assign;
        std::vector<std::uint64_t> values(bench.ports.size(), 0);
        std::size_t bit = 0;
        for (std::size_t p = 0; p < bench.ports.size(); ++p)
            for (int q = 0; q < bench.ports[p].width; ++q, ++bit)
                if ((m >> bit) & 1u) {
                    assign.insert(static_cast<anf::Var>(bit));
                    values[p] |= std::uint64_t{1} << q;
                }
        const std::uint64_t expect = bench.reference(values);
        for (std::size_t o = 0; o < outs.size(); ++o)
            ASSERT_EQ(outs[o].evaluate(assign),
                      static_cast<bool>((expect >> o) & 1u))
                << bench.name << " output " << bench.outputNames[o]
                << " at input " << m;
    }
}

/// Checks that the SOP spec evaluates like the reference, by evaluating
/// cubes directly.
void expectSopMatchesReference(const Benchmark& bench) {
    ASSERT_TRUE(static_cast<bool>(bench.sop));
    anf::VarTable vt;
    const auto spec = bench.sop(vt);
    ASSERT_EQ(spec.outputs.size(), bench.outputNames.size());

    std::size_t total = 0;
    for (const auto& p : bench.ports) total += static_cast<std::size_t>(p.width);
    ASSERT_LE(total, 16u);

    for (std::uint64_t m = 0; m < (std::uint64_t{1} << total); ++m) {
        std::vector<std::uint64_t> values(bench.ports.size(), 0);
        std::size_t bit = 0;
        anf::Monomial trueVars;
        for (std::size_t p = 0; p < bench.ports.size(); ++p)
            for (int q = 0; q < bench.ports[p].width; ++q, ++bit)
                if ((m >> bit) & 1u) {
                    values[p] |= std::uint64_t{1} << q;
                    trueVars.insert(static_cast<anf::Var>(bit));
                }
        const std::uint64_t expect = bench.reference(values);
        for (std::size_t o = 0; o < spec.outputs.size(); ++o) {
            bool val = false;
            for (const auto& cube : spec.outputs[o].cubes) {
                if (cube.pos.subsetOf(trueVars) &&
                    !cube.neg.intersects(trueVars)) {
                    val = true;
                    break;
                }
            }
            ASSERT_EQ(val, static_cast<bool>((expect >> o) & 1u))
                << bench.name << "/" << spec.outputs[o].name << " at " << m;
        }
    }
}

TEST(Lzd, ReferenceSemantics) {
    const auto b = makeLzd(16);
    // clz(0x8000..) etc.
    EXPECT_EQ(b.reference(std::vector<std::uint64_t>{0x8000}), 0u);
    EXPECT_EQ(b.reference(std::vector<std::uint64_t>{0x4000}), 1u);
    EXPECT_EQ(b.reference(std::vector<std::uint64_t>{0x0001}), 15u);
    // The all-zero word aliases to 0 (paper Fig. 1: no position term x_i
    // fires), keeping a0 alive in the specification.
    EXPECT_EQ(b.reference(std::vector<std::uint64_t>{0x0000}), 0u);
    EXPECT_EQ(b.reference(std::vector<std::uint64_t>{0xffff}), 0u);
}

TEST(Lzd, AnfMatchesReference16) {
    expectAnfMatchesReference(makeLzd(16));
}

TEST(Lzd, SopMatchesReference16) {
    expectSopMatchesReference(makeLzd(16));
}

TEST(Lzd, Width8) {
    expectAnfMatchesReference(makeLzd(8));
    expectSopMatchesReference(makeLzd(8));
}

TEST(Lzd, RefusesIntractableAnf) {
    const auto b = makeLzd(32);
    EXPECT_FALSE(static_cast<bool>(b.anf));  // 2^31 terms — refused
    EXPECT_TRUE(static_cast<bool>(b.sop));
}

TEST(Lod, ReferenceSemantics) {
    const auto b = makeLod(16);
    // The all-one word aliases to 0 (the LOD dual of LZD's all-zero rule).
    EXPECT_EQ(b.reference(std::vector<std::uint64_t>{0xffff}), 0u);
    EXPECT_EQ(b.reference(std::vector<std::uint64_t>{0x0000}), 0u);
    EXPECT_EQ(b.reference(std::vector<std::uint64_t>{0x7fff}), 0u);
    EXPECT_EQ(b.reference(std::vector<std::uint64_t>{0xfffe}), 15u);
    EXPECT_EQ(b.reference(std::vector<std::uint64_t>{0xc000}), 2u);
}

TEST(Lod, AnfMatchesReference16) {
    expectAnfMatchesReference(makeLod(16));
}

TEST(Lod, AnfIsCompact32) {
    // The paper's point: LOD's Reed-Muller form stays small (2 monomials
    // per position) even at 32 bits.
    const auto b = makeLod(32);
    ASSERT_TRUE(static_cast<bool>(b.anf));
    anf::VarTable vt;
    const auto outs = b.anf(vt);
    std::size_t total = 0;
    for (const auto& e : outs) total += e.termCount();
    EXPECT_LE(total, 200u);
}

TEST(Majority, AnfAndSopMatchReference) {
    expectAnfMatchesReference(makeMajority(7));
    expectSopMatchesReference(makeMajority(7));
}

TEST(Majority, Anf15IsThe8SubsetXor) {
    anf::VarTable vt;
    const auto outs = makeMajority(15).anf(vt);
    ASSERT_EQ(outs.size(), 1u);
    // C(15,8) = 6435 monomials, all of degree 8.
    EXPECT_EQ(outs[0].termCount(), 6435u);
    for (const auto& t : outs[0].terms()) EXPECT_EQ(t.degree(), 8u);
}

TEST(Majority, RejectsEvenN) {
    EXPECT_THROW(makeMajority(4), Error);
}

TEST(Counter, AnfMatchesReference) {
    expectAnfMatchesReference(makeCounter(6));
    expectAnfMatchesReference(makeCounter(8));
}

TEST(Counter, OutputWidth) {
    EXPECT_EQ(makeCounter(16).outputNames.size(), 5u);
    EXPECT_EQ(makeCounter(15).outputNames.size(), 4u);
    EXPECT_EQ(makeCounter(3).outputNames.size(), 2u);
}

TEST(Counter, Anf16SizesAreBinomial) {
    anf::VarTable vt;
    const auto outs = makeCounter(16).anf(vt);
    ASSERT_EQ(outs.size(), 5u);
    EXPECT_EQ(outs[0].termCount(), 16u);     // e1
    EXPECT_EQ(outs[1].termCount(), 120u);    // e2
    EXPECT_EQ(outs[2].termCount(), 1820u);   // e4
    EXPECT_EQ(outs[3].termCount(), 12870u);  // e8
    EXPECT_EQ(outs[4].termCount(), 1u);      // e16
}

TEST(Adder, AnfMatchesReference) {
    expectAnfMatchesReference(makeAdder(4));
    expectAnfMatchesReference(makeAdder(6));
}

TEST(Adder, CarryTermGrowth) {
    anf::VarTable vt;
    const auto outs = makeAdder(8).anf(vt);
    // s8 = carry-out of 8 bits: 2^8 - 1 = 255 terms.
    EXPECT_EQ(outs[8].termCount(), 255u);
}

TEST(Adder3, AnfMatchesReference) {
    expectAnfMatchesReference(makeAdder3(4));
}

TEST(Adder3, RippleAnfHelper) {
    anf::VarTable vt;
    const auto a0 = anf::Anf::var(vt.addInput("a0", 0, 0));
    const auto b0 = anf::Anf::var(vt.addInput("b0", 1, 0));
    const auto s = rippleAnf({a0}, {b0});
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0], a0 ^ b0);
    EXPECT_EQ(s[1], a0 * b0);
}

TEST(Comparator, AnfMatchesReference) {
    expectAnfMatchesReference(makeComparator(4));
    expectAnfMatchesReference(makeComparator(8));
}

TEST(Comparator, TermCountIs3PowN) {
    anf::VarTable vt;
    const auto outs = makeComparator(6).anf(vt);
    EXPECT_EQ(outs[0].termCount(), 728u);  // 3^6 - 1: the 3^n growth law
}

TEST(Comparator, RefusesIntractableWidths) {
    const auto b = makeComparator(15, /*maxAnfWidth=*/13);
    EXPECT_FALSE(static_cast<bool>(b.anf));
    EXPECT_TRUE(static_cast<bool>(b.reference));
}

TEST(Comparator, WideWidthsKeepTheReferenceUpToTheSimulatorsPorts) {
    // Like makeAdder and makeLzd past their limits: no spec, but a
    // reference over 64-bit port words. Past 64 bits there is no benchmark.
    for (const int n : {32, 64}) {
        const auto b = makeComparator(n);
        EXPECT_FALSE(static_cast<bool>(b.anf)) << n;
        const std::uint64_t top = std::uint64_t{1} << (n - 1);
        const std::vector<std::uint64_t> gt = {top, top - 1};
        const std::vector<std::uint64_t> lt = {top - 1, top};
        EXPECT_EQ(b.reference(gt), 1u) << n;
        EXPECT_EQ(b.reference(lt), 0u) << n;
    }
    EXPECT_THROW((void)makeComparator(65), Error);
}

// Every default registry spec's expansion, pinned by its cache-key
// digest under default options. Canonical Reed-Muller form is unique, so
// a change to how specs are built may change speed but never these
// values; a mismatch names the spec whose expanded function changed.
TEST(Registry, ExpandedSpecDigestsArePinned) {
    const std::vector<std::pair<std::string, std::string>> pinned = {
        {"adder16", "58f6a0e9812dc4a28ac06b5a16aac142"},
        {"adder3_9", "265995548b8ef5203004f2e1d12dee66"},
        {"adder8", "20458cb78e478deef9371665eb5ebfa5"},
        {"comparator12", "cdbb95f23a6c16a4e7eb22044d877599"},
        {"comparator8", "3c993cd14fbf8f1233fff85bc2c07687"},
        {"counter16", "9eefc153d81dd3b94ddea438d8c3471b"},
        {"counter8", "6a69728dac1a9d3b706a138430ea4c1d"},
        {"lod16", "c8164d5b49480cb6fd39a88757f39290"},
        {"lod32", "585554c751287f8f3ecca36d668c0ac8"},
        {"lzd16", "499390db0038dac7cba4cc6c4a10e27c"},
        {"majority15", "6ae769bd4a5edf31972f0d527ce81a9b"},
        {"majority7", "b999de1f0e439852e849bcf3be3a4a72"},
        {"mul4", "0916640bf15ed574150328e4cb81aca1"},
    };
    std::vector<std::string> names;
    for (const auto& [name, _] : pinned) names.push_back(name);
    ASSERT_EQ(benchmarkNames(/*includeHeavy=*/false), names);
    for (const auto& [name, hex] : pinned) {
        const auto bench = makeNamedBenchmark(name);
        ASSERT_TRUE(bench.has_value()) << name;
        anf::VarTable vt;
        const auto outs = bench->anf(vt);
        EXPECT_EQ(engine::canonicalDigest(outs, core::DecomposeOptions{},
                                          /*verify=*/true)
                      .hex(),
                  hex)
            << name;
    }
}

}  // namespace
}  // namespace pd::circuits
