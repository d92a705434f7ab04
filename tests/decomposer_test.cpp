// End-to-end Progressive Decomposition tests (paper Fig. 5 / Fig. 6):
// the majority-7 trace, LZD block discovery, counters, adders — always
// with algebraic equivalence of the expanded result.
#include <gtest/gtest.h>

#include "anf/ops.hpp"
#include "anf/parser.hpp"
#include "circuits/adder.hpp"
#include "circuits/counter.hpp"
#include "circuits/lzd.hpp"
#include "circuits/majority.hpp"
#include "core/decomposer.hpp"

namespace pd::core {
namespace {

using anf::Anf;
using anf::VarTable;

void expectEquivalent(const Decomposition& d, const VarTable& vt,
                      const std::vector<Anf>& original) {
    const auto expanded = d.expandedOutputs(vt);
    ASSERT_EQ(expanded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(expanded[i], original[i])
            << "output " << d.outputNames[i] << " not equivalent";
}

TEST(Decomposer, Majority7ReproducesFig6) {
    VarTable vt;
    const auto bench = circuits::makeMajority(7);
    const auto outs = bench.anf(vt);
    const auto d = decompose(vt, outs, bench.outputNames);

    EXPECT_TRUE(d.converged);
    expectEquivalent(d, vt, outs);

    // Fig. 6 structure: first block consumes {a0..a3} and materializes
    // exactly three leaders (s1, s2, s4) — s3 is reduced to s1·s2.
    ASSERT_GE(d.blocks.size(), 2u);
    const auto& b0 = d.blocks[0];
    EXPECT_EQ(b0.group.degree(), 4u);
    EXPECT_EQ(b0.outputs.size(), 3u);
    EXPECT_EQ(b0.reduced.size(), 1u);
    // The reduced element is the product of two materialized leaders.
    EXPECT_EQ(b0.reduced[0].second.termCount(), 1u);
    EXPECT_EQ(b0.reduced[0].second.degree(), 2u);

    // Second block: the remaining three inputs → a full adder (3:2
    // counter): two materialized leaders, one reduced.
    const auto& b1 = d.blocks[1];
    EXPECT_EQ(b1.group.degree(), 3u);
    EXPECT_EQ(b1.outputs.size(), 2u);
    EXPECT_EQ(b1.reduced.size(), 1u);
}

TEST(Decomposer, Majority7IdentitiesRecorded) {
    VarTable vt;
    const auto bench = circuits::makeMajority(7);
    const auto outs = bench.anf(vt);
    const auto d = decompose(vt, outs, bench.outputNames);
    ASSERT_FALSE(d.trace.empty());
    // The paper's annihilators s1·s4 = 0 and s2·s4 = 0 appear in the
    // first iteration's identity list.
    const auto& ids = d.trace[0].identities;
    const auto contains = [&](const std::string& needle) {
        for (const auto& s : ids)
            if (s.find(needle) != std::string::npos) return true;
        return false;
    };
    EXPECT_TRUE(contains("s1*s4"));
    EXPECT_TRUE(contains("s2*s4"));
}

TEST(Decomposer, Lzd16FindsNibbleBlocks) {
    VarTable vt;
    const auto bench = circuits::makeLzd(16);
    const auto outs = bench.anf(vt);
    const auto d = decompose(vt, outs, bench.outputNames);

    EXPECT_TRUE(d.converged);
    expectEquivalent(d, vt, outs);

    // The first four blocks must each consume one nibble of the input —
    // Oklobdzija's structure (paper: "the output generated for 16-bit LZD
    // ... is exactly identical to the one suggested in [8]").
    ASSERT_GE(d.blocks.size(), 4u);
    for (int j = 0; j < 4; ++j) {
        const auto& blk = d.blocks[static_cast<std::size_t>(j)];
        EXPECT_EQ(blk.group.degree(), 4u) << "block " << j;
        // Every group variable is an input bit of nibble j.
        blk.group.forEachVar([&](anf::Var v) {
            EXPECT_EQ(vt.info(v).kind, anf::VarKind::kInput);
            EXPECT_GE(vt.info(v).bitPos, 4 * j);
            EXPECT_LT(vt.info(v).bitPos, 4 * (j + 1));
        });
        // Low fan-in leadership: at most 3 leader expressions per nibble
        // (V, P0, P1) after linear minimization.
        EXPECT_LE(blk.outputs.size() + blk.reduced.size(), 3u)
            << "block " << j;
    }
}

TEST(Decomposer, Adder8FindsCarryStructure) {
    VarTable vt;
    const auto bench = circuits::makeAdder(8);
    const auto outs = bench.anf(vt);
    const auto d = decompose(vt, outs, bench.outputNames);
    EXPECT_TRUE(d.converged);
    expectEquivalent(d, vt, outs);
    // First block consumes {a0,b0,a1,b1}.
    ASSERT_FALSE(d.blocks.empty());
    const auto& b0 = d.blocks[0];
    b0.group.forEachVar([&](anf::Var v) {
        EXPECT_LE(vt.info(v).bitPos, 1);
    });
}

TEST(Decomposer, Counter8Converges) {
    VarTable vt;
    const auto bench = circuits::makeCounter(8);
    const auto outs = bench.anf(vt);
    const auto d = decompose(vt, outs, bench.outputNames);
    EXPECT_TRUE(d.converged);
    expectEquivalent(d, vt, outs);
}

TEST(Decomposer, SingleLiteralOutputTerminatesImmediately) {
    VarTable vt;
    const anf::Var a = vt.addInput("a", 0, 0);
    const auto d = decompose(vt, {Anf::var(a)}, {"y"});
    EXPECT_TRUE(d.converged);
    EXPECT_TRUE(d.blocks.empty());
    EXPECT_EQ(d.residualOutputs[0], Anf::var(a));
}

TEST(Decomposer, ConstantOutputsHandled) {
    VarTable vt;
    (void)vt.addInput("a", 0, 0);
    const auto d = decompose(vt, {Anf::one(), Anf::zero()}, {"y1", "y0"});
    EXPECT_TRUE(d.converged);
    EXPECT_EQ(d.residualOutputs[0], Anf::one());
    EXPECT_EQ(d.residualOutputs[1], Anf::zero());
}

TEST(Decomposer, MultiOutputSharing) {
    // Two outputs sharing a common 4-input subfunction must share a block
    // leader rather than duplicate it.
    VarTable vt;
    std::vector<anf::Var> a;
    for (int i = 0; i < 4; ++i)
        a.push_back(vt.addInput("a" + std::to_string(i), 0, i));
    const anf::Var p = vt.addInput("p", 1, 0);
    const anf::Var q = vt.addInput("q", 2, 0);
    Anf parity;
    for (const auto v : a) parity ^= Anf::var(v);
    const Anf o1 = parity * Anf::var(p);
    const Anf o2 = parity * Anf::var(q);
    const auto d = decompose(vt, {o1, o2}, {"o1", "o2"});
    EXPECT_TRUE(d.converged);
    expectEquivalent(d, vt, {o1, o2});
    std::size_t parityLeaders = 0;
    for (const auto& blk : d.blocks)
        for (const auto& out : blk.outputs)
            if (out.expr == parity) ++parityLeaders;
    EXPECT_EQ(parityLeaders, 1u) << "shared subfunction was duplicated";
}

TEST(Decomposer, OptionsDisableFeatures) {
    VarTable vt;
    const auto bench = circuits::makeMajority(7);
    const auto outs = bench.anf(vt);
    DecomposeOptions opt;
    opt.useIdentities = false;
    opt.useNullspaceMerging = false;
    opt.useSizeReduction = false;
    const auto d = decompose(vt, outs, bench.outputNames, opt);
    EXPECT_TRUE(d.converged);
    expectEquivalent(d, vt, outs);
    // Without identities the first block materializes all four leaders.
    ASSERT_FALSE(d.blocks.empty());
    EXPECT_EQ(d.blocks[0].outputs.size(), 4u);
    EXPECT_TRUE(d.blocks[0].reduced.empty());
}

TEST(Decomposer, TraceRecordsIterations) {
    VarTable vt;
    const auto bench = circuits::makeMajority(7);
    const auto outs = bench.anf(vt);
    const auto d = decompose(vt, outs, bench.outputNames);
    EXPECT_EQ(d.trace.size(), d.iterations);
    for (const auto& tr : d.trace) {
        EXPECT_FALSE(tr.group.empty());
        EXPECT_GE(tr.rawPairCount, tr.mergedPairCount == 0
                                       ? std::size_t{0}
                                       : std::size_t{1});
    }
}

TEST(Decomposer, CapacityGuardCountsTheWholeBasis) {
    // x0..x3 carry all 15 non-empty subset products, each with its own
    // cofactor x4..x18, so that group's basis has 2^4 − 1 = 15 elements;
    // linear terms pad the table to near the 256-variable capacity. A
    // basis wider than the remaining headroom must stop the run with a
    // residual, never overflow a monomial. At 241 variables the basis
    // fits exactly; 243 and 245 pass the 2k + 2 headroom stop but not the
    // basis; 246 hits the headroom stop.
    for (const std::size_t n : {241u, 243u, 245u, 246u}) {
        VarTable vt;
        std::vector<Anf> x;
        for (std::size_t i = 0; i < n; ++i)
            x.push_back(Anf::var(
                vt.addInput("x" + std::to_string(i), 0, static_cast<int>(i))));
        Anf f;
        std::size_t cofactor = 4;
        for (const std::size_t size : {4u, 3u, 2u, 1u})
            for (unsigned mask = 1; mask < 16; ++mask) {
                if (static_cast<std::size_t>(__builtin_popcount(mask)) != size)
                    continue;
                Anf term = x[cofactor++];
                for (std::size_t v = 0; v < 4; ++v)
                    if (mask & (1u << v)) term = term * x[v];
                f ^= term;
            }
        for (std::size_t i = 19; i < n; ++i) f ^= x[i];

        Decomposition d;
        ASSERT_NO_THROW(d = decompose(vt, {f}, {"f"})) << n << " variables";
        EXPECT_LE(vt.size(), anf::Monomial::kMaxVars);
        expectEquivalent(d, vt, {f});
    }
}

TEST(Decomposer, RejectsBadArguments) {
    VarTable vt;
    EXPECT_THROW(decompose(vt, {}, {}), Error);
    EXPECT_THROW(decompose(vt, {Anf::one()}, {"a", "b"}), Error);
}

}  // namespace
}  // namespace pd::core
