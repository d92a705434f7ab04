// End-to-end Progressive Decomposition tests (paper Fig. 5 / Fig. 6):
// the majority-7 trace, LZD block discovery, counters, adders, the stop
// rules (no rename block, the final output step) — always with
// equivalence of the expanded or simulated result.
#include <gtest/gtest.h>

#include <memory>

#include "anf/ops.hpp"
#include "anf/parser.hpp"
#include "circuits/adder.hpp"
#include "circuits/counter.hpp"
#include "circuits/lzd.hpp"
#include "circuits/majority.hpp"
#include "circuits/registry.hpp"
#include "core/decomposer.hpp"
#include "obs/metrics.hpp"
#include "util/pool.hpp"

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

/// Evaluates the hierarchy block by block on every assignment of
/// `inputs` and compares each residual output with its spec.
void expectSimulatesTo(const Decomposition& d,
                       const std::vector<anf::Var>& inputs,
                       const std::vector<Anf>& spec) {
    ASSERT_EQ(d.residualOutputs.size(), spec.size());
    for (std::size_t m = 0; m < (std::size_t{1} << inputs.size()); ++m) {
        anf::Assignment a;
        for (std::size_t i = 0; i < inputs.size(); ++i)
            if ((m >> i) & 1u) a.insert(inputs[i]);
        const anf::Assignment in = a;
        for (const auto& blk : d.blocks) {
            for (const auto& o : blk.outputs)
                if (o.expr.evaluate(a)) a.insert(o.var);
            for (const auto& [v, e] : blk.reduced)
                if (e.evaluate(a)) a.insert(v);
        }
        for (std::size_t i = 0; i < spec.size(); ++i)
            ASSERT_EQ(d.residualOutputs[i].evaluate(a), spec[i].evaluate(in))
                << d.outputNames[i] << " at input " << m;
    }
}

/// Every leader of the block is a bare, uncomplemented variable of its
/// own group: the block makes no progress.
bool isRename(const Block& blk) {
    if (blk.outputs.empty()) return false;
    for (const auto& o : blk.outputs)
        if (o.expr.termCount() != 1 || o.expr.degree() != 1 ||
            !o.expr.terms()[0].subsetOf(blk.group))
            return false;
    return true;
}

std::uint64_t stops(const char* cause) {
    return obs::counter(std::string("decompose.stop.") + cause).value();
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
    // One output per non-empty subset product of x0..x3. The folded list
    // is Σ K_S·x^S over 15 tags: the only group is {x0..x3}, and its
    // basis holds all 2^4 − 1 = 15 products, one per tag cofactor.
    // Unused inputs take the ids in between. From 242 to 245 ids the
    // 2k + 2 headroom stop lets the sweep run, but the 15 fresh leaders
    // do not fit: the run must end on the capacity stop with a residual,
    // never overflow a monomial.
    for (const std::size_t ids : {242u, 245u}) {
        VarTable vt;
        std::vector<Anf> x;
        for (int i = 0; i < 4; ++i)
            x.push_back(Anf::var(vt.addInput("x" + std::to_string(i), 0, i)));
        for (int i = 0; vt.size() + 15 < ids; ++i)
            (void)vt.addInput("p" + std::to_string(i), 1, i);
        std::vector<Anf> outs;
        std::vector<std::string> names;
        for (unsigned mask = 1; mask < 16; ++mask) {
            Anf o = Anf::one();
            for (std::size_t v = 0; v < 4; ++v)
                if (mask & (1u << v)) o = o * x[v];
            outs.push_back(o);
            names.push_back("o" + std::to_string(mask));
        }

        const std::uint64_t capacity = stops("capacity");
        const std::uint64_t headroom = stops("headroom");
        Decomposition d;
        ASSERT_NO_THROW(d = decompose(vt, outs, names)) << ids << " ids";
        EXPECT_EQ(vt.size(), ids) << "no fresh variable was allocated";
        EXPECT_EQ(stops("capacity") - capacity, 1u) << ids << " ids";
        EXPECT_EQ(stops("headroom") - headroom, 0u) << ids << " ids";
        EXPECT_FALSE(d.converged);
        EXPECT_TRUE(d.blocks.empty());
        expectEquivalent(d, vt, outs);
    }
}

TEST(Decomposer, NoRenameBlocksOnTheDefaultBatch) {
    // A rename block costs a probe sweep and fresh ids for nothing, so it
    // is never committed. lod16 takes the final output step and
    // converges; mul4 and lod32 end at their first rename instead.
    const auto pool = std::make_shared<util::ThreadPool>(4);
    for (const auto& name : circuits::benchmarkNames(/*includeHeavy=*/false)) {
        const auto bench = circuits::makeNamedBenchmark(name);
        ASSERT_TRUE(bench) << name;
        VarTable vt;
        const auto outs = bench->anf(vt);
        DecomposeOptions opt;
        opt.probePool = pool;
        const std::uint64_t renames = stops("rename");
        const auto d = decompose(vt, outs, bench->outputNames, opt);
        for (std::size_t b = 0; b < d.blocks.size(); ++b)
            EXPECT_FALSE(isRename(d.blocks[b])) << name << " block " << b;
        if (name == "lod16") {
            EXPECT_TRUE(d.converged);
        }
        EXPECT_EQ(stops("rename") - renames,
                  name == "mul4" || name == "lod32" ? 1u : 0u)
            << name;
    }
}

TEST(Decomposer, FinalOutputStepConvergesAMultiOutputList) {
    // After the first block (leaders c, a·b, c·d) y0 and y2 are literals
    // and y1 = s1 ⊕ s2. The sweep over the three left-over variables
    // finds a rename; since every output is a function of that group
    // alone, the last block's one leader is y1 itself. Committing the
    // rename instead loops until the variable ids run out.
    VarTable vt;
    const std::vector<Anf> spec = {anf::parse("a*b", vt),
                                   anf::parse("a*b ^ c", vt),
                                   anf::parse("c*d", vt)};
    const std::vector<anf::Var> in = vt.varsOfKind(anf::VarKind::kInput);
    const std::uint64_t converged = stops("converged");
    const auto d = decompose(vt, spec, {"y0", "y1", "y2"});
    EXPECT_TRUE(d.converged);
    EXPECT_EQ(stops("converged") - converged, 1u);
    ASSERT_EQ(d.blocks.size(), 2u);
    ASSERT_EQ(d.blocks[1].outputs.size(), 1u);
    EXPECT_EQ(d.residualOutputs[1], Anf::var(d.blocks[1].outputs[0].var));
    for (const auto& blk : d.blocks) EXPECT_FALSE(isRename(blk));
    expectSimulatesTo(d, in, spec);
}

TEST(Decomposer, FinalOutputStepConvergesASingleOutput) {
    // After the nibble block (s1 = parity, s2 = a0·a1 ⊕ a2·a3) the output
    // is s2·p ⊕ s1·q. The sweep picks {p, q}, whose basis is a rename;
    // the output depends on four variables, so one block over them has
    // the output as its leader.
    VarTable vt;
    const Anf f =
        anf::parse("(a0*a1 ^ a2*a3)*p ^ (a0 ^ a1 ^ a2 ^ a3)*q", vt);
    const std::vector<anf::Var> in = vt.varsOfKind(anf::VarKind::kInput);
    const auto d = decompose(vt, {f}, {"f"});
    EXPECT_TRUE(d.converged);
    ASSERT_EQ(d.blocks.size(), 2u);
    const Block& last = d.blocks.back();
    EXPECT_EQ(last.group.degree(), 4u);
    ASSERT_EQ(last.outputs.size(), 1u);
    EXPECT_EQ(d.residualOutputs[0], Anf::var(last.outputs[0].var));
    for (const auto& blk : d.blocks) EXPECT_FALSE(isRename(blk));
    expectSimulatesTo(d, in, {f});
    expectEquivalent(d, vt, {f});
}

TEST(Decomposer, DiscardedRenameGivesItsIdsBack) {
    // After the parity block s1 the sweep picks a rename; the final
    // output step then makes the two outputs the leaders. The rename's
    // fresh ids are released, so the leaders are s1, s2, s3 and the
    // table holds no dead id.
    VarTable vt;
    const std::vector<Anf> spec = {anf::parse("(a0^a1^a2^a3)*p", vt),
                                   anf::parse("(a0^a1^a2^a3)*q", vt)};
    const std::size_t inputs = vt.size();
    const auto d = decompose(vt, spec, {"o1", "o2"});
    EXPECT_TRUE(d.converged);
    std::vector<std::string> leaders;
    for (const auto& blk : d.blocks)
        for (const auto& o : blk.outputs) leaders.push_back(vt.name(o.var));
    EXPECT_EQ(leaders, (std::vector<std::string>{"s1", "s2", "s3"}));
    EXPECT_EQ(vt.size(), inputs + spec.size() + leaders.size());  // + tags
    expectSimulatesTo(d, vt.varsOfKind(anf::VarKind::kInput), spec);
}

TEST(Decomposer, RejectsBadArguments) {
    VarTable vt;
    EXPECT_THROW(decompose(vt, {}, {}), Error);
    EXPECT_THROW(decompose(vt, {Anf::one()}, {"a", "b"}), Error);
}

}  // namespace
}  // namespace pd::core
