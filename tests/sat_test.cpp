// Tests for the CDCL SAT solver, the Tseitin netlist encoder, the
// miter-based equivalence checker and the DPLL differential oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "netlist/builder.hpp"
#include <sstream>

#include "anf/anf.hpp"
#include "circuits/registry.hpp"
#include "sat/cnf.hpp"
#include "sat/dimacs.hpp"
#include "sat/dpll.hpp"
#include "sat/equiv.hpp"
#include "sat/miter.hpp"
#include "sat/solver.hpp"
#include "sim/simulator.hpp"
#include "core/decomposer.hpp"
#include "synth/celllib.hpp"
#include "synth/hier_synth.hpp"
#include "synth/mapper.hpp"
#include "synth/opt.hpp"

namespace pd {
namespace {

using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::Var;

TEST(SatSolver, EmptyFormulaIsSat) {
    Solver s;
    EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, SingleUnitClause) {
    Solver s;
    const Var x = s.newVar();
    EXPECT_TRUE(s.addClause(Lit(x, false)));
    ASSERT_EQ(s.solve(), Result::kSat);
    EXPECT_TRUE(s.modelValue(x));
}

TEST(SatSolver, ContradictoryUnitsAreUnsat) {
    Solver s;
    const Var x = s.newVar();
    s.addClause(Lit(x, false));
    EXPECT_FALSE(s.addClause(Lit(x, true)));
    EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, TautologyClauseIsDropped) {
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    EXPECT_TRUE(s.addClause({Lit(x, false), Lit(x, true), Lit(y, false)}));
    s.addClause(Lit(y, true));
    EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, DuplicateLiteralsAreMerged) {
    Solver s;
    const Var x = s.newVar();
    EXPECT_TRUE(s.addClause({Lit(x, false), Lit(x, false)}));
    ASSERT_EQ(s.solve(), Result::kSat);
    EXPECT_TRUE(s.modelValue(x));
}

TEST(SatSolver, SimpleImplicationChain) {
    // x0 ∧ (x0→x1) ∧ (x1→x2) ∧ ... forces the whole chain true.
    Solver s;
    std::vector<Var> v;
    for (int i = 0; i < 20; ++i) v.push_back(s.newVar());
    s.addClause(Lit(v[0], false));
    for (int i = 0; i + 1 < 20; ++i)
        s.addClause(Lit(v[i], true), Lit(v[i + 1], false));
    ASSERT_EQ(s.solve(), Result::kSat);
    for (int i = 0; i < 20; ++i) EXPECT_TRUE(s.modelValue(v[i])) << i;
}

TEST(SatSolver, PigeonHole3Into2IsUnsat) {
    // PHP(3,2): 3 pigeons, 2 holes. p[i][j] = pigeon i in hole j.
    Solver s;
    Var p[3][2];
    for (auto& row : p)
        for (auto& x : row) x = s.newVar();
    for (auto& row : p)  // every pigeon sits somewhere
        s.addClause(Lit(row[0], false), Lit(row[1], false));
    for (int j = 0; j < 2; ++j)  // no two pigeons share a hole
        for (int i = 0; i < 3; ++i)
            for (int i2 = i + 1; i2 < 3; ++i2)
                s.addClause(Lit(p[i][j], true), Lit(p[i2][j], true));
    EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, PigeonHole5Into4IsUnsat) {
    Solver s;
    std::vector<std::vector<Var>> p(5, std::vector<Var>(4));
    for (auto& row : p)
        for (auto& x : row) x = s.newVar();
    for (auto& row : p) {
        std::vector<Lit> c;
        for (const Var x : row) c.emplace_back(x, false);
        s.addClause(std::move(c));
    }
    for (int j = 0; j < 4; ++j)
        for (int i = 0; i < 5; ++i)
            for (int i2 = i + 1; i2 < 5; ++i2)
                s.addClause(Lit(p[i][j], true), Lit(p[i2][j], true));
    EXPECT_EQ(s.solve(), Result::kUnsat);
    EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
    // PHP(8,7) is hard enough to exceed a 10-conflict budget.
    Solver s;
    std::vector<std::vector<Var>> p(8, std::vector<Var>(7));
    for (auto& row : p)
        for (auto& x : row) x = s.newVar();
    for (auto& row : p) {
        std::vector<Lit> c;
        for (const Var x : row) c.emplace_back(x, false);
        s.addClause(std::move(c));
    }
    for (int j = 0; j < 7; ++j)
        for (int i = 0; i < 8; ++i)
            for (int i2 = i + 1; i2 < 8; ++i2)
                s.addClause(Lit(p[i][j], true), Lit(p[i2][j], true));
    EXPECT_EQ(s.solve(10), Result::kUnknown);
}

TEST(SatSolver, ModelSatisfiesAllClauses) {
    // Random 3-SAT at a satisfiable density; verify the model directly.
    std::mt19937_64 rng(7);
    for (int round = 0; round < 20; ++round) {
        Solver s;
        const int n = 30;
        std::vector<Var> v;
        for (int i = 0; i < n; ++i) v.push_back(s.newVar());
        std::vector<std::vector<Lit>> clauses;
        for (int c = 0; c < 3 * n; ++c) {
            std::vector<Lit> cl;
            for (int l = 0; l < 3; ++l)
                cl.emplace_back(v[rng() % n], (rng() & 1) != 0);
            clauses.push_back(cl);
            s.addClause(std::move(cl));
        }
        const Result r = s.solve();
        if (r != Result::kSat) continue;  // dense instances may be unsat
        for (const auto& cl : clauses) {
            bool sat = false;
            for (const Lit l : cl)
                sat |= s.modelValue(l.var()) != l.negated();
            EXPECT_TRUE(sat);
        }
    }
}

TEST(SatSolver, XorChainParityUnsat) {
    // Encode x1 ⊕ x2 ⊕ ... ⊕ xn = 1 and each xi = 0 — unsatisfiable.
    Solver s;
    const int n = 16;
    std::vector<Var> x;
    for (int i = 0; i < n; ++i) x.push_back(s.newVar());
    Var acc = x[0];
    for (int i = 1; i < n; ++i) {
        const Var nxt = s.newVar();
        sat::encodeXor(s, nxt, acc, x[i]);
        acc = nxt;
    }
    s.addClause(Lit(acc, false));
    for (int i = 0; i < n; ++i) s.addClause(Lit(x[i], true));
    EXPECT_EQ(s.solve(), Result::kUnsat);
}

// ---------------------------------------------------------------------------
// Netlist encoding
// ---------------------------------------------------------------------------

/// Brute-force: netlist and CNF encoding agree on every input assignment.
void checkEncodingExhaustive(const netlist::Netlist& nl) {
    const std::size_t n = nl.inputs().size();
    ASSERT_LE(n, 12u);
    sim::Simulator simulator(nl);
    for (std::uint64_t pattern = 0; pattern < (1ull << n); ++pattern) {
        Solver s;
        const auto vars = sat::encodeNetlist(s, nl);
        std::vector<std::uint64_t> words(n);
        for (std::size_t i = 0; i < n; ++i) {
            const bool bit = (pattern >> i) & 1;
            words[i] = bit ? ~0ull : 0;
            s.addClause(Lit(vars[nl.inputs()[i]], !bit));
        }
        ASSERT_EQ(s.solve(), Result::kSat);
        const auto outs = simulator.run(words);
        for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
            const bool expected = outs[o] & 1;
            EXPECT_EQ(s.modelValue(vars[nl.outputs()[o].net]), expected)
                << "pattern " << pattern << " output " << o;
        }
    }
}

TEST(SatCnf, EncodesEveryGateType) {
    netlist::Netlist nl;
    netlist::Builder b(nl);
    const auto a = b.input("a");
    const auto c = b.input("b");
    const auto d = b.input("c");
    nl.markOutput("and", b.mkAnd(a, c));
    nl.markOutput("or", b.mkOr(a, c));
    nl.markOutput("xor", b.mkXor(a, c));
    nl.markOutput("not", b.mkNot(a));
    nl.markOutput("mux", b.mkMux(a, c, d));
    nl.markOutput("xnor", b.mkXnor(a, c));
    nl.markOutput("nand", b.mkNand(a, c));
    nl.markOutput("nor", b.mkNor(a, c));
    nl.markOutput("c0", b.constant(false));
    nl.markOutput("c1", b.constant(true));
    checkEncodingExhaustive(nl);
}

TEST(SatCnf, EncodesFullAdder) {
    netlist::Netlist nl;
    netlist::Builder b(nl);
    const auto fa =
        b.fullAdder(b.input("a"), b.input("b"), b.input("cin"));
    nl.markOutput("s", fa.sum);
    nl.markOutput("co", fa.carry);
    checkEncodingExhaustive(nl);
}

// ---------------------------------------------------------------------------
// Miter equivalence
// ---------------------------------------------------------------------------

netlist::Netlist rippleAdder(int width, bool flipLastCarry) {
    netlist::Netlist nl;
    netlist::Builder b(nl);
    std::vector<netlist::NetId> as, bs;
    for (int i = 0; i < width; ++i) as.push_back(b.input("a" + std::to_string(i)));
    for (int i = 0; i < width; ++i) bs.push_back(b.input("b" + std::to_string(i)));
    netlist::NetId carry = b.constant(false);
    for (int i = 0; i < width; ++i) {
        const auto fa = b.fullAdder(as[i], bs[i], carry);
        nl.markOutput("s" + std::to_string(i), fa.sum);
        carry = fa.carry;
    }
    if (flipLastCarry) carry = b.mkNot(carry);
    nl.markOutput("cout", carry);
    return nl;
}

/// Carry-select flavoured adder: compute both carry alternatives per
/// nibble and mux — structurally very different from ripple.
netlist::Netlist selectAdder(int width) {
    netlist::Netlist nl;
    netlist::Builder b(nl);
    std::vector<netlist::NetId> as, bs;
    for (int i = 0; i < width; ++i) as.push_back(b.input("a" + std::to_string(i)));
    for (int i = 0; i < width; ++i) bs.push_back(b.input("b" + std::to_string(i)));
    netlist::NetId carry = b.constant(false);
    for (int base = 0; base < width; base += 4) {
        const int hi = std::min(base + 4, width);
        // Two speculative ripple chains.
        std::vector<netlist::NetId> sum0, sum1;
        netlist::NetId c0 = b.constant(false), c1 = b.constant(true);
        for (int i = base; i < hi; ++i) {
            const auto f0 = b.fullAdder(as[i], bs[i], c0);
            const auto f1 = b.fullAdder(as[i], bs[i], c1);
            sum0.push_back(f0.sum);
            sum1.push_back(f1.sum);
            c0 = f0.carry;
            c1 = f1.carry;
        }
        for (int i = base; i < hi; ++i)
            nl.markOutput("s" + std::to_string(i),
                          b.mkMux(carry, sum0[i - base], sum1[i - base]));
        carry = b.mkMux(carry, c0, c1);
    }
    nl.markOutput("cout", carry);
    return nl;
}

TEST(SatEquiv, IdenticalNetlistsAreEquivalent) {
    const auto nl = rippleAdder(8, false);
    const auto res = sat::checkEquivalentSat(nl, nl);
    EXPECT_EQ(res.status, sat::EquivCheckResult::Status::kEquivalent);
}

TEST(SatEquiv, RippleVsSelectAdder16) {
    const auto a = rippleAdder(16, false);
    const auto b = selectAdder(16);
    const auto res = sat::checkEquivalentSat(a, b);
    EXPECT_EQ(res.status, sat::EquivCheckResult::Status::kEquivalent);
}

TEST(SatEquiv, RippleVsSelectAdder32) {
    // 64 input bits: far beyond exhaustive simulation, easy for SAT.
    const auto a = rippleAdder(32, false);
    const auto b = selectAdder(32);
    const auto res = sat::checkEquivalentSat(a, b);
    EXPECT_EQ(res.status, sat::EquivCheckResult::Status::kEquivalent);
}

TEST(SatEquiv, DetectsSingleGateBug) {
    const auto good = rippleAdder(12, false);
    const auto bad = rippleAdder(12, true);
    const auto res = sat::checkEquivalentSat(good, bad);
    ASSERT_EQ(res.status, sat::EquivCheckResult::Status::kDifferent);
    EXPECT_EQ(res.differingOutput, "cout");
    ASSERT_EQ(res.counterexample.size(), 24u);

    // Replay the counterexample on both netlists and confirm they differ.
    sim::Simulator sg(good), sb(bad);
    std::vector<std::uint64_t> words;
    for (const bool bit : res.counterexample) words.push_back(bit ? ~0ull : 0);
    const auto og = sg.run(words);
    const auto ob = sb.run(words);
    bool differs = false;
    for (std::size_t i = 0; i < og.size(); ++i)
        differs |= (og[i] & 1) != (ob[i] & 1);
    EXPECT_TRUE(differs);
}

TEST(SatEquiv, PortMismatchThrows) {
    netlist::Netlist a;
    netlist::Builder ba(a);
    a.markOutput("o", ba.input("x"));
    netlist::Netlist b;
    netlist::Builder bb(b);
    b.markOutput("o", bb.input("y"));
    EXPECT_THROW((void)sat::checkEquivalentSat(a, b), pd::Error);
}

TEST(SatEquiv, ConstantVsFreeInputDiffer) {
    netlist::Netlist a;
    netlist::Builder ba(a);
    (void)ba.input("x");
    a.markOutput("o", ba.constant(false));
    netlist::Netlist b;
    netlist::Builder bb(b);
    b.markOutput("o", bb.input("x"));
    const auto res = sat::checkEquivalentSat(a, b);
    ASSERT_EQ(res.status, sat::EquivCheckResult::Status::kDifferent);
    EXPECT_EQ(res.counterexample[0], true);
}

// ---------------------------------------------------------------------------
// DIMACS interchange
// ---------------------------------------------------------------------------

TEST(Dimacs, ParsesSimpleProblem) {
    const auto p = sat::dimacsFromString(
        "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n");
    EXPECT_EQ(p.numVars, 3u);
    ASSERT_EQ(p.clauses.size(), 2u);
    EXPECT_EQ(p.clauses[0][0], Lit(0, false));
    EXPECT_EQ(p.clauses[0][1], Lit(1, true));
}

TEST(Dimacs, LoadAndSolveRoundTrip) {
    // (x1 ∨ x2) ∧ (¬x1) forces x2.
    const auto p = sat::dimacsFromString("p cnf 2 2\n1 2 0\n-1 0\n");
    Solver s;
    sat::loadProblem(s, p);
    ASSERT_EQ(s.solve(), Result::kSat);
    EXPECT_FALSE(s.modelValue(0));
    EXPECT_TRUE(s.modelValue(1));
}

TEST(Dimacs, RejectsMalformedInputs) {
    EXPECT_THROW((void)sat::dimacsFromString("1 2 0\n"), pd::Error);
    EXPECT_THROW((void)sat::dimacsFromString("p cnf 1 1\n2 0\n"), pd::Error);
    EXPECT_THROW((void)sat::dimacsFromString("p cnf 1 2\n1 0\n"), pd::Error);
    EXPECT_THROW((void)sat::dimacsFromString("p cnf 1 1\n1\n"), pd::Error);
    EXPECT_THROW((void)sat::dimacsFromString("p dnf 1 1\n1 0\n"), pd::Error);
}

TEST(Dimacs, NetlistExportReimportsSatisfiable) {
    // A netlist CNF without constraints is satisfiable (inputs free).
    const auto nl = rippleAdder(6, false);
    std::ostringstream os;
    sat::writeDimacs(os, nl);
    const auto p = sat::dimacsFromString(os.str());
    Solver s;
    sat::loadProblem(s, p);
    EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Dimacs, MiterOfEquivalentNetlistsIsUnsat) {
    std::ostringstream os;
    sat::writeMiterDimacs(os, rippleAdder(8, false), selectAdder(8));
    Solver s;
    sat::loadProblem(s, sat::dimacsFromString(os.str()));
    EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Dimacs, MiterOfDifferentNetlistsIsSat) {
    std::ostringstream os;
    sat::writeMiterDimacs(os, rippleAdder(8, false), rippleAdder(8, true));
    Solver s;
    sat::loadProblem(s, sat::dimacsFromString(os.str()));
    EXPECT_EQ(s.solve(), Result::kSat);
}

// ---------------------------------------------------------------------------
// Canonical miter construction
// ---------------------------------------------------------------------------

TEST(Miter, RebuiltNetlistPairGivesByteIdenticalDimacs) {
    // Construct the same pair twice from scratch: the shared builder must
    // produce the identical CNF text, so the same netlist pair always
    // poses the same obligation.
    std::ostringstream first, second;
    sat::writeMiterDimacs(first, rippleAdder(8, false), selectAdder(8));
    sat::writeMiterDimacs(second, rippleAdder(8, false), selectAdder(8));
    EXPECT_EQ(first.str(), second.str());
    EXPECT_FALSE(first.str().empty());
}

TEST(Miter, DimacsExportMatchesBuildMiterCnf) {
    // writeMiterDimacs is a thin wrapper over the canonical builder: its
    // body must equal the serialized MiterCnf problem.
    const auto a = rippleAdder(6, false);
    const auto b = selectAdder(6);
    const auto miter = sat::buildMiterCnf(a, b);
    ASSERT_FALSE(miter.trivialUnsat);
    std::ostringstream fromProblem;
    sat::writeDimacs(fromProblem, miter.problem);
    std::ostringstream fromNetlists;
    sat::writeMiterDimacs(fromNetlists, a, b);
    const std::string text = fromNetlists.str();
    // Strip the leading comment line; the body is the problem.
    const auto nl = text.find('\n');
    ASSERT_NE(nl, std::string::npos);
    EXPECT_EQ(text.substr(nl + 1), fromProblem.str());
}

TEST(Miter, InputVarsFollowFirstNetlistInputOrder) {
    const auto a = rippleAdder(4, false);
    const auto b = selectAdder(4);
    const auto miter = sat::buildMiterCnf(a, b);
    EXPECT_EQ(miter.inputVars.size(), a.inputs().size());
    EXPECT_EQ(miter.outputDiffVars.size(), a.outputs().size());
    for (std::size_t o = 0; o < a.outputs().size(); ++o)
        EXPECT_EQ(miter.outputDiffVars[o].first, a.outputs()[o].name);
}

// ---------------------------------------------------------------------------
// DPLL oracle
// ---------------------------------------------------------------------------

TEST(Dpll, UnitAndContradiction) {
    sat::DpllSolver s;
    const Var x = s.newVar();
    EXPECT_TRUE(s.addClause({Lit(x, false)}));
    ASSERT_EQ(s.solve(), Result::kSat);
    EXPECT_TRUE(s.modelValue(x));

    sat::DpllSolver t;
    const Var y = t.newVar();
    t.addClause({Lit(y, false)});
    t.addClause({Lit(y, true)});
    EXPECT_EQ(t.solve(), Result::kUnsat);
}

TEST(Dpll, PigeonHole4Into3IsUnsat) {
    sat::DpllSolver s;
    std::vector<std::vector<Var>> p(4, std::vector<Var>(3));
    for (auto& row : p)
        for (auto& x : row) x = s.newVar();
    for (auto& row : p) {
        std::vector<Lit> c;
        for (const Var x : row) c.emplace_back(x, false);
        s.addClause(std::move(c));
    }
    for (int j = 0; j < 3; ++j)
        for (int i = 0; i < 4; ++i)
            for (int i2 = i + 1; i2 < 4; ++i2)
                s.addClause({Lit(p[i][j], true), Lit(p[i2][j], true)});
    EXPECT_EQ(s.solve(), Result::kUnsat);
    EXPECT_GT(s.stats().decisions, 0u);
}

TEST(Dpll, PropagationBudgetReturnsUnknownNeverGuesses) {
    // PHP(7,6) far exceeds a 100-propagation budget for DPLL.
    sat::DpllSolver s;
    std::vector<std::vector<Var>> p(7, std::vector<Var>(6));
    for (auto& row : p)
        for (auto& x : row) x = s.newVar();
    for (auto& row : p) {
        std::vector<Lit> c;
        for (const Var x : row) c.emplace_back(x, false);
        s.addClause(std::move(c));
    }
    for (int j = 0; j < 6; ++j)
        for (int i = 0; i < 7; ++i)
            for (int i2 = i + 1; i2 < 7; ++i2)
                s.addClause({Lit(p[i][j], true), Lit(p[i2][j], true)});
    EXPECT_EQ(s.solve(100), Result::kUnknown);
}

// ---------------------------------------------------------------------------
// Differential fuzz: CDCL vs the DPLL oracle
// ---------------------------------------------------------------------------

/// One random k-SAT instance fed identically to both solvers.
void differentialRound(std::mt19937_64& rng, int n, int clauses) {
    Solver cdcl;
    sat::DpllSolver dpll;
    std::vector<Var> cv, dv;
    for (int i = 0; i < n; ++i) {
        cv.push_back(cdcl.newVar());
        dv.push_back(dpll.newVar());
    }
    std::vector<std::vector<Lit>> instance;
    for (int c = 0; c < clauses; ++c) {
        std::vector<Lit> cl;
        for (int l = 0; l < 3; ++l)
            cl.emplace_back(static_cast<Var>(rng() % n), (rng() & 1) != 0);
        instance.push_back(cl);
        cdcl.addClause(std::vector<Lit>(cl));
        dpll.addClause(std::vector<Lit>(cl));
    }
    const Result rc = cdcl.solve();
    const Result rd = dpll.solve();
    // Both run unbudgeted on tiny instances: answers must agree exactly.
    ASSERT_EQ(rc, rd);
    // And each claimed model must actually satisfy every clause.
    const auto checkModel = [&](auto& solver) {
        for (const auto& cl : instance) {
            bool sat = false;
            for (const Lit l : cl)
                sat |= solver.modelValue(l.var()) != l.negated();
            EXPECT_TRUE(sat);
        }
    };
    if (rc == Result::kSat) {
        checkModel(cdcl);
        checkModel(dpll);
    }
}

TEST(Differential, RandomCnfAgreesAcrossDensities) {
    std::mt19937_64 rng(0x5eed);
    // Sweep under-, near-, and over-constrained densities so both SAT
    // and UNSAT answers are exercised.
    for (int round = 0; round < 40; ++round) {
        const int n = 8 + static_cast<int>(rng() % 8);  // 8..15 vars
        for (const double density : {2.0, 4.3, 6.0}) {
            const int clauses = static_cast<int>(density * n);
            differentialRound(rng, n, clauses);
        }
    }
}

/// The engine's exact verify obligation for one registry benchmark:
/// decompose → synthDecomposition (= raw) vs optimize → techMap (=
/// mapped). The flat XOR-of-products netlist is deliberately NOT used
/// here — on the wide arithmetic circuits its miter is astronomically
/// large, and it is not what the engine miters either.
struct FlowNetlists {
    netlist::Netlist raw;
    netlist::Netlist mapped;
};

std::vector<std::pair<std::string, FlowNetlists>> registryFlows() {
    std::vector<std::pair<std::string, FlowNetlists>> flows;
    const auto lib = synth::CellLibrary::umc130();
    for (const auto& name : circuits::benchmarkNames(false)) {
        const auto bench = circuits::makeNamedBenchmark(name);
        if (!bench || !bench->anf) continue;
        anf::VarTable vt;
        const auto outputs = bench->anf(vt);
        const auto d =
            core::decompose(vt, outputs, bench->outputNames, {});
        FlowNetlists f;
        f.raw = synth::synthDecomposition(d, vt);
        f.mapped = synth::techMap(synth::optimize(f.raw), lib);
        flows.emplace_back(name, std::move(f));
    }
    return flows;
}

TEST(Differential, RegistryMitersCdclProvesAndDpllAgrees) {
    // Every light registry circuit: the optimize→map pipeline must be
    // SAT-provably equivalence-preserving, and on the same canonical
    // miter the DPLL oracle — within its honesty budget — must never
    // contradict CDCL. (UNSAT from both, or kUnknown from a truncated
    // oracle; a SAT answer from either would be a real bug.)
    const auto flows = registryFlows();
    ASSERT_FALSE(flows.empty());
    for (const auto& [name, f] : flows) {
        const auto eq = sat::checkEquivalentSat(f.raw, f.mapped);
        EXPECT_EQ(eq.status, sat::EquivCheckResult::Status::kEquivalent)
            << name;

        const auto miter = sat::buildMiterCnf(f.raw, f.mapped);
        if (miter.trivialUnsat) continue;  // refuted during construction
        sat::DpllSolver oracle;
        for (std::size_t v = 0; v < miter.problem.numVars; ++v)
            (void)oracle.newVar();
        bool rootConflict = false;
        for (const auto& cl : miter.problem.clauses)
            if (!oracle.addClause(std::vector<Lit>(cl))) rootConflict = true;
        if (rootConflict) continue;
        // The oracle scans every clause per propagation, so its budget
        // must scale down with miter size to keep this test fast; on the
        // big multiplier miters it reports kUnknown, which is exactly
        // the honesty contract (never kSat on an UNSAT miter).
        const std::uint64_t budget =
            std::max<std::uint64_t>(20'000'000 / (miter.problem.clauses.size() + 1),
                                    2'000);
        const Result rd = oracle.solve(budget);
        EXPECT_NE(rd, Result::kSat) << name;
    }
}

// ---------------------------------------------------------------------------
// Assumptions: solveUnder() against the unit-clause semantics
// ---------------------------------------------------------------------------

TEST(Assumptions, SolveUnderAgreesWithUnitClauseEncoding) {
    // solveUnder(A) must answer exactly what a fresh solver answers for
    // the same formula with every assumption added as a unit clause —
    // that IS the semantics of solving under assumptions. The DPLL
    // oracle arbitrates the unit-clause instance independently.
    std::mt19937_64 rng(0xa55);
    for (int round = 0; round < 30; ++round) {
        const int n = 8 + static_cast<int>(rng() % 6);
        const int clauses = static_cast<int>(4.3 * n);
        std::vector<std::vector<Lit>> instance;
        for (int c = 0; c < clauses; ++c) {
            std::vector<Lit> cl;
            for (int l = 0; l < 3; ++l)
                cl.emplace_back(static_cast<Var>(rng() % n),
                                (rng() & 1) != 0);
            instance.push_back(std::move(cl));
        }
        // Assume 1..4 distinct variables with random signs.
        const int numAssumps = 1 + static_cast<int>(rng() % 4);
        std::vector<Lit> assumps;
        for (int k = 0; k < numAssumps; ++k) {
            const auto v = static_cast<Var>(rng() % n);
            bool dup = false;
            for (const Lit a : assumps) dup |= a.var() == v;
            if (!dup) assumps.emplace_back(v, (rng() & 1) != 0);
        }

        Solver under;
        Solver units;
        sat::DpllSolver oracle;
        for (int i = 0; i < n; ++i) {
            (void)under.newVar();
            (void)units.newVar();
            (void)oracle.newVar();
        }
        bool rootOk = true;
        for (const auto& cl : instance) {
            (void)under.addClause(std::vector<Lit>(cl));
            rootOk &= units.addClause(std::vector<Lit>(cl));
            oracle.addClause(std::vector<Lit>(cl));
        }
        for (const Lit a : assumps) {
            rootOk = rootOk && units.addClause({a});
            oracle.addClause({a});
        }
        const Result ru = under.solveUnder(assumps);
        const Result rc = rootOk ? units.solve() : Result::kUnsat;
        const Result rd = oracle.solve();
        ASSERT_EQ(ru, rc);
        ASSERT_EQ(ru, rd);
        if (ru == Result::kSat) {
            // The model must honor the assumptions and the formula.
            for (const Lit a : assumps)
                EXPECT_EQ(under.modelValue(a.var()), !a.negated());
            for (const auto& cl : instance) {
                bool sat = false;
                for (const Lit l : cl)
                    sat |= under.modelValue(l.var()) != l.negated();
                EXPECT_TRUE(sat);
            }
        }
    }
}

TEST(Assumptions, SolverStaysReusableAcrossCalls) {
    // kUnsat from solveUnder() means unsat UNDER THE ASSUMPTIONS — the
    // solver must stay usable, and an unconstrained solve() must still
    // find the formula satisfiable. (x1 ∨ x2) ∧ (¬x1 ∨ x2):
    Solver s;
    const Var x1 = s.newVar();
    const Var x2 = s.newVar();
    (void)s.addClause({Lit(x1, false), Lit(x2, false)});
    (void)s.addClause({Lit(x1, true), Lit(x2, false)});
    const std::vector<Lit> notX2{Lit(x2, true)};
    EXPECT_EQ(s.solveUnder(notX2), Result::kUnsat);
    EXPECT_EQ(s.solve(), Result::kSat);
    EXPECT_TRUE(s.modelValue(x2));
    // Same assumptions again: the answer must not drift after the
    // intervening solve (learned clauses persist but never flip answers).
    EXPECT_EQ(s.solveUnder(notX2), Result::kUnsat);
    const std::vector<Lit> yesX2{Lit(x2, false)};
    EXPECT_EQ(s.solveUnder(yesX2), Result::kSat);
}

TEST(Assumptions, WarmCofactorSweepRefutesMiterDeterministically) {
    // The bench_sat workload as a correctness property: enumerating all
    // 2^inputs cofactors of an equivalence miter through one warm solver
    // must refute every single one — that is a complete verification by
    // input enumeration — and two independent solvers doing the same
    // sweep must agree step for step (identical stats), since the warm
    // sweep feeds the deterministic verify path.
    const auto bench = circuits::makeNamedBenchmark("mul4");
    ASSERT_TRUE(bench && bench->anf);
    anf::VarTable vt;
    const auto outputs = bench->anf(vt);
    const auto d = core::decompose(vt, outputs, bench->outputNames, {});
    const auto raw = synth::synthDecomposition(d, vt);
    const auto mapped =
        synth::techMap(synth::optimize(raw), synth::CellLibrary::umc130());
    const auto miter = sat::buildMiterCnf(raw, mapped);
    ASSERT_FALSE(miter.trivialUnsat);
    const std::size_t numInputs = miter.inputVars.size();
    ASSERT_GT(numInputs, 0u);
    ASSERT_LE(numInputs, 10u);

    const auto sweep = [&](Solver& s) {
        sat::loadProblem(s, miter.problem);
        std::vector<Lit> assumps(numInputs, Lit());
        for (std::uint64_t vec = 0; vec < (1ull << numInputs); ++vec) {
            for (std::size_t k = 0; k < numInputs; ++k)
                assumps[k] = Lit(miter.inputVars[k],
                                 /*negated=*/!((vec >> k) & 1));
            ASSERT_EQ(s.solveUnder(assumps), Result::kUnsat)
                << "cofactor " << vec;
        }
    };
    Solver a;
    Solver b;
    sweep(a);
    sweep(b);
    EXPECT_EQ(a.stats().propagations, b.stats().propagations);
    EXPECT_EQ(a.stats().conflicts, b.stats().conflicts);
    EXPECT_EQ(a.stats().decisions, b.stats().decisions);
    EXPECT_EQ(a.stats().learnedClauses, b.stats().learnedClauses);
}

// ---------------------------------------------------------------------------
// Budgets: truncation is reported, never guessed
// ---------------------------------------------------------------------------

TEST(Budget, EquivCheckUnderTinyBudgetReportsUnknown) {
    // A hard-enough miter under a 1-conflict budget must come back
    // kUnknown + budgetExhausted — not a wrong kDifferent.
    const auto a = rippleAdder(16, false);
    const auto b = selectAdder(16);
    sat::EquivSatOptions opt;
    opt.conflictBudget = 1;
    const auto res = sat::checkEquivalentSat(a, b, opt);
    if (res.status != sat::EquivCheckResult::Status::kEquivalent) {
        EXPECT_EQ(res.status, sat::EquivCheckResult::Status::kUnknown);
        EXPECT_TRUE(res.budgetExhausted);
    }
}

TEST(Budget, PropagationBudgetStopsCdclHonestly) {
    Solver s(sat::SolverOptions{.propagationBudget = 5});
    std::vector<std::vector<Var>> p(8, std::vector<Var>(7));
    for (auto& row : p)
        for (auto& x : row) x = s.newVar();
    for (auto& row : p) {
        std::vector<Lit> c;
        for (const Var x : row) c.emplace_back(x, false);
        s.addClause(std::move(c));
    }
    for (int j = 0; j < 7; ++j)
        for (int i = 0; i < 8; ++i)
            for (int i2 = i + 1; i2 < 8; ++i2)
                s.addClause(Lit(p[i][j], true), Lit(p[i2][j], true));
    EXPECT_EQ(s.solve(), Result::kUnknown);
    EXPECT_EQ(s.lastStop(), sat::StopCause::kPropagationBudget);
    // The solver stays reusable after a budgeted stop: lifting the
    // budget must produce the real answer.
    Solver fresh;
    for (std::size_t v = 0; v < s.numVars(); ++v) (void)fresh.newVar();
    std::vector<std::vector<Lit>> clauses;
    s.forEachProblemClause([&](std::span<const Lit> cl) {
        clauses.emplace_back(cl.begin(), cl.end());
    });
    for (auto& cl : clauses) fresh.addClause(std::move(cl));
    EXPECT_EQ(fresh.solve(), Result::kUnsat);
}

}  // namespace
}  // namespace pd
