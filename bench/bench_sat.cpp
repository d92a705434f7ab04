// SAT verification microbench: CDCL vs the naive DPLL oracle on the
// mul4 verify obligation — the canonical miter between the decomposed
// raw netlist (synthDecomposition) and its optimized+mapped form,
// exactly the CNF the engine's --verify-threads mode refutes.
//
// What is measured, precisely
// ---------------------------
// Both engines completely refute the mul4 miter, and the gated ratio is
// propagation-phase THROUGHPUT: implications derived per second of wall
// time spent inside the propagation routine (SolverStats /
// DpllStats::propagationNanos — propagate() for CDCL, propagateAll()
// for DPLL). Decision, conflict-analysis, and backtracking time is
// excluded on both sides; each engine is charged exactly for how fast
// it derives implications from the same clauses.
//
// The refutation workloads are each engine's natural complete proof:
//
//  * DPLL refutes the miter with its native solve. This is the oracle's
//    BEST case, not a strawman: mul4 has 8 primary inputs, so
//    chronological input-first enumeration finishes in ~74k elementary
//    steps, and the miter CNF is emitted in topological order, so each
//    scan pass of propagateAll() resolves an entire gate cascade.
//    What the naive scan cannot hide is per-implication cost: every
//    fixpoint pass touches all ~3.5k clauses to find the few that are
//    unit.
//  * CDCL refutes the miter as a warm 256-cofactor sweep: one solver,
//    solveUnder() once per input vector (a complete enumeration of the
//    8-bit input space, reusing learned clauses across cofactors — the
//    workload the assumptions interface exists for). Two-watched-literal
//    propagation touches only clauses indexed by the newly falsified
//    literal, plus the binary-clause CSR slab, so its per-implication
//    cost stays flat. The canonical native solve() proof is also run
//    and reported (cdcl_solve_mul4_ms is a tracked metric); the sweep
//    is used for the throughput ratio because it propagates on warm
//    data structures, which is how the engine's verify path uses the
//    solver shard-wide.
//
// CDCL and DPLL reps are interleaved and each side takes its best rep,
// so a machine-load spike cannot bias the ratio either way.
//
// Results go to BENCH_sat.json ("pd-bench-sat-v1"):
//
//   {
//     "schema": "pd-bench-sat-v1",
//     "metrics": {                // tracked by scripts/check_hotpath.py
//       "cdcl_solve_mul4_ms": f,  // full UNSAT proof, default solver
//       "miter_build_mul4_ms": f
//     },
//     "reference": {              // context, not gated
//       "dpll_mul4_ms": f,        // DPLL full native proof, end to end
//       "cdcl_props_per_sec": f,  // warm sweep, propagation phase
//       "dpll_props_per_sec": f,  // native proof, propagation phase
//       "sweep_props": u, "sweep_conflicts": u, "reps": u
//     },
//     "speedups": {               // measured within one run — the
//       "cdcl_vs_dpll_props_per_sec": f   // machine-independent gate
//     },
//     "miter": {"vars": u, "clauses": u, "cdcl_conflicts": u}
//   }
//
// The committed baseline floor (via check_hotpath.py) keeps the ratio
// from silently collapsing, e.g. by an accidental scan-all-clauses
// regression in the watch lists.
#include <chrono>
#include <fstream>
#include <iostream>

#include "circuits/registry.hpp"
#include "core/decomposer.hpp"
#include "sat/dimacs.hpp"
#include "sat/dpll.hpp"
#include "sat/miter.hpp"
#include "sat/solver.hpp"
#include "synth/celllib.hpp"
#include "synth/hier_synth.hpp"
#include "synth/mapper.hpp"
#include "synth/opt.hpp"
#include "util/json_writer.hpp"

namespace {

double msSince(const std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

int main(int argc, char** argv) {
    const std::string jsonPath = argc > 1 ? argv[1] : "BENCH_sat.json";

    // The engine's mul4 verify obligation.
    const auto bench = pd::circuits::makeNamedBenchmark("mul4");
    if (!bench || !bench->anf) {
        std::cerr << "mul4 benchmark unavailable\n";
        return 1;
    }
    pd::anf::VarTable vt;
    const auto outputs = bench->anf(vt);
    const auto d = pd::core::decompose(vt, outputs, bench->outputNames, {});
    const auto raw = pd::synth::synthDecomposition(d, vt);
    const auto lib = pd::synth::CellLibrary::umc130();
    const auto mapped = pd::synth::techMap(pd::synth::optimize(raw), lib);

    const auto buildStart = std::chrono::steady_clock::now();
    const auto miter = pd::sat::buildMiterCnf(raw, mapped);
    const double miterBuildMs = msSince(buildStart);
    if (miter.trivialUnsat) {
        std::cerr << "mul4 miter trivially unsat — nothing to measure\n";
        return 1;
    }
    const std::size_t numInputs = miter.inputVars.size();
    if (numInputs == 0 || numInputs > 20) {
        std::cerr << "unexpected miter input count " << numInputs << "\n";
        return 1;
    }

    // CDCL: full native refutation, default solver, best of 3.
    // cdcl_solve_mul4_ms is the tracked end-to-end metric.
    double cdclMs = 1e300;
    std::uint64_t cdclConflicts = 0;
    for (int rep = 0; rep < 3; ++rep) {
        pd::sat::Solver solver;
        pd::sat::loadProblem(solver, miter.problem);
        const auto start = std::chrono::steady_clock::now();
        const auto result = solver.solve();
        const double ms = msSince(start);
        if (result != pd::sat::Result::kUnsat) {
            std::cerr << "mul4 miter did not refute (result "
                      << static_cast<int>(result) << ")\n";
            return 1;
        }
        if (ms < cdclMs) {
            cdclMs = ms;
            cdclConflicts = solver.stats().conflicts;
        }
    }

    // Propagation-phase throughput, interleaved reps (see file header).
    constexpr int kReps = 5;
    constexpr std::uint64_t kDpllBudget = 4'000'000;  // safety valve only
    double cdclPropsPerSec = 0.0;
    double dpllPropsPerSec = 0.0;
    double dpllMs = 1e300;
    std::uint64_t sweepProps = 0;
    std::uint64_t sweepConflicts = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        // CDCL rep: warm cofactor sweep over all 2^numInputs vectors.
        {
            pd::sat::Solver solver;
            pd::sat::loadProblem(solver, miter.problem);
            std::vector<pd::sat::Lit> assumps(numInputs, pd::sat::Lit());
            for (std::uint64_t vec = 0; vec < (1ull << numInputs); ++vec) {
                for (std::size_t k = 0; k < numInputs; ++k)
                    assumps[k] = pd::sat::Lit(miter.inputVars[k],
                                              /*negated=*/!((vec >> k) & 1));
                if (solver.solveUnder(assumps) != pd::sat::Result::kUnsat) {
                    std::cerr << "cofactor " << vec << " did not refute\n";
                    return 1;
                }
            }
            const auto& st = solver.stats();
            if (st.propagationNanos == 0) {
                std::cerr << "no propagation time recorded\n";
                return 1;
            }
            const double rate = static_cast<double>(st.propagations) /
                                (static_cast<double>(st.propagationNanos) /
                                 1e9);
            if (rate > cdclPropsPerSec) {
                cdclPropsPerSec = rate;
                sweepProps = st.propagations;
                sweepConflicts = st.conflicts;
            }
        }
        // DPLL rep: full native proof.
        {
            pd::sat::DpllSolver oracle;
            for (std::size_t v = 0; v < miter.problem.numVars; ++v)
                (void)oracle.newVar();
            for (const auto& clause : miter.problem.clauses)
                oracle.addClause(std::vector<pd::sat::Lit>(clause));
            const auto start = std::chrono::steady_clock::now();
            const auto result = oracle.solve(kDpllBudget);
            const double ms = msSince(start);
            if (result != pd::sat::Result::kUnsat) {
                std::cerr << "DPLL did not refute the miter (result "
                          << static_cast<int>(result) << ")\n";
                return 1;
            }
            const auto& st = oracle.stats();
            if (st.propagationNanos == 0) {
                std::cerr << "no DPLL propagation time recorded\n";
                return 1;
            }
            const double rate = static_cast<double>(st.propagations) /
                                (static_cast<double>(st.propagationNanos) /
                                 1e9);
            if (rate > dpllPropsPerSec) dpllPropsPerSec = rate;
            if (ms < dpllMs) dpllMs = ms;
        }
    }

    const double speedup = cdclPropsPerSec / dpllPropsPerSec;

    std::cout << "mul4 miter: " << miter.problem.numVars << " vars, "
              << miter.problem.clauses.size() << " clauses (built in "
              << miterBuildMs << " ms)\n"
              << "cdcl native: UNSAT in " << cdclMs << " ms, "
              << cdclConflicts << " conflicts\n"
              << "cdcl sweep: " << sweepProps << " props, "
              << sweepConflicts << " conflicts, "
              << cdclPropsPerSec / 1e6 << " Mprops/s (propagation phase)\n"
              << "dpll native: UNSAT in " << dpllMs << " ms, "
              << dpllPropsPerSec / 1e6 << " Mprops/s (propagation phase)\n"
              << "cdcl/dpll propagation throughput: " << speedup << "x\n";

    std::ofstream os(jsonPath);
    if (!os) {
        std::cerr << "cannot write " << jsonPath << "\n";
        return 1;
    }
    pd::util::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "pd-bench-sat-v1");
    w.key("metrics").beginObject();
    w.field("cdcl_solve_mul4_ms", cdclMs);
    w.field("miter_build_mul4_ms", miterBuildMs);
    w.endObject();
    w.key("reference").beginObject();
    w.field("dpll_mul4_ms", dpllMs);
    w.field("cdcl_props_per_sec", cdclPropsPerSec);
    w.field("dpll_props_per_sec", dpllPropsPerSec);
    w.field("sweep_props", sweepProps);
    w.field("sweep_conflicts", sweepConflicts);
    w.field("reps", static_cast<std::uint64_t>(kReps));
    w.endObject();
    w.key("speedups").beginObject();
    w.field("cdcl_vs_dpll_props_per_sec", speedup);
    w.endObject();
    w.key("miter").beginObject();
    w.field("vars", static_cast<std::uint64_t>(miter.problem.numVars));
    w.field("clauses",
            static_cast<std::uint64_t>(miter.problem.clauses.size()));
    w.field("cdcl_conflicts", cdclConflicts);
    w.endObject();
    w.endObject();
    std::cout << "wrote " << jsonPath << "\n";
    return 0;
}
