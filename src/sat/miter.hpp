// Canonical equivalence-miter construction.
//
// One builder shared by every consumer — checkEquivalentSat, the DIMACS
// exporter, the portfolio verify mode, and bench_sat — so a given
// netlist pair always produces the *same* CNF: identical variable
// numbering, identical clause order, byte-identical DIMACS text, so a
// verify obligation exported or benchmarked is the one the engine
// solves. Regression-tested in tests/sat_test.cpp.
//
// Variable numbering contract:
//   - nets of `a` in net order, then nets of `b` in net order (Tseitin
//     encoding via sat/cnf.hpp), then one XOR-difference variable per
//     output in the output order of `a`;
//   - inputs are tied pairwise by port name, outputs matched by name;
//   - clause order: root-level units first (the builder solver
//     simplifies unit clauses away from storage), then problem clauses
//     in construction order.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"

namespace pd::sat {

/// The canonical miter CNF of a netlist pair. UNSAT ⇔ equivalent.
struct MiterCnf {
    DimacsProblem problem;
    /// Solver variable of each input of `a`, in a's input order —
    /// counterexample extraction.
    std::vector<Var> inputVars;
    /// (output name, XOR-difference variable) in a's output order.
    std::vector<std::pair<std::string, Var>> outputDiffVars;
    /// Construction itself refuted the miter (e.g. the two netlists
    /// simplify to identical functions at the root level). `problem` is
    /// then truncated and must not be solved; the answer is UNSAT.
    bool trivialUnsat = false;
};

/// Builds the canonical miter. Inputs and outputs are matched by name;
/// throws pd::Error when the port sets differ.
[[nodiscard]] MiterCnf buildMiterCnf(const netlist::Netlist& a,
                                     const netlist::Netlist& b);

}  // namespace pd::sat
