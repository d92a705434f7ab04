#include "sat/equiv.hpp"

#include "sat/miter.hpp"

namespace pd::sat {

EquivCheckResult checkEquivalentSat(const netlist::Netlist& a,
                                    const netlist::Netlist& b,
                                    const EquivSatOptions& opt) {
    const MiterCnf miter = buildMiterCnf(a, b);
    EquivCheckResult res;
    if (miter.trivialUnsat) {
        // Clause construction alone refuted the miter: equivalent, no
        // search performed.
        res.status = EquivCheckResult::Status::kEquivalent;
        return res;
    }

    SolverOptions so;
    so.conflictBudget = opt.conflictBudget;
    so.propagationBudget = opt.propagationBudget;
    Solver solver(so);
    loadProblem(solver, miter.problem);
    const Result result = solver.solve();

    const SolverStats& stats = solver.stats();
    res.conflicts = stats.conflicts;
    res.propagations = stats.propagations;
    res.restarts = stats.restarts;
    res.learned = stats.learnedClauses;
    switch (result) {
        case Result::kUnsat:
            res.status = EquivCheckResult::Status::kEquivalent;
            break;
        case Result::kUnknown:
            res.status = EquivCheckResult::Status::kUnknown;
            res.budgetExhausted = true;
            break;
        case Result::kSat: {
            res.status = EquivCheckResult::Status::kDifferent;
            res.counterexample.reserve(miter.inputVars.size());
            for (const Var v : miter.inputVars)
                res.counterexample.push_back(solver.modelValue(v));
            for (const auto& [name, d] : miter.outputDiffVars)
                if (solver.modelValue(d)) {
                    res.differingOutput = name;
                    break;
                }
            break;
        }
    }
    return res;
}

}  // namespace pd::sat
