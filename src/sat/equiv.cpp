#include "sat/equiv.hpp"

#include "sat/miter.hpp"
#include "sat/portfolio.hpp"

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

    PortfolioOptions popt;
    popt.searchers = opt.searchers;
    popt.conflictBudget = opt.conflictBudget;
    popt.propagationBudget = opt.propagationBudget;
    popt.pool = opt.pool;
    PortfolioResult pr = solvePortfolio(miter.problem, popt);

    res.conflicts = pr.stats.conflicts;
    res.propagations = pr.stats.propagations;
    res.restarts = pr.stats.restarts;
    res.learned = pr.stats.learnedClauses;
    res.winner = pr.winner;
    res.budgetExhausted = pr.budgetExhausted;
    switch (pr.result) {
        case Result::kUnsat:
            res.status = EquivCheckResult::Status::kEquivalent;
            break;
        case Result::kUnknown:
            res.status = EquivCheckResult::Status::kUnknown;
            break;
        case Result::kSat: {
            res.status = EquivCheckResult::Status::kDifferent;
            res.counterexample.reserve(miter.inputVars.size());
            for (const Var v : miter.inputVars)
                res.counterexample.push_back(pr.model[v]);
            for (const auto& [name, d] : miter.outputDiffVars)
                if (pr.model[d]) {
                    res.differingOutput = name;
                    break;
                }
            break;
        }
    }
    return res;
}

EquivCheckResult checkEquivalentSat(const netlist::Netlist& a,
                                    const netlist::Netlist& b,
                                    std::uint64_t conflictBudget) {
    EquivSatOptions opt;
    opt.conflictBudget = conflictBudget;
    return checkEquivalentSat(a, b, opt);
}

}  // namespace pd::sat
