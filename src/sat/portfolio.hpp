// Deterministic SAT portfolio.
//
// Races N independently configured CDCL searchers on one CNF and reports
// a result that does not depend on thread scheduling, core count, or
// wall-clock luck. The determinism contract:
//
//   - searcher i's configuration is a pure function of i
//     (searcherOptions): searcher 0 is the canonical solver with default
//     branching; higher indices vary seed and polarity;
//   - every searcher runs under the same per-searcher conflict /
//     propagation budgets, so "searcher i finishes within budget" is a
//     deterministic fact about the CNF, not about timing;
//   - the winner is the LOWEST-index searcher that reaches a definitive
//     kSat/kUnsat answer within its own budget — a fixed tie-break, not
//     first-past-the-post;
//   - only searchers ABOVE the winning index are ever cancelled
//     (cooperative stop flag), so searchers 0..winner always run to
//     their deterministic conclusion and the aggregate statistics over
//     them are reproducible;
//   - with unlimited budgets searcher 0 always finishes, so when no
//     verify budget is set the report is bit-identical for any searcher
//     count: racing only buys wall clock, never changes answers. Under a
//     budget, a higher-index searcher may answer where searcher 0 ran
//     out, so the answer depends on the count (never on the schedule).
//
// The searchers run as util::runLanes lanes on a caller-supplied
// util::ThreadPool (the engine's job pool): each lane claims the next
// searcher index from one atomic cursor and stops claiming above the
// lowest definitive index. Helper lanes run only on idle pool workers,
// so calling from a task of the same pool cannot deadlock; with no pool
// or no idle worker the caller tries the searchers in index order and
// stops at the first definitive answer, which yields the identical
// winner and statistics.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "util/pool.hpp"

namespace pd::sat {

struct PortfolioOptions {
    std::size_t searchers = 1;            ///< clamped up to 1
    std::uint64_t conflictBudget = 0;     ///< per searcher; 0 = unlimited
    std::uint64_t propagationBudget = 0;  ///< per searcher; 0 = unlimited
    util::ThreadPool* pool = nullptr;     ///< null ⇒ sequential
};

struct PortfolioResult {
    Result result = Result::kUnknown;
    /// Index of the searcher whose answer is reported; -1 when every
    /// searcher exhausted its budget (result stays kUnknown).
    int winner = -1;
    /// Sum over searchers 0..winner (all searchers when winner == -1);
    /// cancelled searchers never contribute, keeping this reproducible.
    SolverStats stats;
    /// True iff no searcher reached a definitive answer within budget.
    bool budgetExhausted = false;
    /// The winning searcher's model on kSat, indexed by variable.
    std::vector<bool> model;
};

/// The fixed per-index searcher configuration (budgets copied from
/// `opt`). Index 0 is the canonical solver: seed 0, false-first phases.
[[nodiscard]] SolverOptions searcherOptions(std::size_t index,
                                            const PortfolioOptions& opt);

/// Solves `problem` under the portfolio determinism contract above.
[[nodiscard]] PortfolioResult solvePortfolio(const DimacsProblem& problem,
                                             const PortfolioOptions& opt);

}  // namespace pd::sat
