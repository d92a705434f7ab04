#include "sat/portfolio.hpp"

#include <algorithm>
#include <atomic>

namespace pd::sat {

SolverOptions searcherOptions(std::size_t index, const PortfolioOptions& opt) {
    SolverOptions so;
    so.conflictBudget = opt.conflictBudget;
    so.propagationBudget = opt.propagationBudget;
    if (index == 0) return so;  // canonical: seed 0, false-first
    // Distinct odd multiplier keeps seeds well apart; polarity cycles
    // through all three modes so nearby indices differ in kind, not just
    // in seed.
    so.seed = 0x517cc1b727220a95ull * static_cast<std::uint64_t>(index);
    switch (index % 3) {
        case 0: so.polarity = SolverOptions::Polarity::kFalse; break;
        case 1: so.polarity = SolverOptions::Polarity::kTrue; break;
        case 2: so.polarity = SolverOptions::Polarity::kHashed; break;
    }
    return so;
}

namespace {

struct Searcher {
    Result result = Result::kUnknown;
    SolverStats stats;
    std::vector<bool> model;
    std::atomic<bool> stop{false};
};

void runSearcher(std::size_t index, const DimacsProblem& problem,
                 const PortfolioOptions& opt, Searcher& slot) {
    SolverOptions so = searcherOptions(index, opt);
    so.stop = &slot.stop;
    Solver solver(so);
    loadProblem(solver, problem);
    slot.result = solver.solve();
    slot.stats = solver.stats();
    if (slot.result == Result::kSat) {
        slot.model.resize(problem.numVars);
        for (Var v = 0; v < problem.numVars; ++v)
            slot.model[v] = solver.modelValue(v);
    }
}

PortfolioResult harvest(std::vector<Searcher>& slots, int winner) {
    PortfolioResult out;
    out.winner = winner;
    const std::size_t upTo =
        winner >= 0 ? static_cast<std::size_t>(winner) + 1 : slots.size();
    for (std::size_t i = 0; i < upTo; ++i) {
        out.stats.decisions += slots[i].stats.decisions;
        out.stats.propagations += slots[i].stats.propagations;
        out.stats.conflicts += slots[i].stats.conflicts;
        out.stats.restarts += slots[i].stats.restarts;
        out.stats.learnedClauses += slots[i].stats.learnedClauses;
        out.stats.deletedClauses += slots[i].stats.deletedClauses;
    }
    if (winner >= 0) {
        out.result = slots[static_cast<std::size_t>(winner)].result;
        out.model = std::move(slots[static_cast<std::size_t>(winner)].model);
    } else {
        out.budgetExhausted = true;
    }
    return out;
}

}  // namespace

PortfolioResult solvePortfolio(const DimacsProblem& problem,
                               const PortfolioOptions& opt) {
    const std::size_t n = std::max<std::size_t>(1, opt.searchers);
    std::vector<Searcher> slots(n);

    // Lanes claim searcher indices in order from one cursor. `lowest`
    // tracks the lowest index with a definitive answer: no lane claims
    // above it, and a definitive searcher cancels only searchers ABOVE
    // it, so every searcher at or below the final winner runs to its
    // deterministic conclusion and neither the winner nor the 0..winner
    // statistics depend on the schedule. With one lane this is the
    // index-order scan that stops at the first definitive answer.
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> lowest{n};
    util::runLanes(opt.pool, n, [&](std::size_t) {
        for (;;) {
            const std::size_t i = cursor.fetch_add(1);
            if (i >= n || i > lowest.load()) return;
            runSearcher(i, problem, opt, slots[i]);
            if (slots[i].result == Result::kUnknown) continue;
            std::size_t cur = lowest.load();
            while (i < cur && !lowest.compare_exchange_weak(cur, i)) {
            }
            for (std::size_t j = lowest.load() + 1; j < n; ++j)
                slots[j].stop.store(true, std::memory_order_relaxed);
        }
    });

    const std::size_t best = lowest.load();
    return harvest(slots, best < n ? static_cast<int>(best) : -1);
}

}  // namespace pd::sat
