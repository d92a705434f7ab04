// SAT-based combinational equivalence checking.
//
// Builds the canonical miter (sat/miter.hpp) over two netlists with
// identically named input and output ports and asks the CDCL solver —
// or a deterministic portfolio of them (sat/portfolio.hpp) — whether any
// input assignment can distinguish them. UNSAT is a proof of equivalence
// over the full input space — this is how circuits too wide for
// exhaustive simulation (e.g. the 32-bit LOD of Table 1) are verified.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/pool.hpp"

namespace pd::sat {

struct EquivCheckResult {
    enum class Status : std::uint8_t { kEquivalent, kDifferent, kUnknown };
    Status status = Status::kUnknown;
    /// On kDifferent: one distinguishing input assignment, in the input
    /// order of the first netlist.
    std::vector<bool> counterexample;
    /// The output name where the two circuits disagree on counterexample.
    std::string differingOutput;
    // Search statistics, aggregated over portfolio searchers 0..winner
    // (deterministic — see the portfolio contract).
    std::uint64_t conflicts = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned = 0;
    /// Portfolio searcher whose answer is reported (0 for the canonical
    /// single solver; -1 when every searcher exhausted its budget).
    int winner = 0;
    /// True iff the search hit its conflict/propagation budget without a
    /// definitive answer (status is then kUnknown, never a guess).
    bool budgetExhausted = false;
};

/// Resource limits and parallelism for an equivalence check. Budgets are
/// per portfolio searcher; 0 means unlimited.
struct EquivSatOptions {
    std::size_t searchers = 1;
    std::uint64_t conflictBudget = 0;
    std::uint64_t propagationBudget = 0;
    util::ThreadPool* pool = nullptr;  ///< null ⇒ sequential searchers
};

/// Proves or refutes equivalence of two netlists. Inputs are matched by
/// name (both netlists must have the same input-name set); outputs are
/// matched by name likewise. Throws pd::Error if ports cannot be matched.
[[nodiscard]] EquivCheckResult checkEquivalentSat(const netlist::Netlist& a,
                                                  const netlist::Netlist& b,
                                                  const EquivSatOptions& opt);

/// Single-searcher convenience overload; `conflictBudget` bounds the
/// search (0 = unlimited).
[[nodiscard]] EquivCheckResult checkEquivalentSat(
    const netlist::Netlist& a, const netlist::Netlist& b,
    std::uint64_t conflictBudget = 0);

}  // namespace pd::sat
