// SAT-based combinational equivalence checking.
//
// Builds the canonical miter (sat/miter.hpp) over two netlists with
// identically named input and output ports and asks the CDCL solver
// whether any input assignment can distinguish them. UNSAT is a proof of
// equivalence over the full input space — this is how circuits too wide
// for exhaustive simulation (e.g. the 32-bit LOD of Table 1) are verified.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace pd::sat {

struct EquivCheckResult {
    enum class Status : std::uint8_t { kEquivalent, kDifferent, kUnknown };
    Status status = Status::kUnknown;
    /// On kDifferent: one distinguishing input assignment, in the input
    /// order of the first netlist.
    std::vector<bool> counterexample;
    /// The output name where the two circuits disagree on counterexample.
    std::string differingOutput;
    // Search statistics of the one solve (deterministic: the solver's
    // decisions depend only on the CNF and the budgets).
    std::uint64_t conflicts = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned = 0;
    /// True iff the search hit its conflict/propagation budget without a
    /// definitive answer (status is then kUnknown, never a guess).
    bool budgetExhausted = false;
};

/// Resource limits for an equivalence check; 0 means unlimited.
struct EquivSatOptions {
    std::uint64_t conflictBudget = 0;
    std::uint64_t propagationBudget = 0;
};

/// Proves or refutes equivalence of two netlists. Inputs are matched by
/// name (both netlists must have the same input-name set); outputs are
/// matched by name likewise. Throws pd::Error if ports cannot be matched.
[[nodiscard]] EquivCheckResult checkEquivalentSat(
    const netlist::Netlist& a, const netlist::Netlist& b,
    const EquivSatOptions& opt = {});

}  // namespace pd::sat
