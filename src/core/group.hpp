// Group selection (paper §5.1).
//
// While primary-input bits are still visible in the expressions, the
// heuristic picks the ⌊k/r⌋ least significant *available* bits of each of
// the r input integers (which may yield a group smaller than k). Once the
// primary inputs are exhausted, candidate k-subsets of the remaining
// (derived) variables are tried exhaustively — scoring each candidate by
// the literal count of the rewritten expression and keeping the best.
//
// The scoring sweep itself lives in core/probe: incremental shared-state
// probes, candidate dedup/pruning, and deterministic wave parallelism.
// This header owns candidate *generation* and the selection entry points.
#pragma once

#include <cstddef>
#include <vector>

#include "anf/anf.hpp"
#include "ring/identity_db.hpp"

namespace pd::core::PD_WIDTH_NS {

namespace probe {
class ProbeContext;
struct SweepOutcome;
}  // namespace probe

struct GroupOptions {
    std::size_t k = 4;
    /// Cap on the number of candidate subsets probed in the exhaustive
    /// phase; beyond it, a sliding-window heuristic over variable ids is
    /// used (derived variables created together tend to belong together).
    /// The decomposer always runs at this default, which every job key
    /// carries (engine::optionsFingerprint's `|x` segment).
    std::size_t maxCombinations = 4000;
    /// Merge-attempt budget applied to each candidate's probe findBasis
    /// (0 = unlimited) — the anytime knob, forwarded from
    /// DecomposeOptions::mergeAttemptBudget.
    std::size_t probeMergeBudget = 0;
};

/// What the next group is chosen among: either the choice is forced (no
/// probing needed) or `candidates` go to the probe sweep in tie-break
/// order.
struct GroupCandidates {
    /// Probe candidates, in the order that breaks score ties (earlier
    /// wins). Empty when the choice is `forced` (or there is nothing
    /// left to group).
    std::vector<anf::VarSet> candidates;
    /// The group when no probing is needed: a single distinct heuristic
    /// candidate, or all remaining derived variables when ≤ k survive.
    /// Empty set (isOne) otherwise.
    anf::VarSet forced;
};

/// Candidate generation for one findGroup decision (exposed for the
/// probe bench and the differential tests).
[[nodiscard]] GroupCandidates groupCandidates(const anf::Anf& folded,
                                              const anf::VarTable& vars,
                                              const anf::VarSet& tags,
                                              const GroupOptions& opt);

/// Full selection: candidate generation plus the probe sweep, run
/// through `ctx` (shared across a decompose run for incremental scoring
/// and parallelism). The outcome carries the winner's raw findBasis
/// result when the sweep scored it — see probe::SweepOutcome.
[[nodiscard]] probe::SweepOutcome selectGroup(const anf::Anf& folded,
                                              const anf::VarTable& vars,
                                              const anf::VarSet& tags,
                                              const ring::IdentityDb& ids,
                                              const GroupOptions& opt,
                                              probe::ProbeContext& ctx);

/// Selects the next group from the variables visible in `folded`,
/// excluding `tags`. Returns an empty set when no variables remain.
/// When `budgetExhaustedOut` is non-null, it is set to true if any
/// candidate probe was truncated by probeMergeBudget (scores may then
/// differ from an unbudgeted run's). Convenience wrapper over
/// selectGroup with a throwaway sequential probe context.
[[nodiscard]] anf::VarSet findGroup(const anf::Anf& folded,
                                    const anf::VarTable& vars,
                                    const anf::VarSet& tags,
                                    const ring::IdentityDb& ids,
                                    const GroupOptions& opt,
                                    bool* budgetExhaustedOut = nullptr);

}  // namespace pd::core::PD_WIDTH_NS
