// The Progressive Decomposition driver (paper Fig. 5).
//
//   progressiveDecomposition(List L):
//     identities = ∅
//     while (true):
//       G      = findGroup(L, k)
//       (B, C) = findBasis(L, G, identities)
//       (B, C) = minimizeBasisUsingLinearDependence(B, C)
//       (B, C) = improveBasisUsingSizeReduction(B, C)
//       identities ∪= findIdentities(B)
//       B      = reduceBasisUsingIdentities(B, identities)
//       L      = rewriteExpr(L, B)
//       identities = rewriteExpr(identities, B)
//       if all elements of L are literals: break
//
// The driver owns the multi-output folding (tag variables K_i), the fresh
// variable allocation, the identity database lifetime, and the stop
// rules. A run converges when every element of L is a literal. A block
// whose leaders would all be bare variables of its own group (a rename)
// makes no progress and is never committed: when every output is a
// function of at most k variables, the final output step makes the
// outputs themselves the leaders of one block over those variables and
// the run converges; otherwise the run ends with the residual it had.
// The safety bounds (variable headroom and capacity, stall detection,
// iteration cap) end it the same way. ARCHITECTURE.md §Stop rules.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "anf/anf.hpp"
#include "core/hierarchy.hpp"

namespace pd::util {
class ThreadPool;
}

namespace pd::ring {
class IdentityDb;
}

namespace pd::core {

/// Default per-phase merge-attempt budget. Calibrated empirically: the
/// worst findBasis call across the light batch and both multipliers
/// performs ~200 membership solves (probe phases included), so 100k is
/// three orders of magnitude of headroom — results on every registered
/// benchmark are bit-identical to an unbudgeted run — while still
/// bounding a pathological phase (the quadratic merge scan over a
/// runaway pair list) instead of letting it go open-ended.
inline constexpr std::size_t kDefaultMergeAttemptBudget = 100000;

/// One counter per stop rule; every run bumps exactly one. The engine
/// registers them up front so every report carries them, zeros included.
inline constexpr std::array<const char*, 6> kStopCounters = {
    "decompose.stop.converged", "decompose.stop.rename",
    "decompose.stop.headroom",  "decompose.stop.capacity",
    "decompose.stop.stall",     "decompose.stop.iterations"};

struct DecomposeOptions {
    /// Group size (the paper always uses 4).
    std::size_t k = 4;
    /// Product arity bound for the identity scan (paper: "expression trees
    /// with depth smaller than some constant").
    int identityMaxDegree = 2;
    bool useLinearMinimize = true;
    bool useSizeReduction = true;
    bool useIdentities = true;
    bool useNullspaceMerging = true;
    /// Add free complement generators (1⊕v) to monomial null-spaces —
    /// stronger than the paper; off by default, exercised by ablations.
    bool complementNullspace = false;
    std::size_t maxIterations = 256;
    std::size_t maxExhaustiveCombinations = 4000;
    /// Anytime mode: cap on null-space membership solves per iteration
    /// (one findBasis merge phase); 0 = unlimited. When an iteration runs
    /// out, its merge loop stops with the best pair list found so far and
    /// the decomposition is flagged budgetExhausted — every light
    /// benchmark finishes far below the default, so results there are
    /// identical to an unbudgeted run, while multiplier-class jobs become
    /// tractable instead of open-ended.
    std::size_t mergeAttemptBudget = kDefaultMergeAttemptBudget;
    bool recordTrace = true;
    /// Pool the group-selection probe sweep fans out on (the engine's job
    /// pool): one lane per pool thread, the calling thread's included
    /// (null = sequential). Purely a scheduling input: the sweep is
    /// deterministic by construction, so results are bit-identical at
    /// every pool size. Never serialized, never part of the engine's
    /// options fingerprint or cache keys; runtime wiring only.
    std::shared_ptr<util::ThreadPool> probePool;
    /// Bench/test hook forwarded to the probe context: reports every
    /// sweep's inputs (folded expression, candidates, identity-database
    /// snapshot) so the probe workload of a real run can be replayed.
    /// Never affects results; never serialized.
    std::function<void(const anf::Anf&, const std::vector<anf::VarSet>&,
                       const ring::IdentityDb&)>
        probeCaptureHook;
};

/// Runs Progressive Decomposition over a list of output expressions.
///
/// `vars` must be the table the expressions were built against; the
/// decomposer allocates tag and derived variables in it.
[[nodiscard]] Decomposition decompose(anf::VarTable& vars,
                                      const std::vector<anf::Anf>& outputs,
                                      std::vector<std::string> outputNames,
                                      const DecomposeOptions& opt = {});

}  // namespace pd::core
