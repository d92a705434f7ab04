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
// variable allocation, the identity database lifetime, and the safety
// bounds (iteration cap, variable-capacity cap, stall detection).
#pragma once

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
    /// Worker threads for the group-selection probe sweep (0/1 =
    /// sequential). Purely a scheduling knob: the sweep is deterministic
    /// by construction, so results are bit-identical at every setting —
    /// which is why this field is excluded from the engine's options
    /// fingerprint and cache keys.
    std::size_t probeThreads = 0;
    /// Probe-sweep pool shared across jobs (engine-owned). When null and
    /// probeThreads > 1, the decomposer's probe context lazily spins up
    /// its own pool. Never serialized; runtime wiring only.
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
