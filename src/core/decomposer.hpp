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
#include <string>
#include <vector>

#include "anf/anf.hpp"
#include "core/hierarchy.hpp"
#include "core/options.hpp"

namespace pd::ring::PD_WIDTH_NS {
class IdentityDb;
}

namespace pd::core::PD_WIDTH_NS {

/// One counter per stop rule; every run bumps exactly one. The engine
/// registers them up front so every report carries them, zeros included.
inline constexpr std::array<const char*, 6> kStopCounters = {
    "decompose.stop.converged", "decompose.stop.rename",
    "decompose.stop.headroom",  "decompose.stop.capacity",
    "decompose.stop.stall",     "decompose.stop.iterations"};

/// Bench/test hook forwarded to the probe context: reports every sweep's
/// inputs (folded expression, candidates, identity-database snapshot) so
/// the probe workload of a real run can be replayed. Never affects
/// results.
using ProbeCaptureHook =
    std::function<void(const anf::Anf&, const std::vector<anf::VarSet>&,
                       const ring::IdentityDb&)>;

/// Runs Progressive Decomposition over a list of output expressions.
///
/// `vars` must be the table the expressions were built against; the
/// decomposer allocates tag and derived variables in it.
[[nodiscard]] Decomposition decompose(anf::VarTable& vars,
                                      const std::vector<anf::Anf>& outputs,
                                      std::vector<std::string> outputNames,
                                      const DecomposeOptions& opt = {},
                                      ProbeCaptureHook probeCaptureHook = {});

}  // namespace pd::core::PD_WIDTH_NS
