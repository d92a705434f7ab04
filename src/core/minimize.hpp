// Basis minimization via linear dependence (paper §5.3).
//
// If the firsts of the pair list are linearly dependent over GF(2), say
// X₁ = X₂ ⊕ … ⊕ Xₙ, then the pair (X₁,Y₁) can be eliminated by folding Y₁
// into each participating pair: (Xⱼ, Yⱼ⊕Y₁). Symmetrically for dependent
// seconds, folding X₁ into the participating firsts. Either direction
// removes one basis element per dependency — e.g. the paper's LZD basis
// {V₀, P₀₀, P₀₁, V₀⊕P₀₀, V₀⊕P₀₁} shrinks to {V₀, P₀₀, P₀₁}.
//
// Runs on a basis past findBasis in its indexed form (pairlist.hpp), all
// sides over one indexer; the pairs' rings and ids are not kept.
#pragma once

#include "core/pairlist.hpp"

namespace pd::core::PD_WIDTH_NS {

/// Eliminates all linear dependencies among firsts, then among seconds,
/// iterating to a fixpoint. Returns the number of pairs removed. The
/// sides' bit vectors are the solver's rows, so no indexer is needed:
/// all the pairs' ids just have to come from the same one.
std::size_t minimizeBasisLinear(IPairList& pairs);

}  // namespace pd::core::PD_WIDTH_NS
