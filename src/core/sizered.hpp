// Basis improvement via size reduction (paper §5.4).
//
// The identity X₁·Y₁ ⊕ X₂·Y₂ == (X₁⊕X₂)·Y₁ ⊕ X₂·(Y₁⊕Y₂) always holds, so
// the transform (X₁,Y₁),(X₂,Y₂) → (X₁⊕X₂,Y₁),(X₂,Y₁⊕Y₂) is applied
// greedily whenever it reduces the cumulative literal count — the paper's
// example turns {(a, p⊕q⊕r⊕s⊕t), (b, p⊕q⊕r⊕s)} into
// {(a⊕b, p⊕q⊕r⊕s), (a, t)}.
//
// Runs on a basis past findBasis in its indexed form (pairlist.hpp), all
// sides over `ix`, which supplies the literal counts; the pairs' rings and
// ids are not kept.
#pragma once

#include "core/pairlist.hpp"

namespace pd::core::PD_WIDTH_NS {

/// Greedy local size reduction over all ordered pair combinations until a
/// fixpoint. Returns the number of transforms applied.
std::size_t improveBasisSizeReduction(const anf::MonomialIndexer& ix,
                                      IPairList& pairs);

}  // namespace pd::core::PD_WIDTH_NS
