// Rewriting (the tail of each iteration in Fig. 5).
//
// After a basis is fixed, each pair's first element is replaced by a fresh
// variable: folded' = ⊕ᵢ tᵢ·Yᵢ ⊕ untouched. Tag variables let the single
// folded expression stand for a whole output list; unfold() recovers the
// per-output expressions by extracting the K_i cofactors.
#pragma once

#include <span>
#include <vector>

#include "anf/anf.hpp"
#include "core/pairlist.hpp"

namespace pd::core::PD_WIDTH_NS {

/// Builds ⊕ᵢ newVars[i]·pairs[i].second ⊕ untouched.
[[nodiscard]] anf::Anf rewriteFolded(const PairList& pairs,
                                     std::span<const anf::Var> newVars,
                                     const anf::Anf& untouched);

/// Splits a tag-folded expression back into per-output expressions:
/// result[i] = cofactor of `folded` with respect to tag i (monomials
/// containing tags are partitioned; each monomial contains exactly one tag
/// by construction).
[[nodiscard]] std::vector<anf::Anf> unfold(const anf::Anf& folded,
                                           std::span<const anf::Var> tags);

/// True when every output `folded` stands for is a constant or a literal
/// (the decomposer's termination test), read off the folded terms
/// without unfolding. `tagMask` holds the tag variables (empty for a
/// single unfolded output). Equivalent to every element of
/// unfold(folded, tags) being constant or literal.
[[nodiscard]] bool unfoldsToLiterals(const anf::Anf& folded,
                                     const anf::VarSet& tagMask);

}  // namespace pd::core::PD_WIDTH_NS
