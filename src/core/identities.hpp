// Identity discovery among basis elements (paper §5.5).
//
// Given the basis B = {X₁,…,Xₘ} (expressions over the consumed group) and
// the fresh variables t₁,…,tₘ that will stand for them, enumerate small
// expression trees over B and detect those that are identically 0 or 1.
// Following the paper, two kinds are kept:
//   * functional:   tₐ = f(other t's)   — lets the basis shrink by one
//     (the paper's majority example: s₃ = s₁·s₂); and
//   * annihilating: tᵢ·tⱼ·… = 0         — seeds null-spaces for the next
//     iteration's basis computation (s₁·s₄ = 0 etc.).
// Detection is exact on the canonical ANF over the group variables:
// products up to `maxDegree` are formed explicitly and linear relations
// are found by adjoining them to a GF(2) span.
#pragma once

#include <unordered_map>
#include <vector>

#include "anf/anf.hpp"

namespace pd::core::PD_WIDTH_NS {

struct IdentityScan {
    /// Identities over the new variables that are products equal to zero
    /// (e.g. t1*t4) or any other zero combination not usable as a
    /// reduction; all are valid additions to the identity database.
    std::vector<anf::Anf> annihilators;
    /// Reductions tₐ → expression over the *other* new variables.
    /// Applying one removes tₐ from the materialized basis.
    std::unordered_map<anf::Var, anf::Anf> reductions;
};

/// The product arity the decomposer's identity scan enumerates: the
/// paper's "expression trees with depth smaller than some constant".
/// Part of every job key (engine::optionsFingerprint's `|d` segment).
inline constexpr int kIdentityMaxDegree = 2;

/// Scans for identities among `basis` (parallel to `newVars`).
/// `maxDegree` bounds the product arity that is enumerated (3 is
/// noticeably more expensive on wide bases).
[[nodiscard]] IdentityScan findIdentities(const std::vector<anf::Anf>& basis,
                                          const std::vector<anf::Var>& newVars,
                                          int maxDegree = kIdentityMaxDegree);

}  // namespace pd::core::PD_WIDTH_NS
