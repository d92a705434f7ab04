// Identity database (paper §5.5).
//
// An identity is an expression that is identically zero. The database
// keeps the identities discovered so far and answers the query the basis
// finder needs: a known subring of the null-space of a monomial over the
// current group variables. Two identity shapes matter (paper §5.5 last
// paragraph):
//   * functional:   s_a ⊕ f(others) = 0  — consumed at reduction time, and
//   * annihilating: s_i · E = 0          — seeds N(s_i) ∋ E.
// Identities whose support touches variables consumed by a rewrite become
// meaningless and are dropped (the conservative realisation of the paper's
// "identities = rewriteExpr(identities, B)").
#pragma once

#include <vector>

#include "anf/anf.hpp"
#include "ring/nullspace.hpp"

namespace pd::ring::PD_WIDTH_NS {

/// Store of identically-zero expressions over the current variable space.
class IdentityDb {
public:
    /// Records `e == 0`. Zero expressions (trivial) are ignored;
    /// duplicates are dropped.
    void add(const anf::Anf& e);

    [[nodiscard]] const std::vector<anf::Anf>& all() const { return ids_; }

    [[nodiscard]] bool empty() const { return ids_.empty(); }

    /// Known null-space subring of a single variable: every identity whose
    /// monomials all contain `v` factors as v·E = 0 and contributes E.
    [[nodiscard]] NullSpaceRing nullspaceOf(anf::Var v) const;

    /// The variables whose nullspaceOf(v) is non-trivial: those that
    /// divide every monomial of some identity.
    [[nodiscard]] anf::VarSet dividingVars() const;

    /// Known null-space subring of a monomial m = v₁·v₂·…: the union of
    /// the per-variable rings (v·E = 0 ⟹ m·E = 0 when v divides m).
    /// When `withComplements` is set, the free generators (1 ⊕ vᵢ) are
    /// added as well — sound because m·(1⊕vᵢ) = m ⊕ m = 0 — giving
    /// Boolean-division strength merging even without discovered
    /// identities (ablation knob; the paper uses identities only).
    [[nodiscard]] NullSpaceRing nullspaceOfMonomial(
        const anf::Monomial& m, bool withComplements = false) const;

    /// Drops identities whose support intersects `consumed` (variables
    /// eliminated by a rewrite no longer exist in the expression space).
    void dropTouching(const anf::VarSet& consumed);

    [[nodiscard]] std::size_t size() const { return ids_.size(); }

private:
    std::vector<anf::Anf> ids_;
};

}  // namespace pd::ring::PD_WIDTH_NS
