// Non-member algebraic operations on ANF expressions.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "anf/anf.hpp"

namespace pd::anf::PD_WIDTH_NS {

/// Replaces every occurrence of each key variable by the mapped expression.
/// All replacements happen simultaneously (the substituted expressions are
/// not re-substituted). Used to expand a decomposition back to primary
/// inputs for verification, and to apply basis-reduction identities.
[[nodiscard]] Anf substitute(const Anf& e,
                             const std::unordered_map<Var, Anf>& map);

/// Cofactor: fixes `v` to the constant `value`.
[[nodiscard]] Anf cofactor(const Anf& e, Var v, bool value);

/// XOR of a list of expressions.
[[nodiscard]] Anf xorAll(std::span<const Anf> list);

/// Splits `e` into (part whose monomials intersect `mask`, remainder).
struct GroupSplit {
    Anf touching;   ///< monomials containing at least one variable of mask
    Anf untouched;  ///< monomials disjoint from mask
};
[[nodiscard]] GroupSplit splitByGroup(const Anf& e, const VarSet& mask);

/// The Boolean derivative ∂e/∂v = e[v=1] ⊕ e[v=0]; e depends on v iff the
/// derivative is non-zero.
[[nodiscard]] Anf derivative(const Anf& e, Var v);

/// Builds the canonical ANF of an arbitrary single-output function given
/// as a truth-table oracle over `vars` (Möbius transform over GF(2)).
/// Exponential in vars.size(); intended for specs of small blocks and for
/// cross-checking in tests.
template <typename Oracle>
[[nodiscard]] Anf fromTruthTable(const std::vector<Var>& vars,
                                 Oracle&& oracle) {
    const std::size_t n = vars.size();
    PD_ASSERT(n <= 24);
    std::vector<char> f(std::size_t{1} << n);
    for (std::size_t m = 0; m < f.size(); ++m) {
        Assignment a;
        for (std::size_t i = 0; i < n; ++i)
            if ((m >> i) & 1u) a.insert(vars[i]);
        f[m] = static_cast<char>(oracle(a) ? 1 : 0);
    }
    // In-place Möbius transform: coefficient of monomial S is the XOR of
    // f over all subsets of S.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t m = 0; m < f.size(); ++m)
            if ((m >> i) & 1u) f[m] ^= f[m ^ (std::size_t{1} << i)];
    std::vector<Monomial> terms;
    for (std::size_t m = 0; m < f.size(); ++m) {
        if (!f[m]) continue;
        Monomial mono;
        for (std::size_t i = 0; i < n; ++i)
            if ((m >> i) & 1u) mono.insert(vars[i]);
        terms.push_back(mono);
    }
    return Anf::fromTerms(std::move(terms));
}

}  // namespace pd::anf::PD_WIDTH_NS
