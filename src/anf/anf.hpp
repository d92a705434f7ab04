// Canonical Reed-Muller (ANF / XOR-of-products) expressions.
//
// An Anf holds a sorted, duplicate-free vector of monomials; XOR is a
// merge with mod-2 cancellation. AND needs no sort either when one side
// is small: multiplying a canonical P by a variable x keeps P's order
// (terms lacking x all gain the same bit, terms holding x stay put), so
// x·P is one merge of two sorted runs, a monomial is a chain of such
// merges, and a small operand's terms XOR-merge their products. Only a
// product of two big operands builds the cross product and sorts once.
// Canonicity is the property the paper leans on (§4): the Reed-Muller form
// of an expression is unique, so equality, zero-tests, and identity
// checking reduce to comparisons — the algorithm's output is independent
// of how the input circuit was described.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "anf/monomial.hpp"

namespace pd::anf::PD_WIDTH_NS {

/// An element of the Boolean ring GF(2)[x0, x1, ...]/(xi² = xi),
/// kept in canonical XOR-of-products form.
class Anf {
public:
    /// The zero expression.
    Anf() = default;

    /// Constant 0 or 1.
    static Anf constant(bool v) {
        Anf a;
        if (v) a.terms_.push_back(Monomial{});
        return a;
    }
    static Anf zero() { return constant(false); }
    static Anf one() { return constant(true); }

    /// Single-variable expression.
    static Anf var(Var v) {
        Anf a;
        a.terms_.push_back(Monomial::var(v));
        return a;
    }

    /// Single-monomial expression.
    static Anf term(Monomial m) {
        Anf a;
        a.terms_.push_back(m);
        return a;
    }

    /// Builds a canonical expression from an arbitrary (unsorted, possibly
    /// repeating) list of monomials; repeated monomials cancel mod 2.
    static Anf fromTerms(std::vector<Monomial> terms);

    /// Adopts a term list that is already sorted ascending and duplicate-
    /// free (e.g. a filtered subsequence of another Anf's terms), skipping
    /// the fromTerms sort — the hot-path constructor for group splits.
    /// The precondition is checked (one linear pass) unless PD_NO_ASSERT.
    static Anf fromCanonicalTerms(std::vector<Monomial> terms) {
#ifndef PD_NO_ASSERT
        for (std::size_t i = 1; i < terms.size(); ++i)
            PD_ASSERT(terms[i - 1] < terms[i]);
#endif
        Anf a;
        a.terms_ = std::move(terms);
        return a;
    }

    [[nodiscard]] bool isZero() const { return terms_.empty(); }
    [[nodiscard]] bool isOne() const {
        return terms_.size() == 1 && terms_[0].isOne();
    }
    [[nodiscard]] bool isConstant() const { return terms_.empty() || isOne(); }

    /// True for expressions of the shape `v` or `v ⊕ 1` (the algorithm's
    /// termination condition: "all elements in L are literals", which the
    /// decomposer reads off the folded list with core::unfoldsToLiterals).
    [[nodiscard]] bool isLiteral() const;

    /// For literal expressions: the variable involved.
    [[nodiscard]] Var literalVar() const;

    /// For literal expressions: true when the literal is complemented.
    [[nodiscard]] bool literalNegated() const;

    [[nodiscard]] std::size_t termCount() const { return terms_.size(); }

    /// Total number of variable occurrences — the paper's size metric for
    /// the size-reduction optimization (§5.4).
    [[nodiscard]] std::size_t literalCount() const;

    /// Highest monomial degree.
    [[nodiscard]] std::size_t degree() const;

    /// Union of all variables appearing in the expression.
    [[nodiscard]] VarSet support() const;

    [[nodiscard]] bool usesVar(Var v) const {
        return support().contains(v);
    }

    /// True when any monomial intersects the variable set `mask`.
    [[nodiscard]] bool intersects(const VarSet& mask) const;

    [[nodiscard]] std::span<const Monomial> terms() const { return terms_; }

    /// XOR — addition in the Boolean ring.
    Anf& operator^=(const Anf& rhs);
    [[nodiscard]] friend Anf operator^(const Anf& a, const Anf& b) {
        Anf r = a;
        r ^= b;
        return r;
    }

    /// AND — multiplication in the Boolean ring (merge kernel above).
    friend Anf operator*(const Anf& a, const Anf& b);
    Anf& operator*=(const Anf& rhs) {
        *this = *this * rhs;
        return *this;
    }

    /// Complement: 1 ⊕ x.
    [[nodiscard]] Anf operator~() const { return *this ^ one(); }

    [[nodiscard]] bool operator==(const Anf& rhs) const = default;
    [[nodiscard]] auto operator<=>(const Anf& rhs) const = default;

    /// Evaluates under the assignment "exactly the variables in `trueVars`
    /// are 1". A monomial evaluates to 1 iff all its variables are true.
    [[nodiscard]] bool evaluate(const Assignment& trueVars) const;

    [[nodiscard]] std::size_t hash() const;

private:
    std::vector<Monomial> terms_;  ///< sorted ascending, unique
};

struct AnfHash {
    std::size_t operator()(const Anf& a) const { return a.hash(); }
};

}  // namespace pd::anf::PD_WIDTH_NS
