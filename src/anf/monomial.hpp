// Monomial: a product of distinct Boolean variables.
//
// In the Boolean ring x² = x, so a monomial is exactly a *set* of
// variables, stored as a bit mask of PD_MONOMIAL_WORDS 64-bit words: 256
// bits in the default build, 128 in the narrow one (anf/width.hpp). No
// default-batch job needs more than 113 variable ids — inputs, per-output
// tag variables and per-iteration fresh variables together — so the
// engine runs every job at 128 bits and re-runs at 256 only the rare job
// that outgrows them. Ids and term order do not depend on the width, so a
// job that fits computes the same result at either width.
//
// The same type doubles as a variable *set* (group masks, supports).
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "anf/vartable.hpp"
#include "anf/width.hpp"

namespace pd::anf::PD_WIDTH_NS {

/// Product of distinct variables; also used as a plain variable set.
class Monomial {
public:
    static constexpr std::size_t kWords = PD_MONOMIAL_WORDS;
    static constexpr std::size_t kMaxVars = kWords * 64;

    /// The empty product, i.e. the constant 1.
    constexpr Monomial() = default;

    /// The single-variable monomial `v`.
    static Monomial var(Var v) {
        Monomial m;
        m.insert(v);
        return m;
    }

    /// Monomial over an explicit variable list.
    static Monomial of(const std::vector<Var>& vars) {
        Monomial m;
        for (const Var v : vars) m.insert(v);
        return m;
    }

    void insert(Var v) {
        // Recoverable capacity error, active in every build (unlike
        // PD_ASSERT). At 128 bits it sends the job to the wide build; at
        // 256 the job fails as *that job* — the engine reports ok=false
        // and the rest of the batch keeps running — rather than tearing
        // down the process or, with PD_NO_ASSERT, silently corrupting an
        // unrelated word.
        if (v >= kMaxVars) [[unlikely]] failCapacity(v);
        w_[v >> 6] |= std::uint64_t{1} << (v & 63);
    }

    void erase(Var v) {
        PD_ASSERT(v < kMaxVars);
        w_[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
    }

    [[nodiscard]] bool contains(Var v) const {
        PD_ASSERT(v < kMaxVars);
        return (w_[v >> 6] >> (v & 63)) & 1u;
    }

    /// True for the constant-1 monomial (empty variable set).
    [[nodiscard]] bool isOne() const {
        for (const auto w : w_)
            if (w) return false;
        return true;
    }

    /// Number of variables in the product.
    [[nodiscard]] std::size_t degree() const;

    /// Ring product: union of the variable sets (idempotent law x² = x).
    [[nodiscard]] Monomial operator*(const Monomial& rhs) const {
        Monomial m;
        for (std::size_t i = 0; i < kWords; ++i) m.w_[i] = w_[i] | rhs.w_[i];
        return m;
    }

    /// True when the two variable sets share a variable.
    [[nodiscard]] bool intersects(const Monomial& rhs) const {
        for (std::size_t i = 0; i < kWords; ++i)
            if (w_[i] & rhs.w_[i]) return true;
        return false;
    }

    /// True when every variable of *this is in `rhs`.
    [[nodiscard]] bool subsetOf(const Monomial& rhs) const {
        for (std::size_t i = 0; i < kWords; ++i)
            if (w_[i] & ~rhs.w_[i]) return false;
        return true;
    }

    /// Sub-product restricted to the variables of `mask`.
    [[nodiscard]] Monomial restrictedTo(const Monomial& mask) const {
        Monomial m;
        for (std::size_t i = 0; i < kWords; ++i) m.w_[i] = w_[i] & mask.w_[i];
        return m;
    }

    /// Sub-product with the variables of `mask` removed.
    [[nodiscard]] Monomial without(const Monomial& mask) const {
        Monomial m;
        for (std::size_t i = 0; i < kWords; ++i) m.w_[i] = w_[i] & ~mask.w_[i];
        return m;
    }

    /// Set union (same as operator* but reads naturally for variable sets).
    [[nodiscard]] Monomial unionWith(const Monomial& rhs) const {
        return *this * rhs;
    }

    /// Ascending list of member variables.
    [[nodiscard]] std::vector<Var> vars() const;

    /// Calls `fn(Var)` for each member variable in ascending order.
    template <typename Fn>
    void forEachVar(Fn&& fn) const {
        for (std::size_t i = 0; i < kWords; ++i) {
            std::uint64_t w = w_[i];
            while (w) {
                const auto bit =
                    static_cast<std::uint32_t>(__builtin_ctzll(w));
                fn(static_cast<Var>(i * 64 + bit));
                w &= w - 1;
            }
        }
    }

    [[nodiscard]] bool operator==(const Monomial& rhs) const = default;

    /// Canonical total order: graded (degree first), then reverse-word
    /// lexicographic. Any fixed total order gives canonical ANF; grading
    /// makes printed expressions read smallest-degree first.
    [[nodiscard]] std::strong_ordering operator<=>(const Monomial& rhs) const;

    /// The tiebreak half of the canonical order alone (reverse-word
    /// lexicographic) — valid when the degrees are known to be equal,
    /// letting callers with cached degrees skip the popcounts.
    [[nodiscard]] bool wordsLess(const Monomial& rhs) const {
        for (std::size_t i = kWords; i-- > 0;)
            if (w_[i] != rhs.w_[i]) return w_[i] < rhs.w_[i];
        return false;
    }

    /// Lexicographic order on the ascending member lists, valid when the
    /// degrees are equal: the lowest variable in exactly one of the two
    /// sets decides — whoever holds it sorts first.
    [[nodiscard]] bool membersLess(const Monomial& rhs) const {
        for (std::size_t i = 0; i < kWords; ++i)
            if (const std::uint64_t d = w_[i] ^ rhs.w_[i])
                return (w_[i] & d & (0 - d)) != 0;
        return false;
    }

    [[nodiscard]] std::size_t hash() const;

    /// The mask words, lowest variables first (a width-free transport:
    /// engine/compute.hpp carries expanded specs across the widths).
    [[nodiscard]] const std::array<std::uint64_t, kWords>& words() const {
        return w_;
    }

    /// The monomial whose mask is `words`, lowest first; words past kWords
    /// must be zero (a set bit there is a variable past the capacity).
    static Monomial fromWords(std::span<const std::uint64_t> words);

private:
    /// Throws anf::WidthExceeded in the narrow build, else pd::Error
    /// describing the variable-capacity overflow.
    [[noreturn]] static void failCapacity(Var v);

    std::array<std::uint64_t, kWords> w_{};
};

/// A variable set — alias that documents intent at call sites.
using VarSet = Monomial;

/// An assignment: the set of variables currently true.
using Assignment = Monomial;

struct MonomialHash {
    std::size_t operator()(const Monomial& m) const { return m.hash(); }
};

}  // namespace pd::anf::PD_WIDTH_NS
