// Bridge between ANF expressions and the GF(2) linear-algebra layer.
//
// A MonomialIndexer interns Monomials to dense u32 ids on first sight, so
// a set of expressions becomes a set of BitVecs over a shared coordinate
// system. Linear dependence of expressions (paper §5.3), the
// adjoin-products identity scan (§5.5) and null-space sum membership (§4)
// all reduce to SpanSolver queries on these vectors. The indexer also
// memoizes the ring product id×id → id, which is what makes IndexedAnf
// products cheap: after the first encounter, multiplying two monomials is
// one hash lookup instead of a 256-bit union plus a sorted-vector merge.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "anf/anf.hpp"
#include "gf2/bitvec.hpp"

namespace pd::anf::PD_WIDTH_NS {

/// Assigns stable dense indices to monomials, converts expressions to
/// characteristic bit vectors, and memoizes monomial products by id.
class MonomialIndexer {
public:
    using Id = std::uint32_t;

    /// Pre-sizes the intern table (hot callers know their term counts;
    /// rehash churn otherwise dominates short-lived indexers).
    void reserve(std::size_t n) {
        order_.reserve(n);
        degree_.reserve(n);
        hashes_.reserve(n);
        if (2 * n > slots_.size()) rehash(2 * n);
    }

    /// Index of `m`, allocating a new column when unseen.
    Id indexOf(const Monomial& m) {
        const std::uint64_t h = mixedHash(m);
        if (2 * (order_.size() + 1) > slots_.size())
            rehash(2 * (order_.size() + 1));
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t s = h >> shift_;; s = (s + 1) & mask) {
            const Id id = slots_[s];
            if (id == kEmpty) {
                const auto fresh = static_cast<Id>(order_.size());
                slots_[s] = fresh;
                order_.push_back(m);
                degree_.push_back(static_cast<std::uint32_t>(m.degree()));
                hashes_.push_back(h);
                return fresh;
            }
            if (hashes_[id] == h && order_[id] == m) return id;
        }
    }

    /// The intern table's hash of `m`. A table of 2^b slots homes `m` at
    /// the top b bits. Monomial::hash is an FNV-style fold whose low bits
    /// cluster — monomials that differ only in one word's high variables
    /// share them — so the slot must come from the high bits of a
    /// multiplicative mix, never from `hash() & mask`.
    [[nodiscard]] static std::uint64_t mixedHash(const Monomial& m) {
        std::uint64_t h = static_cast<std::uint64_t>(m.hash());
        h ^= h >> 32;
        return h * 0x9e3779b97f4a7c15ull;
    }

    /// Cached degree of a column's monomial (the expensive half of the
    /// canonical graded compare).
    [[nodiscard]] std::uint32_t degreeOf(Id id) const {
        PD_ASSERT(id < degree_.size());
        return degree_[id];
    }

    /// Sorts ids into canonical monomial order. Equivalent to sorting the
    /// monomials themselves, but compares cached degrees first and moves
    /// 4-byte ids instead of 32-byte masks.
    void sortIdsCanonical(std::vector<Id>& ids) const {
        std::sort(ids.begin(), ids.end(),
                  [&](Id a, Id b) { return canonicalLess(a, b); });
    }

    /// Canonical monomial order on two columns.
    [[nodiscard]] bool canonicalLess(Id a, Id b) const {
        if (degree_[a] != degree_[b]) return degree_[a] < degree_[b];
        return order_[a].wordsLess(order_[b]);
    }

    /// Expression from term ids (any order, assumed distinct).
    [[nodiscard]] Anf toAnfFromIds(std::vector<Id> ids) const {
        sortIdsCanonical(ids);
        std::vector<Monomial> terms;
        terms.reserve(ids.size());
        for (const auto id : ids) terms.push_back(order_[id]);
        return Anf::fromCanonicalTerms(std::move(terms));
    }

    /// The monomial a column stands for.
    [[nodiscard]] const Monomial& monomialAt(Id id) const {
        PD_ASSERT(id < order_.size());
        return order_[id];
    }

    /// Memoized ring product: id of monomialAt(a) · monomialAt(b). The
    /// product monomial is interned on first sight, so the result is a
    /// valid column of this indexer.
    Id productOf(Id a, Id b) {
        if (a == b) return a;  // idempotent: x² = x
        const std::uint64_t key =
            (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
            std::max(a, b);
        const auto it = products_.find(key);
        if (it != products_.end()) return it->second;
        // Compute before interning: indexOf may grow order_ and invalidate
        // references into it.
        const Monomial p = monomialAt(a) * monomialAt(b);
        const Id id = indexOf(p);
        products_.emplace(key, id);
        return id;
    }

    /// Converts `e` to a bit vector over the current (possibly grown)
    /// coordinate system.
    [[nodiscard]] gf2::BitVec toBits(const Anf& e) {
        // Intern first so the vector is as wide as the grown id space.
        scratch_.clear();
        for (const auto& t : e.terms()) scratch_.push_back(indexOf(t));
        gf2::BitVec v(size());
        for (const auto id : scratch_) v.set(id);
        return v;
    }

    [[nodiscard]] std::size_t size() const { return order_.size(); }

    /// Process-unique instance id. Caches of indexed data (e.g. a
    /// NullSpaceRing's spanning set) key on this instead of the object's
    /// address, so a new indexer at a recycled address can never be
    /// mistaken for the one that minted the cached ids.
    [[nodiscard]] std::uint64_t uid() const { return uid_; }

private:
    static std::uint64_t nextUid();

    static constexpr Id kEmpty = UINT32_MAX;

    /// Rebuilds the slot array at the smallest power of two ≥ `minSlots`
    /// (at least 16), re-homing every id from its stored hash.
    void rehash(std::size_t minSlots) {
        std::size_t n = 16;
        while (n < minSlots) n *= 2;
        slots_.assign(n, kEmpty);
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
        const std::size_t mask = n - 1;
        for (Id id = 0; id < order_.size(); ++id) {
            std::size_t s = hashes_[id] >> shift_;
            while (slots_[s] != kEmpty) s = (s + 1) & mask;
            slots_[s] = id;
        }
    }

    std::uint64_t uid_ = nextUid();
    /// Open-addressed intern table: linear probing over ids, load ≤ 1/2.
    std::vector<Id> slots_;
    unsigned shift_ = 64;  ///< 64 − log2(slots_.size())
    std::vector<Monomial> order_;
    std::vector<std::uint32_t> degree_;  ///< degree of order_[i]
    std::vector<std::uint64_t> hashes_;  ///< mixedHash(order_[i])
    std::vector<Id> scratch_;            ///< toBits' term ids
    /// (lo id << 32 | hi id) → product id, for distinct id pairs.
    std::unordered_map<std::uint64_t, Id> products_;
};

}  // namespace pd::anf::PD_WIDTH_NS
