// Dense indexed ANF: a polynomial as a bit vector over interned monomial
// ids.
//
// IndexedAnf is the hot-path twin of Anf. Where Anf keeps a sorted vector
// of 256-bit Monomials (XOR = sorted merge, AND = cross product + sort),
// IndexedAnf keeps one bit per *distinct monomial seen by the run's
// MonomialIndexer*: XOR is word-wise bit math, AND walks the set bits and
// flips the memoized product column — mod-2 cancellation is free because
// flipping a bit twice clears it. All operations that need monomial
// identity go through the owning indexer, which callers pass explicitly;
// an IndexedAnf is meaningless without the indexer that minted its ids.
// The pair pipeline stays in this form end to end: findBasis merges,
// linear minimization, size reduction and probe scoring all run on
// IndexedAnf sides, and a probe decodes its basis only when it can still
// win its sweep. Anf is
// the canonical interchange form (digests, stores, printing) and the
// spec-building type, with its own sort-free product kernel (anf.hpp).
// Conversions are explicit and lossless, and every operation here is
// differentially tested against the Anf implementation
// (tests/anf_index_test.cpp).
#pragma once

#include <unordered_map>
#include <vector>

#include "anf/indexer.hpp"

namespace pd::anf::PD_WIDTH_NS {

/// XOR-of-products polynomial encoded as the characteristic vector of its
/// term set over a MonomialIndexer's id space.
class IndexedAnf {
public:
    /// The zero polynomial.
    IndexedAnf() = default;

    /// Encodes `e` over `ix`, interning unseen monomials.
    static IndexedAnf fromAnf(MonomialIndexer& ix, const Anf& e) {
        IndexedAnf r;
        r.bits_ = ix.toBits(e);
        return r;
    }

    /// Decodes back to the canonical sorted-vector form (cached-degree
    /// sort: no popcounts, id-sized moves).
    [[nodiscard]] Anf toAnf(const MonomialIndexer& ix) const {
        return ix.toAnfFromIds(termIds());
    }

    [[nodiscard]] bool isZero() const { return bits_.isZero(); }

    [[nodiscard]] std::size_t termCount() const { return bits_.popcount(); }

    /// Total variable occurrences (Anf::literalCount), from the indexer's
    /// cached degrees.
    [[nodiscard]] std::size_t literalCount(const MonomialIndexer& ix) const {
        std::size_t n = 0;
        bits_.forEachSetBit([&](std::size_t i) {
            n += ix.degreeOf(static_cast<MonomialIndexer::Id>(i));
        });
        return n;
    }

    /// Term ids in ascending id order (not monomial order).
    [[nodiscard]] std::vector<MonomialIndexer::Id> termIds() const {
        std::vector<MonomialIndexer::Id> ids;
        ids.reserve(termCount());
        bits_.forEachSetBit([&](std::size_t i) {
            ids.push_back(static_cast<MonomialIndexer::Id>(i));
        });
        return ids;
    }

    /// Toggles the term `id`, growing the vector as needed.
    void flipTerm(MonomialIndexer::Id id) {
        if (id >= bits_.size()) bits_.resize(id + 1);
        bits_.flip(id);
    }

    /// XOR — addition in the Boolean ring; widths normalize automatically
    /// and no temporary is materialized for the narrower operand.
    IndexedAnf& operator^=(const IndexedAnf& rhs) {
        bits_.xorZeroExtended(rhs.bits_);
        return *this;
    }

    /// Equality of term sets (width-insensitive).
    [[nodiscard]] bool operator==(const IndexedAnf& rhs) const {
        return bits_.equalsZeroExtended(rhs.bits_);
    }

    [[nodiscard]] const gf2::BitVec& bits() const { return bits_; }

    /// Width-insensitive content hash (consistent with operator==): words
    /// after the last non-zero word do not contribute, so equal term sets
    /// of different widths hash alike.
    [[nodiscard]] std::size_t hash() const {
        std::size_t last = bits_.wordCount();
        while (last > 0 && bits_.word(last - 1) == 0) --last;
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::size_t i = 0; i < last; ++i) {
            h ^= bits_.word(i);
            h *= 0x100000001b3ull;
        }
        return static_cast<std::size_t>(h);
    }

private:
    gf2::BitVec bits_;
};

struct IndexedAnfHash {
    std::size_t operator()(const IndexedAnf& a) const { return a.hash(); }
};

/// AND — multiplication in the Boolean ring. Every term pair resolves to
/// one memoized product lookup and one bit flip.
[[nodiscard]] IndexedAnf indexedProduct(MonomialIndexer& ix,
                                        const IndexedAnf& a,
                                        const IndexedAnf& b);

/// Simultaneous substitution of variables by indexed expressions — the
/// indexed twin of anf::substitute (same semantics: substituted
/// expressions are not re-substituted).
[[nodiscard]] IndexedAnf indexedSubstitute(
    MonomialIndexer& ix, const IndexedAnf& e,
    const std::unordered_map<Var, IndexedAnf>& map);

}  // namespace pd::anf::PD_WIDTH_NS
