// Null-space rings (paper §4).
//
// For an expression P, N(P) = { X : P·X = 0 } is a ring (closed under XOR
// and AND). The algorithm never needs all of N(P) — it tracks a *known
// subring* represented by generators, grown conservatively:
//   * identity v·E = 0 contributes generator E to N(v);
//   * N(P⊕R) ⊇ rC(N(P)·N(R)): the ring closure of pairwise products,
//     used when two pair-list entries merge (paper §5.2).
// Ring closure is finite in a Boolean ring (x² = x): it is the GF(2) span
// of all products of non-empty generator subsets. spanningSet() produces
// exactly those products (capped), which is what membership solves over.
//
// The membership hot path uses indexedSpanningSet(): the same breadth-
// first construction run over IndexedAnf (memoized monomial products, bit
// flips instead of sorted merges), with the result cached on the ring.
// Rings mutate rarely — a pair's ring changes only when the pair merges —
// so one construction typically serves hundreds of membership queries.
// Each ring also keeps the union of its generators' variables, which
// lets membership reject most queries without building the span at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "anf/anf.hpp"
#include "anf/indexed.hpp"

namespace pd::ring::PD_WIDTH_NS {

/// Generator-represented subring of some null-space N(P).
///
/// Invariant: every generator g satisfies P·g = 0 for the P this ring was
/// attached to; the represented ring is rC(span(generators)).
class NullSpaceRing {
public:
    NullSpaceRing() = default;

    /// Adds a generator; zero and duplicate generators are ignored.
    void addGenerator(const anf::Anf& g);

    [[nodiscard]] bool trivial() const { return gens_.empty(); }

    [[nodiscard]] const std::vector<anf::Anf>& generators() const {
        return gens_;
    }

    /// Union of the generators' variables. Every spanning-set element is
    /// a product of generators, so its terms use only these variables.
    [[nodiscard]] const anf::VarSet& support() const { return support_; }

    /// Spanning set of the ring closure: products over all non-empty
    /// generator subsets (zero products dropped), capped at `maxElems`
    /// elements — a conservative under-approximation when capped, which is
    /// always sound (fewer merges, never a wrong merge).
    [[nodiscard]] std::vector<anf::Anf> spanningSet(
        std::size_t maxElems = 64) const;

    /// One spanning-set element in both domains: the canonical expression
    /// plus its term ids listed in canonical monomial order, so a
    /// membership solve can assign local solver columns in exactly the
    /// order the reference implementation would.
    struct SpanEntry {
        anf::Anf expr;
        std::vector<anf::MonomialIndexer::Id> termIds;
    };

    /// An immutable indexed spanning set, shareable across ring objects
    /// whose generator sequences coincide (MembershipContext keeps a
    /// content-addressed pool of these, because rings are copied by value
    /// into pairs and an object-level cache goes cold on every copy).
    struct IndexedSpan {
        std::uint64_t indexerUid = 0;
        std::size_t maxElems = 0;
        std::vector<SpanEntry> elems;
        /// Union of the elements' term ids: a membership target with a
        /// term outside this mask (for both rings) is unrepresentable,
        /// so the solve can be skipped outright.
        gf2::BitVec termMask;
    };

    /// spanningSet() computed over `ix` and cached on the ring. The cache
    /// is invalidated by addGenerator and ignored when presented with a
    /// different indexer; entries are immutable and shared across ring
    /// copies. Produces exactly the elements of spanningSet(maxElems), in
    /// the same order (differentially tested).
    [[nodiscard]] const std::vector<SpanEntry>& indexedSpanningSet(
        anf::MonomialIndexer& ix, std::size_t maxElems = 64) const;

    /// Indexer-free span pool: generator sequence → the ring closure's
    /// spanning set in the Anf domain. Where an IndexedSpan dies with its
    /// indexer, these entries survive indexer recycles and identity-
    /// database turnover, so the expensive part of span construction —
    /// the breadth-first product closure — runs once per distinct ring
    /// content and later indexers only pay a cheap re-encoding.
    /// Single-threaded (one pool per probe workspace).
    class SpanPool {
    public:
        /// FNV-1a over the ordered generator hashes — the one
        /// content-addressing key every span cache layer keys on
        /// (SpanPool buckets, MembershipContext's per-indexer pool).
        [[nodiscard]] static std::uint64_t hashGens(
            const std::vector<anf::Anf>& gens) {
            std::uint64_t h = 0xcbf29ce484222325ull;
            for (const auto& g : gens) {
                h ^= static_cast<std::uint64_t>(g.hash());
                h *= 0x100000001b3ull;
            }
            return h;
        }

        /// The pooled spanning set for `gens` (exactly
        /// spanningSet(maxElems) of a ring with those generators), or
        /// nullptr when not yet stored.
        [[nodiscard]] const std::vector<anf::Anf>* find(
            const std::vector<anf::Anf>& gens, std::size_t maxElems) const;

        /// Stores a built spanning set (no-op if already present).
        void store(const std::vector<anf::Anf>& gens, std::size_t maxElems,
                   std::vector<anf::Anf> elems);

    private:
        struct Entry {
            std::vector<anf::Anf> gens;
            std::size_t maxElems = 0;
            std::vector<anf::Anf> elems;
        };
        /// Bound on resident closures: a probe-heavy run (mul6-class)
        /// meets a long tail of distinct merged-ring contents, and an
        /// uncapped pool would grow RSS monotonically. Clearing is
        /// always safe (pure content-addressed cache — misses rebuild),
        /// so the pool resets wholesale when full.
        static constexpr std::size_t kMaxEntries = 4096;
        std::unordered_map<std::uint64_t, std::vector<Entry>> pool_;
        std::size_t entries_ = 0;
    };

    /// Shared-handle variant of indexedSpanningSet (same construction,
    /// same cache). With `pool`, the Anf-domain closure is served from /
    /// published to it, so only the id encoding is indexer-local.
    [[nodiscard]] std::shared_ptr<const IndexedSpan> indexedSpan(
        anf::MonomialIndexer& ix, std::size_t maxElems = 64,
        SpanPool* pool = nullptr) const;

    /// The cached span when it matches (indexer uid, maxElems); nullptr
    /// otherwise. Never builds.
    [[nodiscard]] const IndexedSpan* cachedSpan(std::uint64_t indexerUid,
                                                std::size_t maxElems) const {
        if (spanCache_ && spanCache_->indexerUid == indexerUid &&
            spanCache_->maxElems == maxElems)
            return spanCache_.get();
        return nullptr;
    }

    /// Installs a span built for an identical generator sequence (the
    /// content-pool hit path). The caller vouches for content equality;
    /// uid/maxElems are carried by the span itself.
    void adoptSpan(std::shared_ptr<const IndexedSpan> span) const {
        spanCache_ = std::move(span);
    }

    /// Ring attached to X₁⊕X₂ given rings for X₁ and X₂:
    /// rC(N(X₁)·N(X₂)) per the containment N(P)·N(Q) ⊆ N(P⊕Q).
    /// Generators are the pairwise products of the two generator sets.
    [[nodiscard]] static NullSpaceRing productClosure(const NullSpaceRing& a,
                                                      const NullSpaceRing& b);

    /// Union of generators — valid when both rings annihilate the *same*
    /// expression (e.g. combining per-variable knowledge for a monomial:
    /// v·E = 0 implies (v·w)·E = 0).
    [[nodiscard]] static NullSpaceRing merged(const NullSpaceRing& a,
                                              const NullSpaceRing& b);

private:
    std::vector<anf::Anf> gens_;
    anf::VarSet support_;  ///< kept up to date by addGenerator
    /// Lazily filled by indexedSpanningSet; shared by ring copies.
    mutable std::shared_ptr<const IndexedSpan> spanCache_;
};

}  // namespace pd::ring::PD_WIDTH_NS
