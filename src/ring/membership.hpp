// Membership in a sum of null-space rings, with witness (paper §4).
//
// The factorisation X = P·Q ⊕ R·S = (P⊕R)·T is valid exactly when
// (Q⊕S) ∈ N(P)⊕N(R); the merged cofactor is T = Q ⊕ n_P where
// Q⊕S = n_P ⊕ n_R with n_P ∈ N(P), n_R ∈ N(R). The paper notes this is an
// instance of the Ideal Membership Problem; because our rings are tracked
// by finite spanning sets, it reduces to a GF(2) solve that also yields
// the split (n_P, n_R) needed to build T.
//
// Two implementations share this header:
//   * the context-free overload — the reference path: fresh indexer and
//     spanning sets per query (kept as the differential-testing oracle);
//   * the MembershipContext overload — the hot path: spanning sets come
//     from the rings' per-ring caches (ring/nullspace.hpp) as pre-indexed
//     term-id lists, and solver columns are assigned through a flat
//     generation-stamped scratch array in exactly the reference's
//     first-occurrence order, so both paths return byte-identical
//     membership verdicts AND witnesses. Before any span is built, a
//     support pre-check rejects a target with a variable outside both
//     rings' generator supports (NullSpaceRing::support()): every span
//     element is a product of generators, so no sum of them can hold
//     that variable. Rejections count in ring.member.support_rejects;
//     nearly all probe-sweep queries end there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anf/anf.hpp"
#include "anf/indexed.hpp"
#include "ring/nullspace.hpp"

namespace pd::ring::PD_WIDTH_NS {

/// Outcome of a (target ∈ R₁ ⊕ R₂) query.
struct SumMembership {
    bool member = false;
    anf::Anf part1;  ///< element of span(R₁'s spanning set)
    anf::Anf part2;  ///< element of span(R₂'s spanning set)
};

/// Decides `target ∈ R₁ ⊕ R₂` over the rings' spanning sets and, on
/// success, returns parts with part1 ⊕ part2 == target.
/// `maxSpan` caps each spanning set (conservative under-approximation).
/// Reference implementation: rebuilds everything per query.
[[nodiscard]] SumMembership memberOfSum(const anf::Anf& target,
                                        const NullSpaceRing& r1,
                                        const NullSpaceRing& r2,
                                        std::size_t maxSpan = 64);

/// Indexed-domain outcome of a (target ∈ R₁ ⊕ R₂) query; parts live in
/// the query context's id space.
struct IndexedSumMembership {
    bool member = false;
    anf::IndexedAnf part1;  ///< element of span(R₁'s spanning set)
    anf::IndexedAnf part2;  ///< element of span(R₂'s spanning set)
};

/// Counts of the queries run through one MembershipContext, for a caller
/// that books them later or never (see MembershipContext::deferred).
struct MemberTally {
    std::uint64_t queries = 0;
    std::uint64_t supportRejects = 0;
    std::uint64_t solves = 0;

    /// Adds the counts to the ring.member.* counters.
    void book() const;
};

/// Shared state for a run of membership queries: the monomial id space
/// and the column-assignment scratch. One context spans
/// one merge phase (or one findGroup's probe sweep); the indexer grows
/// monotonically across queries and the rings' spanning-set caches are
/// keyed to it.
class MembershipContext {
public:
    anf::MonomialIndexer indexer;

    /// Optional indexer-free spanning-set pool shared across contexts
    /// (a probe workspace wires its pool in so span closures survive
    /// context recycles). Not owned.
    NullSpaceRing::SpanPool* sharedSpans = nullptr;

    /// When set, queries count here instead of in the ring.member.*
    /// counters: a speculative probe sweep books only the probes it keeps,
    /// so the counters stay independent of the schedule. Not owned.
    MemberTally* deferred = nullptr;

    /// The ring's indexed spanning set, served content-addressed: rings
    /// are copied by value into pairs, so the per-object span cache goes
    /// cold on every copy — but generator sequences repeat massively
    /// (the same merged rings are re-derived by every probe of a sweep).
    /// Keying built spans by the exact generator sequence lets every
    /// copy and every re-derivation share one construction; the span is
    /// also adopted back onto `r`'s object cache so repeat queries skip
    /// the content hash. Same elements in the same order as
    /// r.indexedSpanningSet(indexer, maxSpan) — sharing never changes a
    /// solve. Returns a span whose `termMask` feeds the coverage
    /// pre-check (empty span for trivial rings).
    const NullSpaceRing::IndexedSpan& spanOf(const NullSpaceRing& r,
                                             std::size_t maxSpan);

private:
    friend IndexedSumMembership memberOfSum(MembershipContext&,
                                            const anf::IndexedAnf&,
                                            const NullSpaceRing&,
                                            const NullSpaceRing&,
                                            std::size_t);

    /// Maps a global monomial id to this query's dense solver column.
    /// Generation stamps avoid clearing the arrays between queries.
    std::vector<std::uint32_t> localOf_;
    std::vector<std::uint32_t> stamp_;
    std::uint32_t generation_ = 0;
    /// Generator-content hash → (generator sequence, shared span). The
    /// generator copy pins the key; spans are immutable shared state.
    std::unordered_map<
        std::uint64_t,
        std::vector<std::pair<std::vector<anf::Anf>,
                              std::shared_ptr<const NullSpaceRing::IndexedSpan>>>>
        spanPool_;
};

/// Hot-path overload: identical verdicts and witnesses to the reference
/// overload (differentially tested), served from the rings' cached
/// indexed spanning sets. `target` must be encoded over ctx.indexer.
/// A query the support pre-check rejects builds no spanning set.
[[nodiscard]] IndexedSumMembership memberOfSum(MembershipContext& ctx,
                                               const anf::IndexedAnf& target,
                                               const NullSpaceRing& r1,
                                               const NullSpaceRing& r2,
                                               std::size_t maxSpan = 64);

/// Boundary-type convenience over the indexed overload.
[[nodiscard]] SumMembership memberOfSum(MembershipContext& ctx,
                                        const anf::Anf& target,
                                        const NullSpaceRing& r1,
                                        const NullSpaceRing& r2,
                                        std::size_t maxSpan = 64);

}  // namespace pd::ring::PD_WIDTH_NS
