// Pair lists: the working representation of the basis step (paper §5).
//
// A pair (X, Y) stands for the product X·Y where X (the prospective basis
// element) is an expression over the current group's variables and Y (the
// cofactor) is an expression over everything else — including the tag
// variables K_i that fold a multi-output list into one expression.
//
// A pair lives in two forms. findBasis (§5.2) merges IPairs: both sides
// indexed over one MonomialIndexer, plus the known subring of N(X) and a
// content-version id that only the null-space merges read. After
// findBasis a pair is just its two expressions: a BPair. The decomposer
// encodes the chosen basis once (encodePairs), runs linear minimization
// (§5.3), size reduction (§5.4) and sortPairs on those ringless IPairs
// over one indexer, and decodes once (decodePairs) for the rewrite.
#pragma once

#include <cstdint>
#include <vector>

#include "anf/anf.hpp"
#include "anf/indexed.hpp"
#include "ring/nullspace.hpp"

namespace pd::core::PD_WIDTH_NS {

/// One (basis element, cofactor) pair past findBasis.
struct BPair {
    anf::Anf first;   ///< over group variables
    anf::Anf second;  ///< over non-group variables (may contain tags)
};

using PairList = std::vector<BPair>;

/// A pair over a MonomialIndexer's id space: the form findBasis merges in
/// and minimization, size reduction and probe scoring work in. Equality
/// and zero tests agree with the Anf form because the id space is
/// injective. Only findBasis's null-space merges read the ring and the
/// id; encodePairs leaves them empty.
struct IPair {
    anf::IndexedAnf first;
    anf::IndexedAnf second;
    ring::NullSpaceRing ns;  ///< known subring of N(first)
    /// Content-version id for findBasis's failed-merge memo: unique
    /// within one MergeContext per (first, second, ns) value, so any
    /// mutation during the merge takes a fresh id. 0 means never
    /// memoized.
    std::uint32_t id = 0;
};

using IPairList = std::vector<IPair>;

/// XOR of first·second over all pairs — the expression a pair list
/// represents (used by tests and by the rewrite step).
[[nodiscard]] anf::Anf pairListValue(const PairList& pairs);

/// Total literal count of the list (paper's size metric, §5.4).
[[nodiscard]] std::size_t pairListLiterals(const PairList& pairs);

/// Drops pairs whose first or second is zero (they contribute nothing).
void dropNullPairs(IPairList& pairs);

/// Deterministic normalization: orders pairs by (first, second) in the
/// canonical Anf order, so that algorithm output is independent of
/// hash-map iteration order and of how `ix` numbered the monomials. Sides
/// compare as canonical id sequences; nothing is decoded.
void sortPairs(const anf::MonomialIndexer& ix, IPairList& pairs);

/// Encodes a basis over `ix`, in list order, with trivial rings and id 0.
[[nodiscard]] IPairList encodePairs(anf::MonomialIndexer& ix,
                                    const PairList& pairs);

/// Decodes indexed pairs over `ix`, in list order.
[[nodiscard]] PairList decodePairs(const anf::MonomialIndexer& ix,
                                   const IPairList& pairs);

}  // namespace pd::core::PD_WIDTH_NS
