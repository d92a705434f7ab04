// Pair lists: the working representation of findBasis (paper §5.2).
//
// A pair (X, Y) stands for the product X·Y where X (the prospective basis
// element) is an expression over the current group's variables and Y (the
// cofactor) is an expression over everything else — including the tag
// variables K_i that fold a multi-output list into one expression. Each
// pair carries the known subring of N(X) used for null-space merging.
#pragma once

#include <cstdint>
#include <vector>

#include "anf/anf.hpp"
#include "anf/indexed.hpp"
#include "ring/nullspace.hpp"

namespace pd::core {

/// One (basis candidate, cofactor) pair.
struct BPair {
    anf::Anf first;         ///< over group variables
    anf::Anf second;        ///< over non-group variables (may contain tags)
    ring::NullSpaceRing ns; ///< known subring of N(first)
    /// Content-version id for the merge memo: unique (within one merge
    /// context) per (first, second, ns) value — any mutation of the pair
    /// must assign a fresh id. 0 means "unversioned": never memoized.
    std::uint32_t id = 0;
};

using PairList = std::vector<BPair>;

/// The same pair over a MonomialIndexer's id space: the form findBasis
/// merges in and probe scoring minimizes in. Equality and zero tests agree
/// with BPair's because the id space is injective.
struct IPair {
    anf::IndexedAnf first;
    anf::IndexedAnf second;
    ring::NullSpaceRing ns;
    std::uint32_t id = 0;  ///< content-version id, as BPair::id
};

using IPairList = std::vector<IPair>;

/// XOR of first·second over all pairs — the expression a pair list
/// represents (used by tests and by the rewrite step).
[[nodiscard]] anf::Anf pairListValue(const PairList& pairs);

/// Total literal count of the list (paper's size metric, §5.4).
[[nodiscard]] std::size_t pairListLiterals(const PairList& pairs);

/// Drops pairs whose first or second is zero (they contribute nothing).
void dropNullPairs(PairList& pairs);
void dropNullPairs(IPairList& pairs);

/// Deterministic normalization: orders pairs by (first, second) so that
/// algorithm output is independent of hash-map iteration order.
void sortPairs(PairList& pairs);

/// The same order for indexed pairs over `ix`, compared as canonical id
/// sequences, so no side is decoded to an Anf.
void sortPairs(const anf::MonomialIndexer& ix, IPairList& pairs);

}  // namespace pd::core
