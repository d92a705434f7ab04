// findBasis (paper §5.2): extract the leader expressions of a group.
//
// Every monomial of the folded expression that touches the group splits
// into (group-part, rest-part). The resulting raw pair list is then merged
// to a fixpoint, in indexed form (IPair) with each pair's null-space ring:
//   * algebraically — (α,γ),(β,γ) → (α⊕β,γ) and (α,β),(α,γ) → (α,β⊕γ) —
//     exactly the paper's first example; and
//   * via null-spaces — (X₁,Y₁),(X₂,Y₂) → (X₁⊕X₂, Y₁⊕n₁) whenever
//     Y₁⊕Y₂ ∈ N(X₁)⊕N(X₂) with witness split n₁⊕n₂ — the paper's second
//     example, enabled by identities discovered in earlier iterations.
// The firsts of the merged list are the basis candidates. The result
// leaves findBasis as plain (first, second) pairs: the rings and merge
// ids are findBasis-internal.
//
// The null-space pass is where decomposition time goes, so it runs under
// a MergeContext: membership solves go through the indexed-ANF fast path
// (ring/membership.hpp), failed (i, j) merge attempts are memoized by the
// pairs' content-version ids so a merge elsewhere in the list never
// forces them to be re-solved, and an optional merge-attempt budget turns
// the pass into an anytime computation — stopping early only forgoes
// merges (a larger but still correct basis), never soundness.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>

#include "anf/anf.hpp"
#include "core/pairlist.hpp"
#include "ring/identity_db.hpp"
#include "ring/membership.hpp"

namespace pd::core::PD_WIDTH_NS {

struct FindBasisOptions {
    /// Enable null-space (Boolean-division-strength) merging.
    bool useNullspaceMerging = true;
    /// Add the free complement generators (1⊕v) to monomial null-spaces.
    bool complementNullspace = false;
    /// Cap on spanning-set size per membership query.
    std::size_t maxSpan = 64;
    /// Cap on pairs considered for the quadratic null-space pass.
    std::size_t maxPairsForNullspace = 64;
    /// Cap on membership solves across the whole null-space merge phase
    /// (one findBasis call); 0 = unlimited. When the budget runs out the
    /// merge loop stops with the best list found so far and the result is
    /// flagged budgetExhausted.
    std::size_t mergeAttemptBudget = 0;

    [[nodiscard]] bool operator==(const FindBasisOptions&) const = default;
};

/// Shared state of one findBasis merge phase: pair id allocation, the
/// failed-merge memo, the membership fast-path context, and the budget
/// accounting.
struct MergeContext {
    ring::MembershipContext membership;
    /// (id lo << 32 | id hi) of pair-id pairs whose membership solve came
    /// back negative; retried only when either pair's content changes.
    std::unordered_set<std::uint64_t> failed;
    std::uint32_t nextPairId = 1;
    /// Budget accounting (attempts = actual solves, memo hits excluded).
    std::size_t attempts = 0;
    std::size_t attemptLimit = SIZE_MAX;  ///< from mergeAttemptBudget
    bool exhausted = false;

    std::uint32_t freshId() { return nextPairId++; }

    /// Re-arms the context for a fresh findBasis run while keeping the
    /// expensive cross-run state — the membership indexer with its cached
    /// solver scratch and memoized monomial products. Everything scoped
    /// to one run (pair ids, the failed-merge memo, budget accounting)
    /// resets, so a run on a recycled context is bit-identical to a run
    /// on a brand-new one (IndexedAnf semantics are id-injective: only
    /// term-set equality matters, never the numeric ids).
    void resetForRun(std::size_t attemptBudget) {
        failed.clear();
        nextPairId = 1;
        attempts = 0;
        attemptLimit = attemptBudget == 0 ? SIZE_MAX : attemptBudget;
        exhausted = false;
    }
};

struct BasisResult {
    PairList pairs;       ///< merged (basis element, cofactor) pairs, sorted
    anf::Anf untouched;   ///< monomials disjoint from the group
    bool budgetExhausted = false;  ///< null-space merging was truncated
    std::size_t mergeAttempts = 0; ///< membership solves performed
};

/// Extracts the basis of `group` from `folded`. Identities in `ids` seed
/// the null-space rings of the initial monomial pairs.
[[nodiscard]] BasisResult findBasis(const anf::Anf& folded,
                                    const anf::VarSet& group,
                                    const ring::IdentityDb& ids,
                                    const FindBasisOptions& opt = {});

/// Optional monomial → seed-ring source for the initial pairs. A
/// provider must return the same ring *content* as
/// `ids.nullspaceOfMonomial(m, opt.complementNullspace)` — the probe
/// sweep passes a per-sweep cache so one derivation (and one indexed
/// spanning set, warm on the shared ring object) serves every candidate
/// that buckets on the monomial, instead of one per probe.
using MonomialRingFn =
    std::function<const ring::NullSpaceRing&(const anf::Monomial&)>;

/// Probe-only split acceleration. The sweep has already indexed which
/// folded terms intersect each candidate, so the split can walk just
/// those (`touchedTerms`: ascending indices into folded.terms(), exactly
/// the intersecting ones), and the untouched remainder — whose literal
/// count the sweep already knows as the candidate's bound — need not be
/// materialized (`skipUntouched` leaves `untouched` empty).
/// Pair results are bit-identical with or without hints.
struct SplitHints {
    const std::vector<std::uint32_t>* touchedTerms = nullptr;
    bool skipUntouched = false;
};

/// findBasis's merged pairs before decoding: IndexedAnf sides over the
/// context's indexer, with their rings and ids, in merge order (not yet
/// sortPairs order).
struct IndexedBasis {
    IPairList pairs;
    anf::Anf untouched;
    bool budgetExhausted = false;
    std::size_t mergeAttempts = 0;
};

/// findBasis over a caller-owned context, stopping short of decoding.
/// The indexer (and the solver scratch keyed to it) survives across
/// runs, which is what makes a probe sweep incremental — candidates share
/// interned monomials and memoized products instead of re-deriving them
/// per probe — and a probe scores on the indexed pairs, decoding only a
/// basis that can still win its sweep. The context is resetForRun()
/// internally, so results are bit-identical to findBasis() on a fresh
/// context whatever state the indexer carries.
[[nodiscard]] IndexedBasis findBasisIndexed(MergeContext& ctx,
                                            const anf::Anf& folded,
                                            const anf::VarSet& group,
                                            const ring::IdentityDb& ids,
                                            const FindBasisOptions& opt = {},
                                            const MonomialRingFn& ringOf = {},
                                            const SplitHints& hints = {});

/// Sorts an indexed basis over `ix` (sortPairs) and decodes it to plain
/// pairs: findBasis is materialize(findBasisIndexed(...)).
[[nodiscard]] BasisResult materialize(const anf::MonomialIndexer& ix,
                                      IndexedBasis&& basis);

/// Runs the algebraic merge rounds to a fixpoint: a merged pair gets its
/// rings' product closure and a fresh id from `ctx`. Linear minimization
/// and size reduction reuse it past findBasis with a throwaway context,
/// whose ids nothing reads.
void mergeAlgebraic(IPairList& pairs, MergeContext& ctx);

/// Runs one full null-space merge pass; returns true when a merge fired.
bool mergeNullspace(IPairList& pairs, const FindBasisOptions& opt,
                    MergeContext& ctx);

}  // namespace pd::core::PD_WIDTH_NS
