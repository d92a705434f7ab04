#include "core/basis.hpp"

#include <algorithm>
#include <unordered_map>

#include "anf/indexed.hpp"
#include "ring/membership.hpp"

namespace pd::core::PD_WIDTH_NS {
namespace {

std::uint64_t memoKey(std::uint32_t a, std::uint32_t b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
}

// The merge pipeline runs over IndexedAnf: XOR is word-wise bit math,
// canonical form is free (a bitset has no ordering to maintain), and
// membership solves run over cached indexed spanning sets. The id space
// is injective, so every equality/zero test agrees with the Anf form.

/// Groups pairs by equal second and XORs their firsts. Returns true when
/// the list shrank. Pairs produced by an actual merge get a fresh
/// content-version id; pairs copied through unchanged keep theirs (so the
/// failed-merge memo stays valid for them).
bool mergeBySecond(IPairList& pairs, MergeContext& ctx) {
    std::unordered_map<anf::IndexedAnf, std::vector<std::size_t>,
                       anf::IndexedAnfHash>
        by;
    for (std::size_t i = 0; i < pairs.size(); ++i)
        by[pairs[i].second].push_back(i);
    if (by.size() == pairs.size()) return false;

    IPairList merged;
    merged.reserve(by.size());
    std::vector<char> used(pairs.size(), 0);
    // Preserve first-occurrence order for determinism.
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (used[i]) continue;
        const auto& bucket = by[pairs[i].second];
        IPair acc = pairs[i];
        used[i] = 1;
        bool changed = false;
        for (const std::size_t j : bucket) {
            if (used[j]) continue;
            used[j] = 1;
            changed = true;
            acc.first ^= pairs[j].first;
            acc.ns = ring::NullSpaceRing::productClosure(acc.ns, pairs[j].ns);
        }
        if (changed) acc.id = ctx.freshId();
        merged.push_back(std::move(acc));
    }
    pairs = std::move(merged);
    dropNullPairs(pairs);
    return true;
}

/// Groups pairs by equal first and XORs their seconds.
bool mergeByFirst(IPairList& pairs, MergeContext& ctx) {
    std::unordered_map<anf::IndexedAnf, std::vector<std::size_t>,
                       anf::IndexedAnfHash>
        by;
    for (std::size_t i = 0; i < pairs.size(); ++i)
        by[pairs[i].first].push_back(i);
    if (by.size() == pairs.size()) return false;

    IPairList merged;
    merged.reserve(by.size());
    std::vector<char> used(pairs.size(), 0);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (used[i]) continue;
        const auto& bucket = by[pairs[i].first];
        IPair acc = pairs[i];
        used[i] = 1;
        bool changed = false;
        for (const std::size_t j : bucket) {
            if (used[j]) continue;
            used[j] = 1;
            changed = true;
            acc.second ^= pairs[j].second;
            // first unchanged: null-space knowledge carries over as-is.
        }
        if (changed) acc.id = ctx.freshId();
        merged.push_back(std::move(acc));
    }
    pairs = std::move(merged);
    dropNullPairs(pairs);
    return true;
}

}  // namespace

bool mergeNullspace(IPairList& pairs, const FindBasisOptions& opt,
                    MergeContext& ctx) {
    if (pairs.size() > opt.maxPairsForNullspace) return false;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        for (std::size_t j = i + 1; j < pairs.size(); ++j) {
            if (pairs[i].ns.trivial() && pairs[j].ns.trivial()) continue;
            const bool memoizable = pairs[i].id != 0 && pairs[j].id != 0;
            const std::uint64_t key =
                memoizable ? memoKey(pairs[i].id, pairs[j].id) : 0;
            if (memoizable && ctx.failed.contains(key)) continue;
            if (ctx.attempts >= ctx.attemptLimit) {
                // Anytime cutoff: the list as it stands is a valid (merely
                // less merged) basis; report the truncation honestly.
                ctx.exhausted = true;
                return false;
            }
            ++ctx.attempts;
            anf::IndexedAnf diff = pairs[i].second;
            diff ^= pairs[j].second;
            const auto m = ring::memberOfSum(ctx.membership, diff,
                                             pairs[i].ns, pairs[j].ns,
                                             opt.maxSpan);
            if (!m.member) {
                if (memoizable) ctx.failed.insert(key);
                continue;
            }
            // X_i·Y_i ⊕ X_j·Y_j == (X_i⊕X_j)·(Y_i⊕n_i): n_i annihilates
            // X_i, n_j = diff⊕n_i annihilates X_j, so the product expands
            // back exactly.
            IPair merged;
            merged.first = pairs[i].first;
            merged.first ^= pairs[j].first;
            merged.second = pairs[i].second;
            merged.second ^= m.part1;
            merged.ns =
                ring::NullSpaceRing::productClosure(pairs[i].ns, pairs[j].ns);
            merged.id = ctx.freshId();
            pairs[i] = std::move(merged);
            pairs.erase(pairs.begin() + static_cast<std::ptrdiff_t>(j));
            dropNullPairs(pairs);
            return true;
        }
    }
    return false;
}

void mergeAlgebraic(IPairList& pairs, MergeContext& ctx) {
    // Alternate the two merge directions to a fixpoint. Each round strictly
    // shrinks the list, so this terminates quickly.
    bool changed = true;
    while (changed) {
        changed = false;
        if (mergeByFirst(pairs, ctx)) changed = true;
        if (mergeBySecond(pairs, ctx)) changed = true;
    }
}

BasisResult findBasis(const anf::Anf& folded, const anf::VarSet& group,
                      const ring::IdentityDb& ids,
                      const FindBasisOptions& opt) {
    MergeContext ctx;
    return materialize(ctx.membership.indexer,
                       findBasisIndexed(ctx, folded, group, ids, opt));
}

IndexedBasis findBasisIndexed(MergeContext& ctx, const anf::Anf& folded,
                              const anf::VarSet& group,
                              const ring::IdentityDb& ids,
                              const FindBasisOptions& opt,
                              const MonomialRingFn& ringOf,
                              const SplitHints& hints) {
    IndexedBasis out;

    ctx.resetForRun(opt.mergeAttemptBudget);
    anf::MonomialIndexer& ix = ctx.membership.indexer;
    // Upper bound on distinct rest/group-part monomials; spanning-set
    // monomials push past it only when identities are in play. Fresh
    // contexts only — a recycled probe context is already sized, and
    // re-running the rehash policy each probe is measurable churn.
    if (ix.size() == 0) ix.reserve(folded.termCount() + 64);

    // Raw pairs, immediately bucketed by group-part (merge-by-first on
    // monomials) — the paper's merge order, and near-linear in the term
    // count because a k-variable group admits at most 2^k − 1 distinct
    // group-parts. That bound also makes a first-occurrence-ordered vector
    // with linear scan the right bucket container: no per-term 256-bit
    // hashing. Each bucket's first is the single monomial the identity
    // database can seed a null-space ring for. Bucket cofactors accumulate
    // as indexed bit flips: mod-2 cancellation needs no sorting.
    std::vector<std::pair<anf::Monomial, anf::IndexedAnf>> buckets;
    const auto splitTerm = [&](const anf::Monomial& t) {
        const anf::Monomial g = t.restrictedTo(group);
        const anf::Monomial r = t.without(group);
        auto it = std::find_if(
            buckets.begin(), buckets.end(),
            [&](const auto& b) { return b.first == g; });
        if (it == buckets.end()) {
            buckets.emplace_back(g, anf::IndexedAnf{});
            it = buckets.end() - 1;
        }
        it->second.flipTerm(ix.indexOf(r));
    };
    const auto terms = folded.terms();
    if (hints.touchedTerms) {
        // The sweep pre-indexed the intersecting terms; walk just those.
        for (const auto idx : *hints.touchedTerms) splitTerm(terms[idx]);
        if (!hints.skipUntouched) {
            std::vector<anf::Monomial> untouchedTerms;
            for (const auto& t : terms)
                if (!t.intersects(group)) untouchedTerms.push_back(t);
            out.untouched =
                anf::Anf::fromCanonicalTerms(std::move(untouchedTerms));
        }
    } else {
        std::vector<anf::Monomial> untouchedTerms;
        for (const auto& t : terms) {
            if (!t.intersects(group))
                untouchedTerms.push_back(t);
            else
                splitTerm(t);
        }
        out.untouched =
            anf::Anf::fromCanonicalTerms(std::move(untouchedTerms));
    }

    IPairList pairs;
    pairs.reserve(buckets.size());
    for (auto& [g, acc] : buckets) {
        if (acc.isZero()) continue;  // rests cancelled mod 2
        IPair p;
        p.first.flipTerm(ix.indexOf(g));
        p.second = std::move(acc);
        p.ns = ringOf ? ringOf(g)
                      : ids.nullspaceOfMonomial(g, opt.complementNullspace);
        p.id = ctx.freshId();
        pairs.push_back(std::move(p));
    }

    mergeAlgebraic(pairs, ctx);
    if (opt.useNullspaceMerging) {
        while (mergeNullspace(pairs, opt, ctx)) mergeAlgebraic(pairs, ctx);
    }

    out.pairs = std::move(pairs);
    out.budgetExhausted = ctx.exhausted;
    out.mergeAttempts = ctx.attempts;
    return out;
}

BasisResult materialize(const anf::MonomialIndexer& ix, IndexedBasis&& b) {
    sortPairs(ix, b.pairs);
    BasisResult out;
    out.pairs = decodePairs(ix, b.pairs);
    out.untouched = std::move(b.untouched);
    out.budgetExhausted = b.budgetExhausted;
    out.mergeAttempts = b.mergeAttempts;
    return out;
}

}  // namespace pd::core::PD_WIDTH_NS
