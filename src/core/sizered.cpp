#include "core/sizered.hpp"

#include "core/basis.hpp"

namespace pd::core::PD_WIDTH_NS {
namespace {

/// Applies the best ordered transform once; returns true on improvement.
bool improveOnce(const anf::MonomialIndexer& ix, IPairList& pairs) {
    const auto lits = [&](const anf::IndexedAnf& e) {
        return e.literalCount(ix);
    };
    std::size_t bestGain = 0;
    std::size_t bi = 0;
    std::size_t bj = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        for (std::size_t j = 0; j < pairs.size(); ++j) {
            if (i == j) continue;
            // Candidate: (X_i⊕X_j, Y_i), (X_j, Y_i⊕Y_j) — pair j keeps its
            // first, so the ordered direction matters.
            const std::size_t before =
                lits(pairs[i].first) + lits(pairs[i].second) +
                lits(pairs[j].first) + lits(pairs[j].second);
            anf::IndexedAnf nf = pairs[i].first;
            nf ^= pairs[j].first;
            anf::IndexedAnf ns = pairs[i].second;
            ns ^= pairs[j].second;
            if (nf.isZero() || ns.isZero()) continue;
            const std::size_t after = lits(nf) + lits(pairs[i].second) +
                                      lits(pairs[j].first) + lits(ns);
            if (after < before && before - after > bestGain) {
                bestGain = before - after;
                bi = i;
                bj = j;
            }
        }
    }
    if (bestGain == 0) return false;

    pairs[bi].first ^= pairs[bj].first;
    pairs[bj].second ^= pairs[bi].second;  // pair j keeps its first
    dropNullPairs(pairs);
    return true;
}

}  // namespace

std::size_t improveBasisSizeReduction(const anf::MonomialIndexer& ix,
                                      IPairList& pairs) {
    MergeContext ctx;
    std::size_t applied = 0;
    mergeAlgebraic(pairs, ctx);  // identical firsts/seconds collapse for free
    while (improveOnce(ix, pairs)) {
        ++applied;
        mergeAlgebraic(pairs, ctx);
        if (applied > 4 * pairs.size() + 64) break;  // safety valve
    }
    return applied;
}

}  // namespace pd::core::PD_WIDTH_NS
