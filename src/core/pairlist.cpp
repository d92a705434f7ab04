#include "core/pairlist.hpp"

#include <algorithm>

namespace pd::core {

anf::Anf pairListValue(const PairList& pairs) {
    anf::Anf acc;
    for (const auto& p : pairs) acc ^= p.first * p.second;
    return acc;
}

std::size_t pairListLiterals(const PairList& pairs) {
    std::size_t n = 0;
    for (const auto& p : pairs)
        n += p.first.literalCount() + p.second.literalCount();
    return n;
}

void dropNullPairs(PairList& pairs) {
    std::erase_if(pairs, [](const BPair& p) {
        return p.first.isZero() || p.second.isZero();
    });
}

void dropNullPairs(IPairList& pairs) {
    std::erase_if(pairs, [](const IPair& p) {
        return p.first.isZero() || p.second.isZero();
    });
}

void sortPairs(PairList& pairs) {
    std::sort(pairs.begin(), pairs.end(),
              [](const BPair& a, const BPair& b) {
                  const auto c = a.first <=> b.first;
                  if (c != 0) return c < 0;
                  return a.second < b.second;
              });
}

void sortPairs(const anf::MonomialIndexer& ix, IPairList& pairs) {
    using Ids = std::vector<anf::MonomialIndexer::Id>;
    const auto canonicalIds = [&](const anf::IndexedAnf& e) {
        Ids ids = e.termIds();
        ix.sortIdsCanonical(ids);
        return ids;
    };
    // An Anf compares as its canonical term sequence, lexicographically.
    const auto less = [&](const Ids& a, const Ids& b) {
        return std::lexicographical_compare(
            a.begin(), a.end(), b.begin(), b.end(),
            [&](auto x, auto y) { return ix.canonicalLess(x, y); });
    };
    std::vector<Ids> firsts;
    firsts.reserve(pairs.size());
    for (const auto& p : pairs) firsts.push_back(canonicalIds(p.first));
    std::vector<std::size_t> order(pairs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (less(firsts[a], firsts[b])) return true;
        if (less(firsts[b], firsts[a])) return false;
        // Merged lists have distinct firsts; seconds only break a tie.
        return less(canonicalIds(pairs[a].second),
                    canonicalIds(pairs[b].second));
    });
    IPairList sorted;
    sorted.reserve(pairs.size());
    for (const auto i : order) sorted.push_back(std::move(pairs[i]));
    pairs = std::move(sorted);
}

}  // namespace pd::core
