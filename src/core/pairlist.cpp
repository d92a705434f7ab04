#include "core/pairlist.hpp"

#include <algorithm>

namespace pd::core::PD_WIDTH_NS {

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

void dropNullPairs(IPairList& pairs) {
    std::erase_if(pairs, [](const IPair& p) {
        return p.first.isZero() || p.second.isZero();
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

IPairList encodePairs(anf::MonomialIndexer& ix, const PairList& pairs) {
    IPairList out;
    out.reserve(pairs.size());
    for (const auto& p : pairs) {
        auto& q = out.emplace_back();
        q.first = anf::IndexedAnf::fromAnf(ix, p.first);
        q.second = anf::IndexedAnf::fromAnf(ix, p.second);
    }
    return out;
}

PairList decodePairs(const anf::MonomialIndexer& ix, const IPairList& pairs) {
    PairList out;
    out.reserve(pairs.size());
    for (const auto& p : pairs)
        out.push_back({p.first.toAnf(ix), p.second.toAnf(ix)});
    return out;
}

}  // namespace pd::core::PD_WIDTH_NS
