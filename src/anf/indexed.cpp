#include "anf/indexed.hpp"

#include <atomic>

namespace pd::anf::PD_WIDTH_NS {

std::uint64_t MonomialIndexer::nextUid() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

IndexedAnf indexedProduct(MonomialIndexer& ix, const IndexedAnf& a,
                          const IndexedAnf& b) {
    if (a.isZero() || b.isZero()) return IndexedAnf{};
    const auto aIds = a.termIds();
    const auto bIds = b.termIds();
    IndexedAnf r;
    for (const auto ia : aIds)
        for (const auto ib : bIds) r.flipTerm(ix.productOf(ia, ib));
    return r;
}

IndexedAnf indexedSubstitute(MonomialIndexer& ix, const IndexedAnf& e,
                             const std::unordered_map<Var, IndexedAnf>& map) {
    VarSet replaced;
    for (const auto& [v, _] : map) replaced.insert(v);

    IndexedAnf acc;
    for (const auto id : e.termIds()) {
        const Monomial t = ix.monomialAt(id);
        if (!t.intersects(replaced)) {
            acc.flipTerm(id);
            continue;
        }
        // Expand the monomial as a product of kept variables and
        // substituted expressions.
        IndexedAnf prod;
        prod.flipTerm(ix.indexOf(t.without(replaced)));
        t.restrictedTo(replaced).forEachVar([&](Var v) {
            prod = indexedProduct(ix, prod, map.at(v));
        });
        acc ^= prod;
    }
    return acc;
}

}  // namespace pd::anf::PD_WIDTH_NS
