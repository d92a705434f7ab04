#include "anf/ops.hpp"

#include "anf/indexed.hpp"

namespace pd::anf::PD_WIDTH_NS {

Anf substitute(const Anf& e, const std::unordered_map<Var, Anf>& map) {
    // Only the terms holding a replaced variable change. The others are a
    // subsequence of a canonical list, so they stay canonical as is; the
    // hit terms expand through the indexed kernel (memoized id products,
    // mod-2 accumulation as bit flips) and XOR-merge back in. The
    // Reed-Muller form is construction-independent, so the result is
    // exactly what the direct expansion would produce.
    VarSet replaced;
    for (const auto& [v, _] : map) replaced.insert(v);
    const auto [hit, kept] = splitByGroup(e, replaced);
    if (hit.isZero()) return e;
    MonomialIndexer ix;
    std::unordered_map<Var, IndexedAnf> imap;
    imap.reserve(map.size());
    for (const auto& [v, ex] : map)
        imap.emplace(v, IndexedAnf::fromAnf(ix, ex));
    Anf r =
        indexedSubstitute(ix, IndexedAnf::fromAnf(ix, hit), imap).toAnf(ix);
    r ^= kept;
    return r;
}

namespace {

/// The terms of `e` holding `v`, with `v` erased. Erasing one variable
/// from every term keeps their order, so the result is canonical as is.
Anf quotientBy(const Anf& e, Var v) {
    std::vector<Monomial> terms;
    for (const auto& t : e.terms()) {
        if (!t.contains(v)) continue;
        Monomial m = t;
        m.erase(v);
        terms.push_back(m);
    }
    return Anf::fromCanonicalTerms(std::move(terms));
}

}  // namespace

Anf cofactor(const Anf& e, Var v, bool value) {
    // e = v·Q ⊕ R with Q, R free of v: e[v=0] = R, e[v=1] = Q ⊕ R.
    std::vector<Monomial> rest;
    for (const auto& t : e.terms())
        if (!t.contains(v)) rest.push_back(t);
    Anf r = Anf::fromCanonicalTerms(std::move(rest));
    if (value) r ^= quotientBy(e, v);
    return r;
}

Anf xorAll(std::span<const Anf> list) {
    Anf acc;
    for (const auto& e : list) acc ^= e;
    return acc;
}

GroupSplit splitByGroup(const Anf& e, const VarSet& mask) {
    GroupSplit out;
    std::vector<Monomial> touch;
    std::vector<Monomial> rest;
    for (const auto& t : e.terms()) {
        if (t.intersects(mask))
            touch.push_back(t);
        else
            rest.push_back(t);
    }
    // Filtered subsequences of a canonical term list stay sorted/unique.
    out.touching = Anf::fromCanonicalTerms(std::move(touch));
    out.untouched = Anf::fromCanonicalTerms(std::move(rest));
    return out;
}

Anf derivative(const Anf& e, Var v) { return quotientBy(e, v); }

}  // namespace pd::anf::PD_WIDTH_NS
