#include "core/rewrite.hpp"

#include "util/error.hpp"

namespace pd::core {

anf::Anf rewriteFolded(const PairList& pairs,
                       std::span<const anf::Var> newVars,
                       const anf::Anf& untouched) {
    PD_ASSERT(pairs.size() == newVars.size());
    anf::Anf next = untouched;
    for (std::size_t i = 0; i < pairs.size(); ++i)
        next ^= anf::Anf::var(newVars[i]) * pairs[i].second;
    return next;
}

std::vector<anf::Anf> unfold(const anf::Anf& folded,
                             std::span<const anf::Var> tags) {
    std::vector<std::vector<anf::Monomial>> buckets(tags.size());
    anf::VarSet tagMask;
    for (const auto t : tags) tagMask.insert(t);

    for (const auto& mono : folded.terms()) {
        const anf::Monomial tagged = mono.restrictedTo(tagMask);
        PD_ASSERT(tagged.degree() == 1);  // exactly one tag per monomial
        const anf::Var tag = tagged.vars()[0];
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (tags[i] == tag) {
                anf::Monomial m = mono;
                m.erase(tag);
                buckets[i].push_back(m);
                break;
            }
        }
    }

    std::vector<anf::Anf> out;
    out.reserve(tags.size());
    // Erasing the same tag from every term of a bucket keeps the terms'
    // canonical order, so each bucket is already sorted and unique.
    for (auto& b : buckets)
        out.push_back(anf::Anf::fromCanonicalTerms(std::move(b)));
    return out;
}

}  // namespace pd::core
