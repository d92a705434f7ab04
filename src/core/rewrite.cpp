#include "core/rewrite.hpp"

#include "util/error.hpp"

namespace pd::core::PD_WIDTH_NS {

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

bool unfoldsToLiterals(const anf::Anf& folded, const anf::VarSet& tagMask) {
    // An output is 0, 1, x or x ⊕ 1: every term has degree ≤ 1, and at
    // most one has degree 1. Folded, each term also carries its output's
    // tag, so with tags the degrees are one higher and "at most one" is
    // per tag. The graded order puts the highest-degree terms last: the
    // usual "not yet" answer reads one term.
    const auto terms = folded.terms();
    const std::size_t top = tagMask.isOne() ? 1 : 2;
    anf::VarSet seen;
    for (std::size_t i = terms.size(); i-- > 0;) {
        const std::size_t d = terms[i].degree();
        if (d > top) return false;
        if (d < top) break;
        // A second top-degree term of one output: two variables.
        const anf::VarSet tag = terms[i].restrictedTo(tagMask);
        const bool repeat = tagMask.isOne() ? i + 1 < terms.size()
                                            : seen.intersects(tag);
        if (repeat) return false;
        seen = seen.unionWith(tag);
    }
    return true;
}

}  // namespace pd::core::PD_WIDTH_NS
