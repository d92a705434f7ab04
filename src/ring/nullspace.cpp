#include "ring/nullspace.hpp"

#include <algorithm>

namespace pd::ring::PD_WIDTH_NS {

void NullSpaceRing::addGenerator(const anf::Anf& g) {
    if (g.isZero()) return;
    if (std::find(gens_.begin(), gens_.end(), g) != gens_.end()) return;
    gens_.push_back(g);
    support_ = support_.unionWith(g.support());
    spanCache_.reset();
}

std::vector<anf::Anf> NullSpaceRing::spanningSet(std::size_t maxElems) const {
    std::vector<anf::Anf> out;
    if (gens_.empty()) return out;

    // Breadth-first subset products: start from single generators, then
    // multiply previously produced elements by further generators. Every
    // product of a non-empty subset appears (until the cap); duplicates and
    // zeros are dropped.
    std::vector<anf::Anf> frontier = gens_;
    out = gens_;
    for (std::size_t level = 1; level < gens_.size(); ++level) {
        std::vector<anf::Anf> next;
        for (const auto& f : frontier) {
            for (const auto& g : gens_) {
                if (out.size() + next.size() >= maxElems) break;
                const anf::Anf p = f * g;
                if (p.isZero() || p == f) continue;
                if (std::find(out.begin(), out.end(), p) != out.end())
                    continue;
                if (std::find(next.begin(), next.end(), p) != next.end())
                    continue;
                next.push_back(p);
            }
        }
        if (next.empty() || out.size() >= maxElems) break;
        out.insert(out.end(), next.begin(), next.end());
        frontier = std::move(next);
    }
    if (out.size() > maxElems) out.resize(maxElems);
    return out;
}

const std::vector<NullSpaceRing::SpanEntry>& NullSpaceRing::indexedSpanningSet(
    anf::MonomialIndexer& ix, std::size_t maxElems) const {
    if (gens_.empty()) {
        // Trivial rings are recreated constantly (every identity-free
        // pair carries one); caching an empty span per object would be
        // one allocation per query for nothing.
        static const std::vector<SpanEntry> kEmpty;
        return kEmpty;
    }
    return indexedSpan(ix, maxElems)->elems;
}

const std::vector<anf::Anf>* NullSpaceRing::SpanPool::find(
    const std::vector<anf::Anf>& gens, std::size_t maxElems) const {
    const auto it = pool_.find(hashGens(gens));
    if (it == pool_.end()) return nullptr;
    for (const auto& e : it->second)
        if (e.maxElems == maxElems && e.gens == gens) return &e.elems;
    return nullptr;
}

void NullSpaceRing::SpanPool::store(const std::vector<anf::Anf>& gens,
                                    std::size_t maxElems,
                                    std::vector<anf::Anf> elems) {
    if (entries_ >= kMaxEntries) {
        pool_.clear();
        entries_ = 0;
    }
    auto& bucket = pool_[hashGens(gens)];
    for (const auto& e : bucket)
        if (e.maxElems == maxElems && e.gens == gens) return;
    bucket.push_back({gens, maxElems, std::move(elems)});
    ++entries_;
}

std::shared_ptr<const NullSpaceRing::IndexedSpan> NullSpaceRing::indexedSpan(
    anf::MonomialIndexer& ix, std::size_t maxElems, SpanPool* pool) const {
    if (spanCache_ && spanCache_->indexerUid == ix.uid() &&
        spanCache_->maxElems == maxElems)
        return spanCache_;

    auto span = std::make_shared<IndexedSpan>();
    span->indexerUid = ix.uid();
    span->maxElems = maxElems;

    if (const auto* pooled = pool ? pool->find(gens_, maxElems) : nullptr) {
        // The closure was already built (under whatever indexer): only
        // the id encoding is local. The entry sequence matches the built
        // path below — the pool stores the construction-order element
        // list, and each element's canonical term order is the Anf's
        // own.
        span->elems.reserve(pooled->size());
        for (const auto& e : *pooled) {
            SpanEntry entry;
            entry.expr = e;
            entry.termIds.reserve(e.termCount());
            for (const auto& t : e.terms())
                entry.termIds.push_back(ix.indexOf(t));
            span->elems.push_back(std::move(entry));
        }
    } else {
        // Same breadth-first construction as spanningSet(), but products
        // run over IndexedAnf: one memoized id lookup + bit flip per
        // term pair instead of a 256-bit union and a sorted-vector
        // merge. Equality and zero tests are exact mirrors (interning is
        // injective), so the element sequence is identical to the
        // reference.
        std::vector<anf::IndexedAnf> out;
        if (!gens_.empty()) {
            std::vector<anf::IndexedAnf> gens;
            gens.reserve(gens_.size());
            for (const auto& g : gens_)
                gens.push_back(anf::IndexedAnf::fromAnf(ix, g));
            std::vector<anf::IndexedAnf> frontier = gens;
            out = gens;
            for (std::size_t level = 1; level < gens.size(); ++level) {
                std::vector<anf::IndexedAnf> next;
                for (const auto& f : frontier) {
                    for (const auto& g : gens) {
                        if (out.size() + next.size() >= maxElems) break;
                        const anf::IndexedAnf p = indexedProduct(ix, f, g);
                        if (p.isZero() || p == f) continue;
                        if (std::find(out.begin(), out.end(), p) !=
                            out.end())
                            continue;
                        if (std::find(next.begin(), next.end(), p) !=
                            next.end())
                            continue;
                        next.push_back(p);
                    }
                }
                if (next.empty() || out.size() >= maxElems) break;
                out.insert(out.end(), next.begin(), next.end());
                frontier = std::move(next);
            }
            if (out.size() > maxElems) out.resize(maxElems);
        }

        span->elems.reserve(out.size());
        for (const auto& e : out) {
            SpanEntry entry;
            entry.termIds = e.termIds();
            // Canonical monomial order — the order the reference solve
            // sees the terms in, and the order Anf stores them in.
            ix.sortIdsCanonical(entry.termIds);
            std::vector<anf::Monomial> terms;
            terms.reserve(entry.termIds.size());
            for (const auto id : entry.termIds)
                terms.push_back(ix.monomialAt(id));
            entry.expr = anf::Anf::fromCanonicalTerms(std::move(terms));
            span->elems.push_back(std::move(entry));
        }
        if (pool) {
            std::vector<anf::Anf> elems;
            elems.reserve(span->elems.size());
            for (const auto& e : span->elems) elems.push_back(e.expr);
            pool->store(gens_, maxElems, std::move(elems));
        }
    }

    // Union mask of every element's term ids, for the membership
    // pre-check (a target with a term outside both rings' masks cannot
    // be represented by the solver).
    for (const auto& e : span->elems) {
        for (const auto id : e.termIds) {
            if (id >= span->termMask.size()) span->termMask.resize(id + 1);
            span->termMask.set(id);
        }
    }

    spanCache_ = std::move(span);
    return spanCache_;
}

NullSpaceRing NullSpaceRing::productClosure(const NullSpaceRing& a,
                                            const NullSpaceRing& b) {
    NullSpaceRing r;
    for (const auto& ga : a.gens_)
        for (const auto& gb : b.gens_) r.addGenerator(ga * gb);
    return r;
}

NullSpaceRing NullSpaceRing::merged(const NullSpaceRing& a,
                                    const NullSpaceRing& b) {
    NullSpaceRing r = a;
    for (const auto& g : b.gens_) r.addGenerator(g);
    return r;
}

}  // namespace pd::ring::PD_WIDTH_NS
