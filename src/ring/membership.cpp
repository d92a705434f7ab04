#include "ring/membership.hpp"

#include "anf/indexer.hpp"
#include "gf2/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace pd::ring::PD_WIDTH_NS {
namespace {

obs::Counter& queriesCounter() {
    static auto& c = obs::counter("ring.member.queries");
    return c;
}
obs::Counter& supportRejectsCounter() {
    static auto& c = obs::counter("ring.member.support_rejects");
    return c;
}
obs::Counter& solvesCounter() {
    static auto& c = obs::counter("ring.member.solves");
    return c;
}

/// Counts one event of `field` into the context's deferred tally, or
/// straight into `counter` when nothing defers.
void tally(const MembershipContext& ctx, std::uint64_t MemberTally::*field,
           obs::Counter& counter) {
    if (ctx.deferred)
        ++(ctx.deferred->*field);
    else
        counter.add();
}

}  // namespace

void MemberTally::book() const {
    queriesCounter().add(queries);
    supportRejectsCounter().add(supportRejects);
    solvesCounter().add(solves);
}

SumMembership memberOfSum(const anf::Anf& target, const NullSpaceRing& r1,
                          const NullSpaceRing& r2, std::size_t maxSpan) {
    queriesCounter().add();
    SumMembership out;
    if (target.isZero()) {
        out.member = true;
        return out;
    }

    const auto span1 = r1.spanningSet(maxSpan);
    const auto span2 = r2.spanningSet(maxSpan);
    if (span1.empty() && span2.empty()) return out;

    anf::MonomialIndexer indexer;
    gf2::SpanSolver solver;
    std::vector<const anf::Anf*> inserted;
    inserted.reserve(span1.size() + span2.size());
    for (const auto& e : span1) {
        solver.add(indexer.toBits(e));
        inserted.push_back(&e);
    }
    const std::size_t split = inserted.size();
    for (const auto& e : span2) {
        solver.add(indexer.toBits(e));
        inserted.push_back(&e);
    }

    const auto comb = solver.represent(indexer.toBits(target));
    if (!comb) return out;

    out.member = true;
    for (std::size_t i = 0; i < inserted.size(); ++i) {
        if (i < comb->size() && comb->get(i)) {
            if (i < split)
                out.part1 ^= *inserted[i];
            else
                out.part2 ^= *inserted[i];
        }
    }
    PD_ASSERT((out.part1 ^ out.part2) == target);
    return out;
}

const NullSpaceRing::IndexedSpan& MembershipContext::spanOf(
    const NullSpaceRing& r, std::size_t maxSpan) {
    if (r.trivial()) {
        static const NullSpaceRing::IndexedSpan kEmpty;
        return kEmpty;
    }
    if (const auto* cached = r.cachedSpan(indexer.uid(), maxSpan))
        return *cached;
    std::uint64_t h = NullSpaceRing::SpanPool::hashGens(r.generators());
    h ^= maxSpan;
    h *= 0x100000001b3ull;
    auto& bucket = spanPool_[h];
    for (const auto& [gens, span] : bucket) {
        if (span->maxElems == maxSpan && gens == r.generators()) {
            r.adoptSpan(span);
            return *span;
        }
    }
    // Builds (or re-encodes from the shared Anf-domain pool) and caches
    // the result on `r` itself.
    auto span = r.indexedSpan(indexer, maxSpan, sharedSpans);
    bucket.emplace_back(r.generators(), span);
    return *bucket.back().second;
}

IndexedSumMembership memberOfSum(MembershipContext& ctx,
                                 const anf::IndexedAnf& target,
                                 const NullSpaceRing& r1,
                                 const NullSpaceRing& r2,
                                 std::size_t maxSpan) {
    tally(ctx, &MemberTally::queries, queriesCounter());
    IndexedSumMembership out;
    if (target.isZero()) {
        out.member = true;
        return out;
    }
    if (r1.trivial() && r2.trivial()) return out;

    // Support pre-check: every span element is a product of generators,
    // so a target term with a variable outside both rings' generator
    // supports is unrepresentable. Exact, and it runs before spanOf, so
    // a rejected query never builds a spanning set.
    {
        const anf::VarSet reach = r1.support().unionWith(r2.support());
        bool outside = false;
        target.bits().forEachSetBit([&](std::size_t id) {
            const auto& m = ctx.indexer.monomialAt(
                static_cast<anf::MonomialIndexer::Id>(id));
            outside = outside || !m.subsetOf(reach);
        });
        if (outside) {
            tally(ctx, &MemberTally::supportRejects, supportRejectsCounter());
            return out;
        }
    }

    const auto& ispan1 = ctx.spanOf(r1, maxSpan);
    const auto& ispan2 = ctx.spanOf(r2, maxSpan);
    const auto& span1 = ispan1.elems;
    const auto& span2 = ispan2.elems;
    if (span1.empty() && span2.empty()) return out;

    // Coverage pre-check: a target term no span element can produce makes
    // the solve unwinnable — the solver would fail on that column, so
    // skipping it is exact, not heuristic. Most negative queries die
    // here, word-wise, instead of building a solver.
    {
        const gf2::BitVec& t = target.bits();
        const gf2::BitVec& m1 = ispan1.termMask;
        const gf2::BitVec& m2 = ispan2.termMask;
        for (std::size_t w = 0; w < t.wordCount(); ++w) {
            const std::uint64_t tw = t.word(w);
            if (!tw) continue;
            std::uint64_t mw = 0;
            if (w < m1.wordCount()) mw |= m1.word(w);
            if (w < m2.wordCount()) mw |= m2.word(w);
            if (tw & ~mw) return out;
        }
    }
    tally(ctx, &MemberTally::solves, solvesCounter());
    // Only solves slower than 20µs are worth a trace slot — membership
    // runs ~10^5 times per job and the ring would otherwise wrap
    // instantly; the counter above stays exact regardless.
    obs::ScopedSpan solveSpan("ring.member.solve", "ring",
                              /*minDurNs=*/20'000);

    // Assign dense solver columns in the reference's first-occurrence
    // order: each element's terms in canonical monomial order, elements in
    // span1-then-span2 order. The scratch arrays translate a global
    // monomial id to this query's column in O(1). (Target-only columns
    // may be assigned in any order: they are beyond every pivot, so they
    // change neither the verdict nor the certificate.)
    ++ctx.generation_;
    std::uint32_t nextLocal = 0;
    const auto localCol = [&](anf::MonomialIndexer::Id id) {
        if (id >= ctx.stamp_.size()) {
            ctx.stamp_.resize(ctx.indexer.size(), 0);
            ctx.localOf_.resize(ctx.indexer.size(), 0);
        }
        if (ctx.stamp_[id] != ctx.generation_) {
            ctx.stamp_[id] = ctx.generation_;
            ctx.localOf_[id] = nextLocal++;
        }
        return ctx.localOf_[id];
    };

    gf2::SpanSolver solver;
    const std::vector<NullSpaceRing::SpanEntry>* spans[2] = {&span1, &span2};
    for (const auto* span : spans) {
        for (const auto& e : *span) {
            for (const auto id : e.termIds) localCol(id);
            gf2::BitVec v(nextLocal);
            for (const auto id : e.termIds) v.set(ctx.localOf_[id]);
            solver.add(std::move(v));
        }
    }
    const std::size_t split = span1.size();

    std::vector<std::uint32_t> targetCols;
    targetCols.reserve(target.termCount());
    target.bits().forEachSetBit([&](std::size_t id) {
        targetCols.push_back(
            localCol(static_cast<anf::MonomialIndexer::Id>(id)));
    });
    gf2::BitVec tv(nextLocal);
    for (const auto col : targetCols) tv.set(col);

    const auto comb = solver.represent(std::move(tv));
    if (!comb) return out;

    out.member = true;
    const std::size_t total = span1.size() + span2.size();
    for (std::size_t i = 0; i < total; ++i) {
        if (i < comb->size() && comb->get(i)) {
            const auto& e =
                i < split ? span1[i] : span2[i - split];
            anf::IndexedAnf elem;
            for (const auto id : e.termIds) elem.flipTerm(id);
            if (i < split)
                out.part1 ^= elem;
            else
                out.part2 ^= elem;
        }
    }
    {
        anf::IndexedAnf check = out.part1;
        check ^= out.part2;
        PD_ASSERT(check == target);
    }
    return out;
}

SumMembership memberOfSum(MembershipContext& ctx, const anf::Anf& target,
                          const NullSpaceRing& r1, const NullSpaceRing& r2,
                          std::size_t maxSpan) {
    const auto indexed = memberOfSum(
        ctx, anf::IndexedAnf::fromAnf(ctx.indexer, target), r1, r2, maxSpan);
    SumMembership out;
    out.member = indexed.member;
    if (indexed.member) {
        out.part1 = indexed.part1.toAnf(ctx.indexer);
        out.part2 = indexed.part2.toAnf(ctx.indexer);
    }
    return out;
}

}  // namespace pd::ring::PD_WIDTH_NS
