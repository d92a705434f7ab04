#include "core/probe/probe.hpp"

#include <algorithm>
#include <future>
#include <unordered_map>

#include "core/minimize.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/pool.hpp"

namespace pd::core::probe {
namespace {

/// One probe's score, plus its decoded raw basis when the probe could
/// still win its wave.
struct Scored {
    std::size_t score = SIZE_MAX;
    bool exhausted = false;
    std::optional<BasisResult> raw;
};

/// The paper's selection criterion: literal count of the expression
/// after hypothetically rewriting with the candidate's (linearly
/// minimized) basis, plus a slight penalty for wide bases. Must stay
/// formula-identical to the PR-4 probeScore. `untouchedLits` is the
/// untouched remainder's literal count, which the sweep pre-computed as
/// the candidate's bound (the remainder itself is never materialized
/// during probing). Scoring works on a light copy — firsts and seconds
/// only — because the score never reads the null-space rings and
/// deep-copying them per probe is pure waste.
template <typename Lits>
std::size_t scoreOf(const IPairList& raw, std::size_t untouchedLits,
                    Lits&& literalsOf) {
    IPairList pairs;
    pairs.reserve(raw.size());
    for (const auto& p : raw) {
        auto& b = pairs.emplace_back();
        b.first = p.first;
        b.second = p.second;
    }
    minimizeBasisLinear(pairs);
    std::size_t score = untouchedLits;
    for (const auto& p : pairs) score += 1 + literalsOf(p.second);
    score += 2 * pairs.size();
    return score;
}

}  // namespace

FindBasisOptions probeFindBasisOptions(const GroupOptions& opt) {
    // Probes score under default merge options (whatever the real
    // iteration's ablation flags are) plus the forwarded anytime budget —
    // the PR-4 contract, preserved so probe scores (and thus every
    // decomposition) stay bit-identical.
    FindBasisOptions fb;
    fb.mergeAttemptBudget = opt.probeMergeBudget;
    return fb;
}

/// Per-worker incremental state. The MergeContext's membership indexer —
/// with its solver scratch, memoized monomial products and the
/// content-addressed spanning-set pool — persists across probes, so
/// candidates share interned monomials and span constructions instead of
/// re-deriving them per probe. The ring cache holds this sweep's
/// monomial → seed-ring derivations.
struct ProbeContext::Workspace {
    MergeContext ctx;
    std::unordered_map<anf::Monomial, ring::NullSpaceRing, anf::MonomialHash>
        rings;
    /// Indexer-free spanning-set closures, shared across every probe
    /// this workspace ever runs (content-addressed, so identity-database
    /// turnover cannot stale it). This is what makes the indexer cap
    /// below cheap: a recycled context re-encodes pooled closures
    /// instead of re-running the product breadth-first search.
    ring::NullSpaceRing::SpanPool spans;
    std::uint64_t epoch = 0;

    /// Cap on the shared indexer's id space. Sharing one indexer across
    /// probes is what keeps caches warm, but every candidate splits the
    /// folded terms differently, so the id space grows with each probe —
    /// and IndexedAnf word ops scale with the highest id in play.
    /// Recycling the context once it passes the cap bounds the
    /// bit-vector width while still amortizing interning and span
    /// encoding over the probes in between. Purely a performance knob:
    /// results are id-injective, so any threshold yields bit-identical
    /// outcomes.
    static constexpr std::size_t kIndexerCap = 4096;

    /// Sweep-scoped inputs for ringOf_, rebound by beginSweep (hoisted
    /// out of probe() so the std::function is built once per sweep, not
    /// once per probe).
    const ring::IdentityDb* sweepIds = nullptr;
    bool sweepComplements = false;
    MonomialRingFn ringOf_;

    void beginSweep(const ring::IdentityDb& ids, const FindBasisOptions& fb) {
        sweepIds = &ids;
        sweepComplements = fb.complementNullspace;
        if (!ringOf_) {
            ringOf_ = [this](const anf::Monomial& m)
                -> const ring::NullSpaceRing& {
                auto it = rings.find(m);
                if (it == rings.end())
                    it = rings
                             .emplace(m, sweepIds->nullspaceOfMonomial(
                                             m, sweepComplements))
                             .first;
                return it->second;
            };
        }
    }

    /// Scores candidate `index` on its indexed pairs. The basis is
    /// decoded only when (score, index) beats `best` — the best of the
    /// completed waves and of this lane's earlier probes in this wave —
    /// which `best` then becomes: any other probe cannot win the wave.
    Scored probe(const anf::Anf& folded, const anf::VarSet& group,
                 std::size_t index, const ring::IdentityDb& ids,
                 const FindBasisOptions& fb,
                 const std::vector<std::uint32_t>& touched,
                 std::size_t untouchedLits,
                 std::pair<std::size_t, std::size_t>& best) {
        if (ctx.membership.indexer.size() > kIndexerCap) ctx = MergeContext{};
        ctx.membership.sharedSpans = &spans;
        const anf::MonomialIndexer& ix = ctx.membership.indexer;
        SplitHints hints;
        hints.touchedTerms = &touched;
        hints.skipUntouched = true;  // the sweep knows its literal count
        IndexedBasis basis =
            findBasisIndexed(ctx, folded, group, ids, fb, ringOf_, hints);
        sortPairs(ix, basis.pairs);
        Scored s;
        s.exhausted = basis.budgetExhausted;
        s.score = scoreOf(basis.pairs, untouchedLits,
                          [&](const anf::IndexedAnf& e) {
                              return e.literalCount(ix);
                          });
        if (std::pair{s.score, index} < best) {
            best = {s.score, index};
            s.raw = materialize(ix, std::move(basis));
        }
        return s;
    }
};

ProbeContext::ProbeContext(std::size_t threads,
                           std::shared_ptr<util::ThreadPool> pool)
    : threads_(threads), pool_(std::move(pool)) {}

ProbeContext::~ProbeContext() = default;

util::ThreadPool& ProbeContext::pool() {
    if (!pool_) pool_ = std::make_shared<util::ThreadPool>(threads_);
    return *pool_;
}

ProbeContext::Workspace& ProbeContext::workspace(std::size_t slot) {
    while (workspaces_.size() <= slot)
        workspaces_.push_back(std::make_unique<Workspace>());
    Workspace& ws = *workspaces_[slot];
    if (ws.epoch != epoch_) {
        // The identity database changed since the last sweep: seed-ring
        // derivations are stale. (The workspace span pool is content-
        // addressed and stays valid.)
        ws.rings.clear();
        ws.epoch = epoch_;
    }
    return ws;
}

SweepOutcome ProbeContext::sweep(const anf::Anf& folded,
                                 const std::vector<anf::VarSet>& candidates,
                                 const ring::IdentityDb& ids,
                                 const GroupOptions& opt) {
    ++epoch_;
    ++stats_.sweeps;
    stats_.candidates += candidates.size();
    static auto& cSweeps = obs::counter("probe.sweeps");
    static auto& cCandidates = obs::counter("probe.candidates");
    cSweeps.add();
    cCandidates.add(candidates.size());
    obs::ScopedSpan sweepSpan("probe.sweep", "probe");
    if (sweepSpan.live())
        sweepSpan.setDetail("candidates=" +
                            std::to_string(candidates.size()));

    SweepOutcome out;
    if (candidates.empty()) return out;
    if (captureHook) captureHook(folded, candidates, ids);
    const FindBasisOptions fb = probeFindBasisOptions(opt);

    // ---- Dedup. Exact duplicates are common — the exhaustive phase's
    // combination enumerator and its sliding-window seeder overlap — and
    // each one costs a full findBasis. Exact equality is also the
    // *complete* sound equivalence here: a candidate's probe is
    // determined by its split stream (group-part, rest-part per term),
    // and since rest-parts pin which variables were removed from each
    // term, two distinct candidate sets always produce distinct streams.
    const std::size_t n = candidates.size();
    std::vector<char> keep(n, 1);
    {
        std::unordered_map<anf::Monomial, std::size_t, anf::MonomialHash>
            seen;
        for (std::size_t i = 0; i < n; ++i) {
            if (!seen.emplace(candidates[i], i).second) {
                keep[i] = 0;
                ++stats_.deduped;
                static auto& cDeduped = obs::counter("probe.deduped");
                cDeduped.add();
            }
        }
    }

    // ---- Per-sweep term index: one bitset of term positions per
    // visible variable. A candidate's touched-term set is the OR of its
    // variables' bitsets — O(k · terms/64) words instead of a monomial
    // intersection per term — and feeds both the bound and the probe's
    // split (which then walks only intersecting terms).
    const auto terms = folded.terms();
    const std::size_t maskWords = (terms.size() + 63) / 64;
    std::vector<std::uint32_t> termLits(terms.size());
    std::size_t totalLits = 0;
    std::unordered_map<anf::Var, std::vector<std::uint64_t>> termsOfVar;
    for (std::size_t ti = 0; ti < terms.size(); ++ti) {
        const auto deg = static_cast<std::uint32_t>(terms[ti].degree());
        termLits[ti] = deg;
        totalLits += deg;
        terms[ti].forEachVar([&](anf::Var v) {
            auto& mask = termsOfVar[v];
            if (mask.empty()) mask.resize(maskWords, 0);
            mask[ti >> 6] |= std::uint64_t{1} << (ti & 63);
        });
    }

    // ---- Sound lower bound per candidate. Two unavoidable-mass parts:
    //
    //   * the untouched cofactor's literal count — terms disjoint from
    //     the group survive any rewrite verbatim;
    //   * odd-parity rest literals. Every merge preserves the pair-list
    //     identity Σ firstᵖ·secondᵖ = (touched part of folded), so a
    //     rest-monomial r whose group-part coefficient polynomial is
    //     non-zero must appear in at least one final cofactor,
    //     contributing deg(r) literals. An odd occurrence count across
    //     the touched terms guarantees non-zero (mod-2 cancellation
    //     needs pairs), and with hash-bucketed rests an odd bucket
    //     guarantees some member rest is odd, so adding the bucket's
    //     minimum degree stays sound even under collisions. Any odd
    //     bucket also forces ≥ 1 pair, worth its 1 + 2 score terms.
    //
    // The bound doubles as the ordering heuristic that sends likely
    // winners into the early waves — which is what lets later waves
    // prune and budgeted sweeps spend their attempts well.
    std::vector<std::size_t> bound(n, 0);
    std::vector<std::size_t> untouchedLits(n, 0);
    std::vector<std::vector<std::uint32_t>> touched(n);
    {
        std::vector<std::uint64_t> mask(maskWords);
        struct RestInfo {
            std::uint64_t restHash;
            std::uint64_t partHash;
            std::uint32_t deg;
        };
        std::vector<RestInfo> rests;
        for (std::size_t i = 0; i < n; ++i) {
            if (!keep[i]) continue;
            std::fill(mask.begin(), mask.end(), 0);
            candidates[i].forEachVar([&](anf::Var v) {
                const auto it = termsOfVar.find(v);
                if (it == termsOfVar.end()) return;
                for (std::size_t w = 0; w < maskWords; ++w)
                    mask[w] |= it->second[w];
            });
            std::size_t touchedLits = 0;
            auto& list = touched[i];
            rests.clear();
            for (std::size_t w = 0; w < maskWords; ++w) {
                std::uint64_t m = mask[w];
                while (m) {
                    const auto bit =
                        static_cast<std::uint32_t>(__builtin_ctzll(m));
                    m &= m - 1;
                    const std::uint32_t ti =
                        static_cast<std::uint32_t>(w << 6) + bit;
                    list.push_back(ti);
                    touchedLits += termLits[ti];
                    const anf::Monomial rest =
                        terms[ti].without(candidates[i]);
                    const anf::Monomial part =
                        terms[ti].restrictedTo(candidates[i]);
                    rests.push_back(
                        {static_cast<std::uint64_t>(rest.hash()),
                         static_cast<std::uint64_t>(part.hash()) |
                             1ull,  // never zero: XOR witnesses non-empty
                         static_cast<std::uint32_t>(rest.degree())});
                }
            }
            std::sort(rests.begin(), rests.end(),
                      [](const RestInfo& a, const RestInfo& b) {
                          return a.restHash < b.restHash;
                      });
            std::size_t certainLits = 0;
            bool anyCertain = false;
            for (std::size_t a = 0; a < rests.size();) {
                std::size_t b = a;
                std::uint32_t minDeg = UINT32_MAX;
                std::uint64_t partXor = 0;
                while (b < rests.size() &&
                       rests[b].restHash == rests[a].restHash) {
                    minDeg = std::min(minDeg, rests[b].deg);
                    partXor ^= rests[b].partHash;
                    ++b;
                }
                // Non-zero coefficient polynomial certified by either an
                // odd term count or a non-cancelling part-hash XOR (a
                // multiset that reduces to ∅ mod 2 XORs its hashes to 0).
                if (((b - a) & 1) || partXor != 0) {
                    anyCertain = true;
                    certainLits += minDeg;
                }
                a = b;
            }
            untouchedLits[i] = totalLits - touchedLits;
            bound[i] = untouchedLits[i] + certainLits + (anyCertain ? 3 : 0);
        }
    }

    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        if (keep[i]) order.push_back(i);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (bound[a] != bound[b]) return bound[a] < bound[b];
        return a < b;
    });

    // ---- Wave loop. Early abandon is sound and tie-safe: a pruned
    // candidate has score ≥ bound, so it can only lose to the current
    // best — strictly on score, or on the (score, index) tie-break when
    // its index is higher.
    std::optional<BasisResult> bestRaw;
    const std::size_t lanes = std::max<std::size_t>(1, threads_);
    for (std::size_t waveStart = 0; waveStart < order.size();
         waveStart += kWaveSize) {
        const std::size_t waveEnd =
            std::min(order.size(), waveStart + kWaveSize);
        std::vector<std::size_t> runnable;
        runnable.reserve(waveEnd - waveStart);
        std::size_t wavePruned = 0;
        for (std::size_t w = waveStart; w < waveEnd; ++w) {
            const std::size_t i = order[w];
            const bool prunable =
                bound[i] > out.score ||
                (bound[i] == out.score && i > out.index);
            if (prunable) {
                ++stats_.pruned;
                ++wavePruned;
            } else {
                runnable.push_back(i);
            }
        }
        static auto& cPruned = obs::counter("probe.pruned");
        cPruned.add(wavePruned);
        if (runnable.empty()) continue;
        stats_.probed += runnable.size();
        static auto& cProbed = obs::counter("probe.probed");
        cProbed.add(runnable.size());
        obs::ScopedSpan waveSpan("probe.wave", "probe");
        if (waveSpan.live())
            waveSpan.setDetail(
                "wave=" + std::to_string(waveStart / kWaveSize) +
                " probed=" + std::to_string(runnable.size()) +
                " pruned=" + std::to_string(wavePruned));

        std::vector<Scored> scored(runnable.size());
        const std::size_t t = std::min(lanes, runnable.size());
        if (t <= 1) {
            Workspace& ws = workspace(0);
            ws.beginSweep(ids, fb);
            std::pair best{out.score, out.index};
            for (std::size_t r = 0; r < runnable.size(); ++r) {
                const std::size_t i = runnable[r];
                scored[r] = ws.probe(folded, candidates[i], i, ids, fb,
                                     touched[i], untouchedLits[i], best);
            }
        } else {
            // Pre-create the workspaces on this thread; workers then only
            // touch their own slot (and their own stride of `scored`).
            std::vector<Workspace*> ws(t);
            for (std::size_t slot = 0; slot < t; ++slot) {
                ws[slot] = &workspace(slot);
                ws[slot]->beginSweep(ids, fb);
            }
            std::vector<std::future<void>> futs;
            futs.reserve(t);
            for (std::size_t slot = 0; slot < t; ++slot) {
                futs.push_back(pool().submit([&, slot] {
                    std::pair best{out.score, out.index};
                    for (std::size_t r = slot; r < runnable.size(); r += t) {
                        const std::size_t i = runnable[r];
                        scored[r] = ws[slot]->probe(
                            folded, candidates[i], i, ids, fb, touched[i],
                            untouchedLits[i], best);
                    }
                }));
            }
            for (auto& f : futs) f.get();
        }

        for (std::size_t r = 0; r < runnable.size(); ++r) {
            const std::size_t i = runnable[r];
            if (scoreHook) scoreHook(i, scored[r].score);
            if (scored[r].exhausted) out.budgetExhausted = true;
            if (std::pair{scored[r].score, i} <
                std::pair{out.score, out.index}) {
                // A lane decodes every probe that beats all its earlier
                // ones, and this one beats everything before it.
                PD_ASSERT(scored[r].raw.has_value());
                out.score = scored[r].score;
                out.index = i;
                out.group = candidates[i];
                bestRaw = std::move(scored[r].raw);
            }
        }
    }

    out.winnerBasis = std::move(bestRaw);
    if (out.winnerBasis) {
        // Probes skip materializing the untouched remainder (its literal
        // count is the bound); the winner's basis leaves this sweep as a
        // full findBasis result, so rebuild it once here.
        std::vector<anf::Monomial> untouchedTerms;
        for (const auto& t : terms)
            if (!t.intersects(out.group)) untouchedTerms.push_back(t);
        out.winnerBasis->untouched =
            anf::Anf::fromCanonicalTerms(std::move(untouchedTerms));
    }
    return out;
}

SweepOutcome referenceSweep(const anf::Anf& folded,
                            const std::vector<anf::VarSet>& candidates,
                            const ring::IdentityDb& ids,
                            const GroupOptions& opt) {
    SweepOutcome out;
    const FindBasisOptions fb = probeFindBasisOptions(opt);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        auto res = findBasis(folded, candidates[i], ids, fb);
        if (res.budgetExhausted) out.budgetExhausted = true;
        anf::MonomialIndexer ix;
        const std::size_t score =
            scoreOf(encodePairs(ix, res.pairs), res.untouched.literalCount(),
                    [&](const anf::IndexedAnf& e) {
                        return e.toAnf(ix).literalCount();
                    });
        if (score < out.score) {
            out.score = score;
            out.index = i;
            out.group = candidates[i];
        }
    }
    return out;
}

}  // namespace pd::core::probe
