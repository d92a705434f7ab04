#include "core/probe/probe.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
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

/// splitmix64's output mix: a bijective, non-linear 64-bit scramble.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Zobrist keys: a monomial's key is the XOR of its variables' keys, so
/// a sub-monomial's key comes off the whole's with one XOR.
constexpr auto kVarKeys = [] {
    std::array<std::uint64_t, anf::Monomial::kMaxVars> keys{};
    for (std::size_t v = 0; v < keys.size(); ++v) keys[v] = splitmix64(v);
    return keys;
}();

/// Candidates of up to this many variables get an exact coefficient per
/// rest: a touched term's group part is one of the 2^6 subsets of the
/// candidate, so a rest's coefficient polynomial is a 64-bit mask with
/// one bit per part.
constexpr std::size_t kCoefVars = 6;

/// Per-candidate accumulator of the bound pass: an open-addressed table
/// keyed by rest key that tracks, per distinct rest, its coefficient
/// polynomial (the XOR of its terms' one-hot part bits) and the minimum
/// rest degree. Slots carry the generation that wrote them, so starting
/// the next candidate is an increment instead of a clear.
class RestTable {
public:
    struct Bucket {
        std::uint64_t rest = 0;
        std::uint64_t coef = 0;
        std::uint32_t gen = 0;  ///< the candidate that wrote this slot
        std::uint32_t minDeg = 0;
    };

    /// Starts the next candidate with room for `maxRests` rests at load
    /// ≤ 1/2. The slot array only grows; a candidate uses a prefix sized
    /// to its own touched terms, so small candidates stay cache-resident.
    void clear(std::size_t maxRests) {
        std::size_t n = 16;
        while (n < 2 * maxRests) n *= 2;
        if (n > slots_.size()) slots_.assign(n, Bucket{});
        mask_ = n - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
        ++gen_;
        used_.clear();
    }

    void add(std::uint64_t rest, std::uint64_t partBit, std::uint32_t deg) {
        for (std::size_t s = (rest * 0x9e3779b97f4a7c15ull) >> shift_;;
             s = (s + 1) & mask_) {
            Bucket& b = slots_[s];
            if (b.gen != gen_) {
                b = {rest, partBit, gen_, deg};
                used_.push_back(static_cast<std::uint32_t>(s));
                return;
            }
            if (b.rest == rest) {
                b.coef ^= partBit;
                b.minDeg = std::min(b.minDeg, deg);
                return;
            }
        }
    }

    [[nodiscard]] bool empty() const { return used_.empty(); }

    /// Calls `fn(const Bucket&)` for each rest added since clear().
    template <typename Fn>
    void forEachBucket(Fn&& fn) const {
        for (const auto s : used_) fn(slots_[s]);
    }

private:
    std::vector<Bucket> slots_;
    std::vector<std::uint32_t> used_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::uint32_t gen_ = 0;
};

/// GF(2) rank of 64-bit vectors: an XOR basis with one row per leading
/// bit.
class Rank64 {
public:
    void add(std::uint64_t v) {
        while (v) {
            const int top = 63 - std::countl_zero(v);
            if (!rows_[top]) {
                rows_[top] = v;
                ++rank_;
                return;
            }
            v ^= rows_[top];
        }
    }
    [[nodiscard]] std::size_t rank() const { return rank_; }

private:
    std::array<std::uint64_t, 64> rows_{};
    std::size_t rank_ = 0;
};

/// The bound pass of a sweep that cannot prune: with at most kWaveSize
/// kept candidates every one runs in the first wave, so only the touched
/// lists and untouched literal counts matter. One scan over the terms,
/// no term index and no rest table; bounds stay zero, so the wave probes
/// in input order.
CandidateBounds scanTouched(std::span<const anf::Monomial> terms,
                            const std::vector<anf::VarSet>& candidates,
                            std::span<const char> keep) {
    const std::size_t n = candidates.size();
    CandidateBounds out;
    out.bound.assign(n, 0);
    out.untouchedLits.assign(n, 0);
    out.touched.resize(n);
    std::vector<std::size_t> kept;
    anf::VarSet used;
    for (std::size_t i = 0; i < n; ++i) {
        if (!keep.empty() && !keep[i]) continue;
        kept.push_back(i);
        used = used.unionWith(candidates[i]);
    }
    std::vector<std::size_t> touchedLits(n, 0);
    std::size_t totalLits = 0;
    for (std::size_t ti = 0; ti < terms.size(); ++ti) {
        const std::size_t deg = terms[ti].degree();
        totalLits += deg;
        if (!terms[ti].intersects(used)) continue;
        for (const auto i : kept) {
            if (!terms[ti].intersects(candidates[i])) continue;
            out.touched[i].push_back(static_cast<std::uint32_t>(ti));
            touchedLits[i] += deg;
        }
    }
    for (const auto i : kept) out.untouchedLits[i] = totalLits - touchedLits[i];
    return out;
}

}  // namespace

// Write the touched part of folded as Σ_r C_r·r, where r runs over the
// distinct rest monomials and C_r is the polynomial of group parts that
// share rest r. Touched terms with one rest have distinct parts, so
// every C_r is non-zero. findBasis's algebraic merges and
// minimizeBasisLinear preserve Σ firstᵖ·secondᵖ exactly and keep firsts
// over the group. A null-space merge adds X·n terms, with n built from
// the generators of the seed rings of the candidate's variables; the
// rest part of every such term lies inside those generators' variables
// ("the cover", with the candidate). So a rest r outside the cover
// keeps its C_r·r in Σ firstᵖ·secondᵖ, and some second holds a monomial
// with rest r. The bound sums three kinds of unavoidable mass:
//
//   * the untouched cofactor's literal count — terms disjoint from the
//     group survive any rewrite verbatim;
//   * the degree of each distinct rest outside the cover. Rests share a
//     bucket only under a 64-bit key collision, and a bucket's minimum
//     degree stays sound then;
//   * 3 per pair (1 + 2 score terms). When no candidate variable
//     divides an identity, every seed ring is trivial, so no null-space
//     merge fires, seconds stay over the rest and each C_r is a sum of
//     firsts: there are at least rank{C_r} pairs. The C_r are exact for
//     candidates of at most kCoefVars variables (a collided bucket holds
//     a sum of C_r, which keeps the rank a lower bound). Every other
//     candidate counts one pair when some rest lies outside the cover.
CandidateBounds candidateBounds(std::span<const anf::Monomial> terms,
                                const std::vector<anf::VarSet>& candidates,
                                const ring::IdentityDb& ids,
                                std::span<const char> keep) {
    const std::size_t n = candidates.size();
    CandidateBounds out;
    out.bound.assign(n, 0);
    out.untouchedLits.assign(n, 0);
    out.touched.resize(n);
    anf::VarSet used;
    for (std::size_t i = 0; i < n; ++i)
        if (keep.empty() || keep[i]) used = used.unionWith(candidates[i]);
    // Per variable that divides an identity, the variables its seed
    // ring's generators use: the most a null-space correction can touch.
    const anf::VarSet dividing = ids.dividingVars();
    std::vector<anf::VarSet> ringSupport(anf::Monomial::kMaxVars);
    dividing.forEachVar(
        [&](anf::Var v) { ringSupport[v] = ids.nullspaceOf(v).support(); });

    // Term index: each term's literal count and Zobrist key, and one
    // bitset of term positions per variable some candidate holds.
    const std::size_t maskWords = (terms.size() + 63) / 64;
    std::vector<std::uint32_t> termLits(terms.size());
    std::vector<std::uint64_t> termKey(terms.size());
    std::size_t totalLits = 0;
    std::vector<std::vector<std::uint64_t>> termsOfVar(
        anf::Monomial::kMaxVars);
    for (std::size_t ti = 0; ti < terms.size(); ++ti) {
        std::uint64_t key = 0;
        std::uint32_t deg = 0;
        terms[ti].forEachVar([&](anf::Var v) {
            key ^= kVarKeys[v];
            ++deg;
        });
        termLits[ti] = deg;
        termKey[ti] = key;
        totalLits += deg;
        terms[ti].restrictedTo(used).forEachVar([&](anf::Var v) {
            auto& bits = termsOfVar[v];
            if (bits.empty()) bits.resize(maskWords, 0);
            bits[ti >> 6] |= std::uint64_t{1} << (ti & 63);
        });
    }

    // Per candidate, walking its variables' bitsets yields the touched
    // terms. A candidate of at most kCoefVars variables also marks, per
    // touched term, which of its variables the term holds: that subset
    // index gives the part's one-hot coefficient bit, its degree and its
    // key (from a per-candidate table of subset keys). A wider candidate
    // reads each touched term's part off the term. The rest's key is the
    // term key XOR the part key; rests with equal keys share a bucket.
    std::vector<std::uint64_t> mask(maskWords);
    std::vector<std::uint8_t> partIdx(terms.size(), 0);
    std::array<std::uint64_t, std::size_t{1} << kCoefVars> subsetKey{};
    RestTable rests;
    for (std::size_t i = 0; i < n; ++i) {
        if (!keep.empty() && !keep[i]) continue;
        const anf::VarSet& cand = candidates[i];
        const bool narrow = cand.degree() <= kCoefVars;
        const bool identityFree = !cand.intersects(dividing);
        const bool rankBound = identityFree && narrow;
        anf::VarSet cover = cand;
        cand.restrictedTo(dividing).forEachVar(
            [&](anf::Var v) { cover = cover.unionWith(ringSupport[v]); });
        std::fill(mask.begin(), mask.end(), 0);
        std::size_t slot = 0;
        cand.forEachVar([&](anf::Var v) {
            const auto& bits = termsOfVar[v];
            for (std::size_t w = 0; w < bits.size(); ++w) mask[w] |= bits[w];
            if (!narrow) return;
            const std::size_t bit = std::size_t{1} << slot++;
            for (std::size_t s = 0; s < bit; ++s)
                subsetKey[s | bit] = subsetKey[s] ^ kVarKeys[v];
            for (std::size_t w = 0; w < bits.size(); ++w)
                for (std::uint64_t m = bits[w]; m; m &= m - 1)
                    partIdx[(w << 6) + static_cast<std::size_t>(
                                           __builtin_ctzll(m))] |=
                        static_cast<std::uint8_t>(bit);
        });
        std::size_t count = 0;
        for (const auto w : mask)
            count += static_cast<std::size_t>(std::popcount(w));
        auto& list = out.touched[i];
        list.reserve(count);
        rests.clear(count);
        std::size_t touchedLits = 0;
        for (std::size_t w = 0; w < maskWords; ++w) {
            for (std::uint64_t m = mask[w]; m; m &= m - 1) {
                const auto ti = static_cast<std::uint32_t>(
                    (w << 6) + static_cast<std::size_t>(__builtin_ctzll(m)));
                list.push_back(ti);
                touchedLits += termLits[ti];
                const std::size_t idx = partIdx[ti];
                partIdx[ti] = 0;
                if (!identityFree && terms[ti].subsetOf(cover)) continue;
                std::uint64_t partKey = subsetKey[idx];
                auto partDeg = static_cast<std::uint32_t>(std::popcount(idx));
                if (!narrow) {
                    terms[ti].restrictedTo(cand).forEachVar([&](anf::Var v) {
                        partKey ^= kVarKeys[v];
                        ++partDeg;
                    });
                }
                rests.add(termKey[ti] ^ partKey, std::uint64_t{1} << idx,
                          termLits[ti] - partDeg);
            }
        }
        std::size_t restLits = 0;
        Rank64 rank;
        rests.forEachBucket([&](const RestTable::Bucket& b) {
            restLits += b.minDeg;
            if (rankBound) rank.add(b.coef);
        });
        const std::size_t minPairs =
            rankBound ? rank.rank() : (rests.empty() ? 0 : 1);
        out.untouchedLits[i] = totalLits - touchedLits;
        out.bound[i] = out.untouchedLits[i] + restLits + 3 * minPairs;
    }
    return out;
}

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

    // ---- Sound lower bound per candidate (candidateBounds). It doubles
    // as the ordering heuristic that sends likely winners into the early
    // waves — which is what lets later waves prune and budgeted sweeps
    // spend their attempts well. A sweep that fits in one wave prunes
    // nothing, so it only needs the touched lists.
    const auto terms = folded.terms();
    const auto kept = static_cast<std::size_t>(
        std::count(keep.begin(), keep.end(), 1));
    CandidateBounds cb;
    {
        obs::ScopedSpan boundSpan("probe.bound", "probe");
        const auto boundStart = std::chrono::steady_clock::now();
        cb = kept <= kWaveSize ? scanTouched(terms, candidates, keep)
                               : candidateBounds(terms, candidates, ids, keep);
        stats_.boundMs += std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - boundStart)
                              .count();
    }
    const auto& bound = cb.bound;
    const auto& untouchedLits = cb.untouchedLits;
    const auto& touched = cb.touched;

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
