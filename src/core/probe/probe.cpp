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

/// Per-candidate accumulator of the bound pass: an open-addressed table
/// keyed by rest key that tracks, per distinct rest, the occurrence
/// parity, the XOR of the part hashes and the minimum rest degree. Slots
/// carry the generation that wrote them, so starting the next candidate
/// is an increment instead of a clear.
class RestTable {
public:
    struct Bucket {
        std::uint64_t rest = 0;
        std::uint64_t partXor = 0;
        std::uint32_t gen = 0;  ///< the candidate that wrote this slot
        std::uint16_t minDeg = 0;
        bool odd = false;
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

    void add(std::uint64_t rest, std::uint64_t partHash, std::uint32_t deg) {
        for (std::size_t s = (rest * 0x9e3779b97f4a7c15ull) >> shift_;;
             s = (s + 1) & mask_) {
            Bucket& b = slots_[s];
            const auto d = static_cast<std::uint16_t>(deg);
            if (b.gen != gen_) {
                b = {rest, partHash, gen_, d, true};
                used_.push_back(static_cast<std::uint32_t>(s));
                return;
            }
            if (b.rest == rest) {
                b.partXor ^= partHash;
                b.minDeg = std::min(b.minDeg, d);
                b.odd = !b.odd;
                return;
            }
        }
    }

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

}  // namespace

// The bound sums two kinds of unavoidable mass:
//
//   * the untouched cofactor's literal count — terms disjoint from the
//     group survive any rewrite verbatim;
//   * odd-parity rest literals. Every merge preserves the pair-list
//     identity Σ firstᵖ·secondᵖ = (touched part of folded), so a
//     rest-monomial r whose group-part coefficient polynomial is
//     non-zero must appear in at least one final cofactor, contributing
//     deg(r) literals. An odd occurrence count across the touched terms
//     guarantees non-zero (mod-2 cancellation needs pairs), and with
//     key-bucketed rests an odd bucket guarantees some member rest is
//     odd, so adding the bucket's minimum degree stays sound even under
//     collisions. Any such bucket also forces ≥ 1 pair, worth its 1 + 2
//     score terms.
CandidateBounds candidateBounds(std::span<const anf::Monomial> terms,
                                const std::vector<anf::VarSet>& candidates,
                                std::span<const char> keep) {
    const std::size_t n = candidates.size();
    CandidateBounds out;
    out.bound.assign(n, 0);
    out.untouchedLits.assign(n, 0);
    out.touched.resize(n);
    anf::VarSet used;
    for (std::size_t i = 0; i < n; ++i)
        if (keep.empty() || keep[i]) used = used.unionWith(candidates[i]);

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
    // terms and, per touched term, the key and degree of its group part;
    // the rest's key is the term key XOR the part key. Rests with equal
    // keys share a bucket. The part hash is Monomial::hash of the part:
    // a different hash cancels in different buckets, which moves bounds
    // and with them pruning and the probe counters. A candidate has at
    // most 2^k parts, so part hashes are memoized by part key in a small
    // direct-mapped cache.
    std::vector<std::uint64_t> mask(maskWords);
    std::vector<std::uint64_t> partKey(terms.size(), 0);
    std::vector<std::uint32_t> partDeg(terms.size(), 0);
    RestTable rests;
    struct PartHash {
        std::uint64_t key = 0;
        std::uint64_t hash = 0;  ///< 0 = empty (real hashes have bit 0 set)
    };
    std::array<PartHash, 256> partHashes{};
    for (std::size_t i = 0; i < n; ++i) {
        if (!keep.empty() && !keep[i]) continue;
        const anf::VarSet& cand = candidates[i];
        std::fill(mask.begin(), mask.end(), 0);
        cand.forEachVar([&](anf::Var v) {
            const auto& bits = termsOfVar[v];
            for (std::size_t w = 0; w < bits.size(); ++w) {
                mask[w] |= bits[w];
                for (std::uint64_t m = bits[w]; m; m &= m - 1) {
                    const std::size_t ti =
                        (w << 6) + static_cast<std::size_t>(
                                       __builtin_ctzll(m));
                    partKey[ti] ^= kVarKeys[v];
                    ++partDeg[ti];
                }
            }
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
                const std::uint64_t pk = partKey[ti];
                PartHash& ph =
                    partHashes[(pk * 0x9e3779b97f4a7c15ull) >> 56];
                if (ph.hash == 0 || ph.key != pk)
                    ph = {pk, terms[ti].restrictedTo(cand).hash() |
                                  1};  // never zero: XOR witnesses non-empty
                rests.add(termKey[ti] ^ pk, ph.hash,
                          termLits[ti] - partDeg[ti]);
                partKey[ti] = 0;
                partDeg[ti] = 0;
            }
        }
        // A bucket's coefficient polynomial is certainly non-zero when
        // its term count is odd or its part hashes do not cancel (a
        // multiset that reduces to ∅ mod 2 XORs its hashes to 0).
        std::size_t certainLits = 0;
        bool anyCertain = false;
        rests.forEachBucket([&](const RestTable::Bucket& b) {
            if (b.odd || b.partXor != 0) {
                anyCertain = true;
                certainLits += b.minDeg;
            }
        });
        out.untouchedLits[i] = totalLits - touchedLits;
        out.bound[i] =
            out.untouchedLits[i] + certainLits + (anyCertain ? 3 : 0);
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
    // spend their attempts well.
    const auto terms = folded.terms();
    CandidateBounds cb;
    {
        obs::ScopedSpan boundSpan("probe.bound", "probe");
        const auto boundStart = std::chrono::steady_clock::now();
        cb = candidateBounds(terms, candidates, keep);
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
