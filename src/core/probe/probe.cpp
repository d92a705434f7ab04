#include "core/probe/probe.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <exception>
#include <unordered_map>

#include "core/minimize.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/pool.hpp"

namespace pd::core::PD_WIDTH_NS::probe {
namespace {

/// One position of a sweep's bound order, filled by the lane that
/// claimed it and published to the committer by `ready`.
struct Slot {
    bool probed = false;  ///< false: the lane's snapshot already pruned it
    std::size_t score = SIZE_MAX;
    bool exhausted = false;
    /// The decoded raw basis, when the probe beat its lane's best.
    std::optional<BasisResult> raw;
    ring::MemberTally tally;  ///< booked only if the committer keeps it
    std::exception_ptr error;
    std::atomic<std::uint32_t> ready{0};
};

/// Tags this thread's spans with a job fingerprint for one scope: a helper
/// lane's spans belong to the job whose sweep it serves.
class FingerprintScope {
public:
    explicit FingerprintScope(std::uint64_t fp)
        : saved_(obs::jobFingerprint()) {
        obs::setJobFingerprint(fp);
    }
    ~FingerprintScope() { obs::setJobFingerprint(saved_); }
    FingerprintScope(const FingerprintScope&) = delete;
    FingerprintScope& operator=(const FingerprintScope&) = delete;

private:
    std::uint64_t saved_;
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

/// Terms per claim when a lane walks the folded terms: a multiple of 64,
/// so two lanes never write one word of a per-variable term bitset.
constexpr std::size_t kTermBlock = std::size_t{1} << 14;

/// Candidates per claim in the bound pass.
constexpr std::size_t kBoundChunk = 8;

/// Calls `fn(lane, item)` for every item in [0, n), in chunks of `chunk`
/// claimed from one cursor by up to `lanes` lanes (see util::runLanes).
/// `fn` must be safe to run concurrently for distinct items.
template <typename Fn>
void forEachClaimed(util::ThreadPool* pool, std::size_t lanes, std::size_t n,
                    std::size_t chunk, Fn&& fn) {
    std::atomic<std::size_t> cursor{0};
    util::runLanes(pool, std::min(lanes, (n + chunk - 1) / chunk),
                   [&](std::size_t lane) {
                       for (;;) {
                           const std::size_t at = cursor.fetch_add(
                               chunk, std::memory_order_relaxed);
                           if (at >= n) return;
                           for (std::size_t k = at;
                                k < std::min(n, at + chunk); ++k)
                               fn(lane, k);
                       }
                   });
}

/// Positions of the candidates the pass keeps.
std::vector<std::size_t> keptIndices(std::size_t n,
                                     std::span<const char> keep) {
    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < n; ++i)
        if (keep.empty() || keep[i]) kept.push_back(i);
    return kept;
}

CandidateBounds sizedBounds(std::size_t n) {
    CandidateBounds out;
    out.bound.assign(n, 0);
    out.untouchedLits.assign(n, 0);
    out.touched.resize(n);
    return out;
}

/// The bound pass of a sweep that cannot prune: with at most kWaveSize
/// kept candidates every one runs in the first wave, so only the touched
/// lists and untouched literal counts matter. One scan over the terms,
/// no term index and no rest table; bounds stay zero, so the wave probes
/// in input order. Lanes claim blocks of terms; each block's touched
/// positions are concatenated in block order, so the lists come out
/// ascending at any lane count.
CandidateBounds scanTouched(std::span<const anf::Monomial> terms,
                            const std::vector<anf::VarSet>& candidates,
                            std::span<const char> keep,
                            util::ThreadPool* pool, std::size_t lanes) {
    CandidateBounds out = sizedBounds(candidates.size());
    const auto kept = keptIndices(candidates.size(), keep);
    anf::VarSet used;
    for (const auto i : kept) used = used.unionWith(candidates[i]);
    struct Block {
        std::size_t totalLits = 0;
        std::vector<std::size_t> touchedLits;            // per kept
        std::vector<std::vector<std::uint32_t>> touched;  // per kept
    };
    std::vector<Block> blocks((terms.size() + kTermBlock - 1) / kTermBlock);
    forEachClaimed(pool, lanes, blocks.size(), 1, [&](std::size_t,
                                                      std::size_t b) {
        Block& blk = blocks[b];
        blk.touchedLits.assign(kept.size(), 0);
        blk.touched.resize(kept.size());
        const std::size_t end = std::min(terms.size(), (b + 1) * kTermBlock);
        for (std::size_t ti = b * kTermBlock; ti < end; ++ti) {
            const std::size_t deg = terms[ti].degree();
            blk.totalLits += deg;
            if (!terms[ti].intersects(used)) continue;
            for (std::size_t k = 0; k < kept.size(); ++k) {
                if (!terms[ti].intersects(candidates[kept[k]])) continue;
                blk.touched[k].push_back(static_cast<std::uint32_t>(ti));
                blk.touchedLits[k] += deg;
            }
        }
    });
    std::size_t totalLits = 0;
    for (const auto& blk : blocks) totalLits += blk.totalLits;
    for (std::size_t k = 0; k < kept.size(); ++k) {
        const std::size_t i = kept[k];
        std::size_t touchedLits = 0;
        for (auto& blk : blocks) {
            touchedLits += blk.touchedLits[k];
            out.touched[i].insert(out.touched[i].end(),
                                  blk.touched[k].begin(),
                                  blk.touched[k].end());
        }
        out.untouchedLits[i] = totalLits - touchedLits;
    }
    return out;
}

/// The shared, read-only half of the bound pass: each term's literal
/// count and Zobrist key, one bitset of term positions per variable some
/// kept candidate holds, and per variable that divides an identity the
/// variables its seed ring's generators use — the most a null-space
/// correction can touch. Lanes fill it by blocks of terms.
struct TermIndex {
    anf::VarSet dividing;
    std::vector<anf::VarSet> ringSupport;
    std::size_t maskWords = 0;
    std::vector<std::uint32_t> termLits;
    std::vector<std::uint64_t> termKey;
    std::size_t totalLits = 0;
    std::vector<std::vector<std::uint64_t>> termsOfVar;

    TermIndex(std::span<const anf::Monomial> terms, anf::VarSet used,
              const ring::IdentityDb& ids, util::ThreadPool* pool,
              std::size_t lanes)
        : dividing(ids.dividingVars()),
          ringSupport(anf::Monomial::kMaxVars),
          maskWords((terms.size() + 63) / 64),
          termLits(terms.size()),
          termKey(terms.size()),
          termsOfVar(anf::Monomial::kMaxVars) {
        dividing.forEachVar(
            [&](anf::Var v) { ringSupport[v] = ids.nullspaceOf(v).support(); });
        used.forEachVar([&](anf::Var v) { termsOfVar[v].resize(maskWords); });
        std::vector<std::size_t> blockLits(
            (terms.size() + kTermBlock - 1) / kTermBlock, 0);
        forEachClaimed(pool, lanes, blockLits.size(), 1,
                       [&](std::size_t, std::size_t b) {
            const std::size_t end =
                std::min(terms.size(), (b + 1) * kTermBlock);
            for (std::size_t ti = b * kTermBlock; ti < end; ++ti) {
                std::uint64_t key = 0;
                std::uint32_t deg = 0;
                terms[ti].forEachVar([&](anf::Var v) {
                    key ^= kVarKeys[v];
                    ++deg;
                });
                termLits[ti] = deg;
                termKey[ti] = key;
                blockLits[b] += deg;
                terms[ti].restrictedTo(used).forEachVar([&](anf::Var v) {
                    termsOfVar[v][ti >> 6] |= std::uint64_t{1} << (ti & 63);
                });
            }
        });
        for (const auto lits : blockLits) totalLits += lits;
    }
};

/// One bound-pass lane's scratch: the touched-term mask, each touched
/// term's part subset index, the candidate's subset keys and the rest
/// table.
struct BoundLane {
    std::vector<std::uint64_t> mask;
    std::vector<std::uint8_t> partIdx;
    std::array<std::uint64_t, std::size_t{1} << kCoefVars> subsetKey{};
    RestTable rests;

    BoundLane(std::size_t terms, std::size_t maskWords)
        : mask(maskWords), partIdx(terms, 0) {}
};

/// Bounds candidate `i` into out.bound[i], out.untouchedLits[i] and
/// out.touched[i]. Per candidate, walking its variables' bitsets yields
/// the touched terms. A candidate of at most kCoefVars variables also
/// marks, per touched term, which of its variables the term holds: that
/// subset index gives the part's one-hot coefficient bit, its degree and
/// its key (from a per-candidate table of subset keys). A wider candidate
/// reads each touched term's part off the term. The rest's key is the
/// term key XOR the part key; rests with equal keys share a bucket.
void boundCandidate(std::span<const anf::Monomial> terms,
                    const TermIndex& ix, const anf::VarSet& cand,
                    BoundLane& lane, CandidateBounds& out, std::size_t i) {
    const bool narrow = cand.degree() <= kCoefVars;
    const bool identityFree = !cand.intersects(ix.dividing);
    const bool rankBound = identityFree && narrow;
    anf::VarSet cover = cand;
    cand.restrictedTo(ix.dividing).forEachVar(
        [&](anf::Var v) { cover = cover.unionWith(ix.ringSupport[v]); });
    auto& mask = lane.mask;
    auto& partIdx = lane.partIdx;
    auto& subsetKey = lane.subsetKey;
    std::fill(mask.begin(), mask.end(), 0);
    std::size_t slot = 0;
    cand.forEachVar([&](anf::Var v) {
        const auto& bits = ix.termsOfVar[v];
        for (std::size_t w = 0; w < bits.size(); ++w) mask[w] |= bits[w];
        if (!narrow) return;
        const std::size_t bit = std::size_t{1} << slot++;
        for (std::size_t s = 0; s < bit; ++s)
            subsetKey[s | bit] = subsetKey[s] ^ kVarKeys[v];
        for (std::size_t w = 0; w < bits.size(); ++w)
            for (std::uint64_t m = bits[w]; m; m &= m - 1)
                partIdx[(w << 6) +
                        static_cast<std::size_t>(__builtin_ctzll(m))] |=
                    static_cast<std::uint8_t>(bit);
    });
    std::size_t count = 0;
    for (const auto w : mask)
        count += static_cast<std::size_t>(std::popcount(w));
    auto& list = out.touched[i];
    list.reserve(count);
    lane.rests.clear(count);
    std::size_t touchedLits = 0;
    for (std::size_t w = 0; w < ix.maskWords; ++w) {
        for (std::uint64_t m = mask[w]; m; m &= m - 1) {
            const auto ti = static_cast<std::uint32_t>(
                (w << 6) + static_cast<std::size_t>(__builtin_ctzll(m)));
            list.push_back(ti);
            touchedLits += ix.termLits[ti];
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
            lane.rests.add(ix.termKey[ti] ^ partKey, std::uint64_t{1} << idx,
                           ix.termLits[ti] - partDeg);
        }
    }
    std::size_t restLits = 0;
    Rank64 rank;
    lane.rests.forEachBucket([&](const RestTable::Bucket& b) {
        restLits += b.minDeg;
        if (rankBound) rank.add(b.coef);
    });
    const std::size_t minPairs =
        rankBound ? rank.rank() : (lane.rests.empty() ? 0 : 1);
    out.untouchedLits[i] = ix.totalLits - touchedLits;
    out.bound[i] = out.untouchedLits[i] + restLits + 3 * minPairs;
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
                                std::span<const char> keep,
                                util::ThreadPool* pool, std::size_t lanes) {
    CandidateBounds out = sizedBounds(candidates.size());
    const auto kept = keptIndices(candidates.size(), keep);
    anf::VarSet used;
    for (const auto i : kept) used = used.unionWith(candidates[i]);
    const TermIndex index(terms, used, ids, pool, lanes);
    std::vector<std::unique_ptr<BoundLane>> scratch(
        std::max<std::size_t>(1, lanes));
    forEachClaimed(pool, lanes, kept.size(), kBoundChunk,
                   [&](std::size_t lane, std::size_t k) {
                       if (!scratch[lane])
                           scratch[lane] = std::make_unique<BoundLane>(
                               terms.size(), index.maskWords);
                       boundCandidate(terms, index, candidates[kept[k]],
                                      *scratch[lane], out, kept[k]);
                   });
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

/// Per-lane incremental state. The MergeContext's membership indexer —
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

    /// Scores candidate `index` on its indexed pairs into `slot`, with
    /// the membership counts deferred into slot.tally. The basis is
    /// decoded only when (score, index) beats `best` — the committed best
    /// this lane last saw and its own earlier probes — which `best` then
    /// becomes. The committer keeps a probe as the winner only if it beats
    /// everything committed before it, and that is never more than `best`
    /// (see ProbeContext::sweep), so the winner always has its basis.
    void probe(const anf::Anf& folded, const anf::VarSet& group,
               std::size_t index, const ring::IdentityDb& ids,
               const FindBasisOptions& fb,
               const std::vector<std::uint32_t>& touched,
               std::size_t untouchedLits,
               std::pair<std::size_t, std::size_t>& best, Slot& slot) {
        if (ctx.membership.indexer.size() > kIndexerCap) ctx = MergeContext{};
        ctx.membership.sharedSpans = &spans;
        ctx.membership.deferred = &slot.tally;
        const anf::MonomialIndexer& ix = ctx.membership.indexer;
        SplitHints hints;
        hints.touchedTerms = &touched;
        hints.skipUntouched = true;  // the sweep knows its literal count
        IndexedBasis basis =
            findBasisIndexed(ctx, folded, group, ids, fb, ringOf_, hints);
        ctx.membership.deferred = nullptr;
        sortPairs(ix, basis.pairs);
        slot.exhausted = basis.budgetExhausted;
        slot.score = scoreOf(basis.pairs, untouchedLits,
                             [&](const anf::IndexedAnf& e) {
                                 return e.literalCount(ix);
                             });
        if (std::pair{slot.score, index} < best) {
            best = {slot.score, index};
            slot.raw = materialize(ix, std::move(basis));
        }
    }
};

ProbeContext::ProbeContext(std::shared_ptr<util::ThreadPool> pool)
    : pool_(std::move(pool)) {}

ProbeContext::~ProbeContext() = default;

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
    const auto kept = static_cast<std::size_t>(
        std::count(keep.begin(), keep.end(), 1));
    const std::size_t lanes =
        std::min(pool_ ? pool_->threadCount() : 1, kept);
    util::ThreadPool* helpers = lanes > 1 ? pool_.get() : nullptr;

    // ---- Sound lower bound per candidate (candidateBounds). It doubles
    // as the ordering heuristic that sends likely winners into the early
    // waves — which is what lets later waves prune and budgeted sweeps
    // spend their attempts well. A sweep that fits in one wave prunes
    // nothing, so it only needs the touched lists.
    const auto terms = folded.terms();
    CandidateBounds cb;
    {
        obs::ScopedSpan boundSpan("probe.bound", "probe");
        const auto boundStart = std::chrono::steady_clock::now();
        cb = kept <= kWaveSize
                 ? scanTouched(terms, candidates, keep, helpers, lanes)
                 : candidateBounds(terms, candidates, ids, keep, helpers,
                                   lanes);
        stats_.boundMs += std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - boundStart)
                              .count();
    }
    const auto& bound = cb.bound;
    const auto& untouchedLits = cb.untouchedLits;
    const auto& touched = cb.touched;

    std::vector<std::size_t> order;
    order.reserve(kept);
    for (std::size_t i = 0; i < n; ++i)
        if (keep[i]) order.push_back(i);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (bound[a] != bound[b]) return bound[a] < bound[b];
        return a < b;
    });

    // ---- Speculative probing with an in-order committer. The serial rule
    // is the wave rule: order is cut into waves of kWaveSize, and a
    // candidate is pruned when its bound loses to the best of the waves
    // before its own — strictly on score, or on the (score, index)
    // tie-break when its index is higher. A pruned candidate has
    // score ≥ bound, so it could only lose.
    //
    // Lanes claim positions in bound order from one cursor and prune
    // against a snapshot of the committed best, waveBest[c] for the c
    // waves committed so far. Bests only fall as waves commit, so the
    // snapshot is never better than the best the serial rule sees: a lane
    // never prunes a candidate the serial rule would probe. The sweeping
    // thread commits positions in order, applying the serial rule to each
    // with the best before its wave; a probe the rule prunes is discarded
    // (booked as pruned and as a speculative discard). Committed probes
    // alone update the winner, the budget flag, scoreHook and the
    // probe.* and ring.member.* counters, so all of them equal the 1-lane
    // sweep's. A committed winner beats every committed probe before it.
    // Its lane's best held only its snapshot (committed probes before it)
    // and its own earlier probes: committed ones come before it, and a
    // discarded one scores ≥ its bound, which loses to the best before
    // its wave and so to the winner. So the winner's lane decoded it.
    std::vector<Workspace*> ws(lanes);
    for (std::size_t slot = 0; slot < lanes; ++slot) {
        ws[slot] = &workspace(slot);
        ws[slot]->beginSweep(ids, fb);
    }
    using Best = std::pair<std::size_t, std::size_t>;  // (score, index)
    std::vector<Slot> slots(kept);
    std::vector<Best> waveBest((kept + kWaveSize - 1) / kWaveSize + 1,
                               Best{SIZE_MAX, SIZE_MAX});
    std::atomic<std::size_t> committedWaves{0};
    std::atomic<std::size_t> cursor{0};
    std::vector<std::size_t> laneProbes(lanes, 0);

    // Claims the next position; probes it unless the snapshot prunes it.
    const auto claim = [&](std::size_t lane, Best& laneBest) {
        const std::size_t pos =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (pos >= kept) return false;
        const std::size_t i = order[pos];
        Slot& slot = slots[pos];
        const Best snapshot =
            waveBest[committedWaves.load(std::memory_order_acquire)];
        if (!(snapshot < Best{bound[i], i})) {
            laneBest = std::min(laneBest, snapshot);
            slot.probed = true;
            ++laneProbes[lane];
            try {
                ws[lane]->probe(folded, candidates[i], i, ids, fb, touched[i],
                                untouchedLits[i], laneBest, slot);
            } catch (...) {
                slot.error = std::current_exception();
            }
        }
        slot.ready.store(1, std::memory_order_release);
        slot.ready.notify_one();
        return true;
    };

    std::optional<BasisResult> bestRaw;
    std::size_t next = 0;  // first uncommitted position
    std::size_t probed = 0;
    std::size_t pruned = 0;
    std::size_t discards = 0;
    const auto commitReady = [&] {
        for (; next < kept && slots[next].ready.load(std::memory_order_acquire);
             ++next) {
            const std::size_t wave = next / kWaveSize;
            const std::size_t i = order[next];
            Slot& slot = slots[next];
            if (waveBest[wave] < Best{bound[i], i}) {
                ++pruned;
                if (slot.probed) ++discards;
            } else {
                PD_ASSERT(slot.probed);
                if (slot.error) {
                    cursor.store(kept);  // stop the lanes
                    std::rethrow_exception(slot.error);
                }
                ++probed;
                slot.tally.book();
                if (scoreHook) scoreHook(i, slot.score);
                if (slot.exhausted) out.budgetExhausted = true;
                if (Best{slot.score, i} < Best{out.score, out.index}) {
                    PD_ASSERT(slot.raw.has_value());
                    out.score = slot.score;
                    out.index = i;
                    out.group = candidates[i];
                    bestRaw = std::move(slot.raw);
                }
            }
            slot.raw.reset();
            if ((next + 1) % kWaveSize == 0 || next + 1 == kept) {
                waveBest[wave + 1] = {out.score, out.index};
                committedWaves.store(wave + 1, std::memory_order_release);
            }
        }
    };

    const std::uint64_t fp = obs::jobFingerprint();
    const auto lane = [&](std::size_t k) {
        Best laneBest{SIZE_MAX, SIZE_MAX};
        if (k != 0) {
            const FingerprintScope tag(fp);
            obs::ScopedSpan laneSpan("probe.lane", "probe");
            while (claim(k, laneBest)) {
            }
            if (laneSpan.live())
                laneSpan.setDetail("lane=" + std::to_string(k) + " probes=" +
                                   std::to_string(laneProbes[k]));
            return;
        }
        do commitReady();
        while (claim(0, laneBest));
        while (next < kept) {
            slots[next].ready.wait(0, std::memory_order_acquire);
            commitReady();
        }
    };
    const std::size_t ran = util::runLanes(helpers, lanes, lane);

    std::size_t helperProbes = 0;
    for (std::size_t lane = 1; lane < lanes; ++lane)
        helperProbes += laneProbes[lane];
    stats_.probed += probed;
    stats_.pruned += pruned;
    stats_.speculativeDiscards += discards;
    stats_.helperProbes += helperProbes;
    static auto& cProbed = obs::counter("probe.probed");
    static auto& cPruned = obs::counter("probe.pruned");
    static auto& cDiscards = obs::counter("probe.speculative_discards");
    cProbed.add(probed);
    cPruned.add(pruned);
    cDiscards.add(discards);
    if (sweepSpan.live())
        sweepSpan.setDetail(
            "candidates=" + std::to_string(n) + " lanes=" +
            std::to_string(ran) + " helper_probes=" +
            std::to_string(helperProbes) + " discards=" +
            std::to_string(discards));

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

}  // namespace pd::core::PD_WIDTH_NS::probe
