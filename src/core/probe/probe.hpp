// Incremental, work-shared, speculative group-selection probe sweep.
//
// findGroup scores each candidate group by running a full findBasis
// probe and measuring the rewritten size (paper §5.1's selection
// criterion). PR 3's indexed kernel made the merge phase cheap enough
// that this sweep became the dominant cold cost: an exhaustive phase
// probes thousands of candidate subsets, each probe re-deriving the
// monomial id space, the identity rings and their spanning sets from
// scratch. This subsystem replaces the naive loop with:
//
//   * incremental scoring — candidates share persistent per-worker
//     state (a MergeContext whose MonomialIndexer, solver scratch and
//     memoized monomial products survive across probes, recycled at a
//     size cap to keep bit-vectors dense; a per-sweep monomial →
//     seed-ring cache; and a content-addressed spanning-set pool so each
//     distinct ring closure is built once, not once per probe), and the
//     winner's findBasis result is handed to the caller for reuse. A
//     probe sorts, minimizes and scores its pairs in the indexed form
//     and decodes them to Anf only when it beats its lane's best;
//   * candidate pruning — duplicate candidates are dropped (exact
//     equality is the complete sound equivalence: rest-parts pin which
//     variables a split removed, so distinct candidate sets always
//     produce distinct split streams), and every survivor gets a sound
//     lower bound on its score — the untouched-cofactor literal count,
//     the degree of every distinct rest-monomial no null-space merge can
//     cancel, and 3 per pair it must keep: the GF(2) rank of the rests'
//     coefficient polynomials when no candidate variable divides an
//     identity, else 1 — which orders the sweep so likely winners go
//     first and budgeted sweeps spend well. The bound pass
//     (candidateBounds) is sort-free: rests are keyed by Zobrist XOR and
//     accumulate one-hot part bits in a flat generation-stamped table. A
//     sweep of at most kWaveSize kept candidates cannot prune and skips
//     it, scanning the terms once for the touched lists;
//   * early abandon — a candidate whose lower bound already loses
//     against the best committed candidate is never probed;
//   * work-conserving lanes — the sweeping thread probes as lane 0 and
//     offers helper tickets to a util::ThreadPool (util::runLanes). In
//     the engine that is the job pool, so a worker with no job left
//     becomes a probe lane of a job still running. Lanes claim work from
//     atomic cursors: blocks of terms and chunks of candidates in the
//     bound pass, then positions in bound order in the probe phase. The
//     sweep waits only for tickets a worker has started, so a busy pool
//     just leaves the whole sweep to lane 0.
//
// Determinism contract: the sweep returns bit-identical outcomes (group,
// score, winner index, budget-exhausted flag, winner basis) at every
// lane count and under any schedule, including under probeMergeBudget
// truncation, and so do scoreHook's sequence and the probe.* and
// ring.member.* counters, except probe.speculative_discards. Probe lanes
// prune against a snapshot of the best of fully committed waves of
// kWaveSize positions, which is never better than the best the serial
// wave rule uses, so they probe a superset of what it probes. The
// sweeping thread commits positions in bound order under the serial
// rule and discards the extra probes. Each probe is independent of which
// lane ran it (IndexedAnf semantics are id-injective), and the winner is
// the (score, candidate index) lexicographic minimum — exactly the
// first-strict-minimum the sequential reference keeps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "anf/anf.hpp"
#include "core/basis.hpp"
#include "core/group.hpp"
#include "ring/identity_db.hpp"

namespace pd::util {
class ThreadPool;
}

namespace pd::core::PD_WIDTH_NS::probe {

/// Wave width of the serial pruning rule the sweep commits by. A fixed
/// constant (never derived from the lane count) so that every pruning
/// decision — and therefore the probe set and the budget-exhausted flag —
/// is identical at any lane count. 16 gives pruning a fine enough grain
/// while leaving lanes room to run ahead of the committer. The first
/// wave of a sweep is never pruned, so a sweep of at most kWaveSize
/// candidates scores every one of them.
inline constexpr std::size_t kWaveSize = 16;

/// Cumulative accounting across every sweep run through one context.
struct ProbeStats {
    std::uint64_t sweeps = 0;       ///< multi-candidate sweeps executed
    std::uint64_t candidates = 0;   ///< candidates received (pre-dedup)
    std::uint64_t deduped = 0;      ///< dropped as duplicate/equivalent
    std::uint64_t probed = 0;       ///< full findBasis probes scored
    std::uint64_t pruned = 0;       ///< skipped by the lower-bound test
    /// Lane probes the serial rule prunes, so the committer dropped them
    /// (already counted in `pruned`). Depends on the schedule.
    std::uint64_t speculativeDiscards = 0;
    std::uint64_t helperProbes = 0;  ///< probes run by lanes other than 0
    double boundMs = 0.0;           ///< wall time in the bound pass
};

/// Result of one sweep. `winnerBasis` is the winner's raw findBasis
/// output under probeFindBasisOptions (pre-minimize), so the decomposer
/// can skip re-running findBasis when its own options coincide.
struct SweepOutcome {
    anf::VarSet group;              ///< empty when there were no candidates
    std::size_t score = SIZE_MAX;
    std::size_t index = SIZE_MAX;   ///< winner's index in the input order
    bool budgetExhausted = false;   ///< any scored probe was truncated
    std::optional<BasisResult> winnerBasis;
};

/// The FindBasisOptions probes score under: defaults plus the forwarded
/// merge budget. Public so the decomposer can check reuse eligibility.
[[nodiscard]] FindBasisOptions probeFindBasisOptions(const GroupOptions& opt);

/// The sweep's bound pass, indexed like the candidates.
struct CandidateBounds {
    /// Sound lower bound on each candidate's probe score.
    std::vector<std::size_t> bound;
    /// Literal count of the terms disjoint from the candidate.
    std::vector<std::size_t> untouchedLits;
    /// Ascending positions of the terms the candidate intersects.
    std::vector<std::vector<std::uint32_t>> touched;
};

/// Bounds every candidate against the folded `terms` under the identity
/// database `ids`. When `keep` is non-empty, candidates with keep[i] == 0
/// are skipped and get a zero bound and an empty touched list. One pass
/// builds a per-variable term bitset and a Zobrist key per term; per
/// candidate, the part key of a touched term is the XOR of the keys of
/// the candidate variables in it, its rest key is term key XOR part key,
/// and rests accumulate by key in a generation-stamped open-addressed
/// table — no sort. A candidate of at most 6 variables gives each
/// touched term a one-hot bit for its part (a subset of the candidate),
/// so a rest's bucket holds its coefficient polynomial exactly. The
/// bound is untouchedLits + Σ_rest minimum degree + 3·p, where p is the
/// GF(2) rank of the coefficients when no candidate variable divides an
/// identity (ids.dividingVars()) and the candidate has at most 6
/// variables, and 1 otherwise. When a candidate variable divides an
/// identity, rests inside the variables of those variables' seed-ring
/// generators are left out: a null-space merge can cancel them. Equals
/// the explicit-map reference in tests/probe_test.cpp barring 64-bit key
/// collisions, and stays sound under any collision. With a `pool` and
/// `lanes` > 1, the term index is built by blocks of terms and the
/// candidates are bounded in chunks over up to `lanes` lanes (see
/// util::runLanes); each lane has its own rest table and scratch, and the
/// result is identical at every lane count.
[[nodiscard]] CandidateBounds candidateBounds(
    std::span<const anf::Monomial> terms,
    const std::vector<anf::VarSet>& candidates, const ring::IdentityDb& ids,
    std::span<const char> keep = {}, util::ThreadPool* pool = nullptr,
    std::size_t lanes = 1);

/// Sweep engine. One context serves a whole decompose run: per-lane
/// workspaces persist across sweeps (the indexer only grows), while the
/// ring caches reset each sweep (the identity database mutates between
/// iterations). Not thread-safe itself — one context per decompose run.
class ProbeContext {
public:
    /// Without a pool every sweep probes on the calling thread alone.
    /// With one, each sweep runs one lane per pool thread: the calling
    /// thread is lane 0 and the rest are helper tickets offered to `pool`
    /// (the engine's job pool).
    explicit ProbeContext(std::shared_ptr<util::ThreadPool> pool = nullptr);
    ~ProbeContext();

    ProbeContext(const ProbeContext&) = delete;
    ProbeContext& operator=(const ProbeContext&) = delete;

    /// Scores `candidates` against `folded` and returns the winner.
    /// Candidate order is the tie-break order (earlier wins ties).
    [[nodiscard]] SweepOutcome sweep(const anf::Anf& folded,
                                     const std::vector<anf::VarSet>& candidates,
                                     const ring::IdentityDb& ids,
                                     const GroupOptions& opt);

    [[nodiscard]] const ProbeStats& stats() const { return stats_; }

    /// Bench/test hook: when set, every sweep reports its inputs before
    /// probing (the folded expression, the candidate list, the identity
    /// database as of this sweep). bench_hotpath uses it to replay the
    /// exact workload of a real decompose run through both this sweep
    /// and referenceSweep — the honest legacy-vs-incremental probe-phase
    /// comparison. Never affects results.
    std::function<void(const anf::Anf&, const std::vector<anf::VarSet>&,
                       const ring::IdentityDb&)>
        captureHook;

    /// Test hook: called on the sweeping thread with the input index and
    /// score of every committed probe, in bound order at every lane
    /// count. Never affects results.
    std::function<void(std::size_t index, std::size_t score)> scoreHook;

private:
    struct Workspace;

    Workspace& workspace(std::size_t slot);

    std::shared_ptr<util::ThreadPool> pool_;
    std::vector<std::unique_ptr<Workspace>> workspaces_;
    std::uint64_t epoch_ = 0;   ///< bumped per sweep; ring caches key on it
    ProbeStats stats_;
};

/// The PR-4 sequential sweep: every candidate probed with a fresh
/// context, first strict minimum kept. Differential-testing oracle and
/// the bench's legacy reference — not used by the decomposer.
[[nodiscard]] SweepOutcome referenceSweep(
    const anf::Anf& folded, const std::vector<anf::VarSet>& candidates,
    const ring::IdentityDb& ids, const GroupOptions& opt);

}  // namespace pd::core::PD_WIDTH_NS::probe
