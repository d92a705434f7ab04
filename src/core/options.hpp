// The options of one decomposition run.
//
// DecomposeOptions does not depend on the monomial width: the engine
// hands it to the compute pass of either width (engine/compute.hpp), the
// shard wire carries it, and every field but probePool is part of the
// job's key (engine::optionsFingerprint). The identity scan's product
// arity (core::kIdentityMaxDegree) and the group sweep's candidate cap
// (GroupOptions::maxCombinations) are constants, not options.
#pragma once

#include <cstddef>
#include <memory>

namespace pd::util {
class ThreadPool;
}

namespace pd::core {

/// Default per-phase merge-attempt budget. Calibrated empirically: the
/// worst findBasis call across the light batch and both multipliers
/// performs ~200 membership solves (probe phases included), so 100k is
/// three orders of magnitude of headroom — results on every registered
/// benchmark are bit-identical to an unbudgeted run — while still
/// bounding a pathological phase (the quadratic merge scan over a
/// runaway pair list) instead of letting it go open-ended.
inline constexpr std::size_t kDefaultMergeAttemptBudget = 100000;

/// The knobs of one decomposition run.
struct DecomposeOptions {
    /// Group size (the paper always uses 4).
    std::size_t k = 4;
    bool useLinearMinimize = true;
    bool useSizeReduction = true;
    bool useIdentities = true;
    bool useNullspaceMerging = true;
    /// Add free complement generators (1⊕v) to monomial null-spaces —
    /// stronger than the paper; off by default, exercised by ablations.
    bool complementNullspace = false;
    /// Iteration cap (pd_cli `--budget` lowers it).
    std::size_t maxIterations = 256;
    /// Anytime mode: cap on null-space membership solves per iteration
    /// (one findBasis merge phase); 0 = unlimited. When an iteration runs
    /// out, its merge loop stops with the best pair list found so far and
    /// the decomposition is flagged budgetExhausted — every light
    /// benchmark finishes far below the default, so results there are
    /// identical to an unbudgeted run, while multiplier-class jobs become
    /// tractable instead of open-ended.
    std::size_t mergeAttemptBudget = kDefaultMergeAttemptBudget;
    /// Pool the group-selection probe sweep fans out on (the engine's job
    /// pool): one lane per pool thread, the calling thread's included
    /// (null = sequential). Purely a scheduling input: the sweep is
    /// deterministic by construction, so results are bit-identical at
    /// every pool size. Never serialized, never part of the engine's
    /// options fingerprint or cache keys; runtime wiring only.
    std::shared_ptr<util::ThreadPool> probePool;
};

}  // namespace pd::core
