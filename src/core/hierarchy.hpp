// Decomposition result: the hierarchy of building blocks (paper §3).
//
// Each iteration of the algorithm contributes one Block: the consumed
// group of variables and the basis elements materialized as fresh
// variables (reduced elements — those expressible over the other new
// variables — carry no hardware and are recorded separately). The final
// residual expressions per circuit output are small by construction
// ("all elements in L are literals" on convergence).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "anf/anf.hpp"

namespace pd::core::PD_WIDTH_NS {

struct BlockOutput {
    anf::Var var;   ///< the fresh variable standing for the basis element
    anf::Anf expr;  ///< basis element over the block's group variables
};

struct Block {
    int level = 0;          ///< iteration that created the block
    anf::VarSet group;      ///< variables consumed by the block
    std::vector<BlockOutput> outputs;
    /// Basis elements removed by identity reductions: var → expression
    /// over other fresh variables (no hardware; kept for traceability).
    std::vector<std::pair<anf::Var, anf::Anf>> reduced;
};

/// Per-iteration record used to reproduce the paper's Fig. 6 trace.
struct IterationTrace {
    int level = 0;
    std::string group;
    std::size_t rawPairCount = 0;
    std::size_t mergedPairCount = 0;
    std::size_t linearRemoved = 0;
    std::size_t sizeReductions = 0;
    std::size_t mergeAttempts = 0;   ///< membership solves this iteration
    bool budgetExhausted = false;    ///< null-space merging was truncated
    std::vector<std::string> basis;
    std::vector<std::string> identities;
    std::vector<std::string> reductions;
    std::size_t foldedTermsBefore = 0;
    std::size_t foldedTermsAfter = 0;
};

/// The full output of a Progressive Decomposition run.
struct Decomposition {
    std::vector<Block> blocks;
    /// Final expression of each circuit output over derived variables and
    /// any remaining inputs (a literal or constant when `converged`).
    std::vector<anf::Anf> residualOutputs;
    std::vector<std::string> outputNames;
    std::vector<IterationTrace> trace;
    bool converged = false;
    /// True when any iteration's null-space merge phase hit its
    /// merge-attempt budget: the result is valid but may use more blocks
    /// than an unbudgeted run would have found (anytime semantics).
    bool budgetExhausted = false;
    std::size_t iterations = 0;

    /// Group-selection probe-sweep accounting across the whole run, so
    /// perf work can see the phase without a profiler. `sweepMs` is the
    /// wall time spent selecting groups (candidate generation included),
    /// `boundMs` the part of it in the candidate-bound pass;
    /// `basisReuses` counts iterations whose findBasis was served from
    /// the winning probe instead of being recomputed. `helperProbes` and
    /// `speculativeDiscards` (probes by lanes other than the sweeping
    /// thread, and lane probes the committer dropped) depend on the
    /// schedule; every other count is the same at any lane count.
    struct ProbeSummary {
        double sweepMs = 0.0;
        double boundMs = 0.0;
        std::uint64_t sweeps = 0;
        std::uint64_t candidates = 0;
        std::uint64_t probed = 0;
        std::uint64_t pruned = 0;
        std::uint64_t deduped = 0;
        std::uint64_t basisReuses = 0;
        std::uint64_t helperProbes = 0;
        std::uint64_t speculativeDiscards = 0;
    };
    ProbeSummary probe;

    /// var → defining expression for every derived variable (block outputs
    /// and reduced elements alike).
    [[nodiscard]] std::unordered_map<anf::Var, anf::Anf> definitions() const;

    /// Expands `e` back to primary inputs by repeated substitution.
    [[nodiscard]] anf::Anf expandToInputs(
        const anf::Anf& e, const anf::VarTable& vars) const;

    /// Expanded residual outputs — must equal the original specification
    /// (the core correctness property; exercised heavily in tests).
    [[nodiscard]] std::vector<anf::Anf> expandedOutputs(
        const anf::VarTable& vars) const;

    /// Total number of leader expressions materialized.
    [[nodiscard]] std::size_t totalBlockOutputs() const;
};

}  // namespace pd::core::PD_WIDTH_NS
