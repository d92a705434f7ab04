// Batch-engine job descriptions and results.
//
// A JobSpec names one decomposition flow — a registered benchmark, a
// caller-supplied Benchmark object, or a set of "<name>=<expr>" strings —
// plus the DecomposeOptions and flow flags to run it under. A JobResult
// carries everything the reporting layer needs: the decomposition
// summary, the optimize → map → STA quality of result, verification
// status, wall/CPU timings, and cache provenance. Results never reference
// the spec's VarTable: every job builds (and owns) its own table, so jobs
// are safe to run concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuits/spec.hpp"
#include "core/decomposer.hpp"
#include "netlist/netlist.hpp"
#include "synth/sta.hpp"

namespace pd::engine {

struct JobSpec {
    /// Display name; jobDisplayName() supplies the default when empty.
    std::string name;
    /// A name from circuits::benchmarkRegistry(). Takes precedence over
    /// `expressions` when non-empty.
    std::string benchmark;
    /// A caller-built benchmark (evaluation harness rows with custom
    /// widths). Takes precedence over `benchmark`.
    std::shared_ptr<const circuits::Benchmark> bench;
    /// Parser inputs, each "<output>=<expr>", decomposed as one
    /// multi-output job. Used when no benchmark is given.
    std::vector<std::string> expressions;
    core::DecomposeOptions options;
    /// Check the mapped netlist: simulation against the benchmark's
    /// reference semantics, or algebraic re-expansion for expression jobs.
    bool verify = true;
    /// Retain the mapped netlist in the JobResult (needed for SAT
    /// cross-checks and Verilog/BLIF export; off by default to keep batch
    /// results light).
    bool keepMapped = false;
};

/// The name job `index` of a batch reports under: its own name, else its
/// benchmark's, else "job<index>".
[[nodiscard]] inline std::string jobDisplayName(const JobSpec& spec,
                                                std::size_t index) {
    if (!spec.name.empty()) return spec.name;
    if (spec.bench) return spec.bench->name;
    if (!spec.benchmark.empty()) return spec.benchmark;
    return "job" + std::to_string(index);
}

/// Where a job's numbers came from: freshly computed, an entry computed
/// earlier in this process, or an entry loaded from a persistent store.
/// A warm-started entry stays kDisk for every hit it serves — "disk"
/// answers "did the artifact pay for this job", not "which tier of
/// storage the bytes sat in when the request arrived".
enum class CacheSource : std::uint8_t {
    kComputed,
    kMemory,
    kDisk,
};

enum class VerifyStatus : std::uint8_t {
    kSkipped,    ///< spec.verify was false
    kSimulated,  ///< simulation against reference semantics passed
    kAlgebraic,  ///< expanded outputs matched the input ANF exactly
    kSat,        ///< SAT proof: raw-vs-mapped miter refuted (on top of the
                 ///< simulated/algebraic check, which also passed)
    kFailed,
};

struct JobResult {
    std::string name;
    bool ok = false;
    std::string error;  ///< exception text when !ok

    // Decomposition summary.
    std::size_t blocks = 0;
    std::size_t iterations = 0;
    std::size_t leaders = 0;  ///< materialized block outputs
    bool converged = false;
    /// Anytime mode truncated at least one merge phase: the result is
    /// valid and verified but may use more blocks than an unbudgeted run.
    bool budgetExhausted = false;

    // optimize → map → STA quality of result.
    synth::Qor qor;
    std::size_t levels = 0;        ///< unit-delay logic depth
    std::size_t interconnect = 0;  ///< total gate input pins

    // Verification.
    VerifyStatus verification = VerifyStatus::kSkipped;
    std::uint64_t vectorsTested = 0;
    bool exhaustive = false;

    /// SAT certification of the optimize→map stages (only when the
    /// engine runs with verifyThreads on): the raw synthesized netlist
    /// is mitered against the mapped netlist and the miter refuted by
    /// one CDCL solver, whose statistics are a pure function of the
    /// miter and the budgets. A result-cache hit replays the block of
    /// the solve that filled the entry: no search ran for the hit, and
    /// the verify.sat.* counters count only searches that ran.
    struct SatVerify {
        bool ran = false;
        std::uint64_t conflicts = 0;
        std::uint64_t propagations = 0;
        std::uint64_t restarts = 0;
        std::uint64_t learned = 0;
        /// The search hit its budget: status keeps the simulation /
        /// algebraic answer and is never guessed from a partial search.
        bool budgetExhausted = false;
    };
    SatVerify satVerify;

    // Timings (not part of cache equality — a cache hit reports its own;
    // on a hit only the key-path phases — resolve, digest, cache lookup —
    // can be non-zero, since no flow stage ran).
    double wallMs = 0.0;
    double cpuMs = 0.0;

    /// Per-phase wall-time breakdown of the flow, so perf work can see
    /// where a job's time goes without a profiler.
    struct PhaseTimes {
        /// Spec expansion: building the benchmark and, unless the name
        /// index already knew the key, its Reed-Muller form.
        double resolveMs = 0.0;
        /// Computing (or looking up in the name index) the job digest.
        double digestMs = 0.0;
        /// Result-cache lookup, including any wait on an in-flight
        /// duplicate and the reference guard on a hit.
        double cacheLookupMs = 0.0;
        double decomposeMs = 0.0;
        /// Group-selection probe-sweep share of decomposeMs (findGroup's
        /// candidate scoring — the decomposition's dominant cold cost on
        /// exhaustive-phase-heavy benchmarks).
        double probeSweepMs = 0.0;
        double synthMs = 0.0;
        double optimizeMs = 0.0;
        double mapMs = 0.0;
        double staMs = 0.0;    ///< QoR + netlist statistics
        double verifyMs = 0.0;
    };
    PhaseTimes phases;

    // Cache provenance.
    bool cacheHit = false;
    CacheSource cacheSource = CacheSource::kComputed;
    std::string cacheKey;  ///< 32-hex form of the job's 128-bit digest

    /// Which shard worker process produced this result; -1 for jobs run
    /// in the requesting process (sharding off, or a spec that cannot
    /// cross the shard wire). Provenance only — never part of cache
    /// equality or the semantic payload.
    int shard = -1;

    /// True when this job was destined for the shard fleet but ran
    /// in-process because the worker pool collapsed. Provenance only
    /// (like `shard`): not serialized to the wire or the store.
    bool shardFallback = false;

    /// Mapped netlist (only when spec.keepMapped).
    netlist::Netlist mapped;

    [[nodiscard]] bool verified() const {
        return verification == VerifyStatus::kSimulated ||
               verification == VerifyStatus::kAlgebraic ||
               verification == VerifyStatus::kSat;
    }
};

}  // namespace pd::engine
