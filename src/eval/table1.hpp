// Table-1 evaluation harness.
//
// One function per Table-1 row group. Every variant (the paper's
// "unoptimised" description, the Progressive Decomposition output, and the
// manual expert design) is pushed through the *same* optimize → map → STA
// flow against the same cell library, and is verified against the
// benchmark's reference semantics before its numbers are reported.
// The paper's published µm²/ns accompany each row so benches can print
// paper-vs-measured tables (EXPERIMENTS.md records the comparison).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "circuits/spec.hpp"
#include "core/decomposer.hpp"
#include "engine/engine.hpp"
#include "synth/sta.hpp"

namespace pd::eval {

struct RowResult {
    std::string variant;
    synth::Qor qor;
    double paperArea = 0.0;   ///< 0 when the paper has no number
    double paperDelay = 0.0;
    bool verified = false;
    bool exhaustive = false;
    std::uint64_t vectorsTested = 0;
    /// SAT miter against the report's first row proved equivalence (set by
    /// satCrossCheck; meaningful for circuits too wide for exhaustion).
    bool satProven = false;
    /// Extra decomposition facts (PD rows only).
    std::size_t pdBlocks = 0;
    std::size_t pdIterations = 0;
    /// The mapped netlist the numbers were measured on (kept for SAT
    /// cross-checks and for exporting to Verilog/BLIF).
    netlist::Netlist mapped;
};

struct BenchReport {
    std::string title;
    std::vector<RowResult> rows;
};

/// Formally proves (CDCL miter) that every row's mapped netlist computes
/// the same function as the first row's, marking satProven on success.
/// Complements simulation: for >22-input benchmarks this turns the
/// randomized check into a proof that all variants implement one function.
/// Throws pd::Error if any pair differs.
void satCrossCheck(BenchReport& report);

/// Shared flow driver. Progressive-Decomposition rows run through the
/// batch engine (one-job batches against a per-Flow result cache), so
/// ablation sweeps that revisit a configuration are served from cache;
/// baseline/manual rows synthesize their netlists directly.
///
/// Persistence: pass a pd-cache-v4 store path (or set PD_CACHE_FILE in
/// the environment — every Flow in the process then shares one store)
/// and the engine warm-starts from it and flushes back on destruction,
/// so repeated Table-1 sweeps skip re-decomposition across processes.
class Flow {
public:
    /// `cacheFile`: persistent store path; empty → $PD_CACHE_FILE; unset
    /// → no persistence.
    explicit Flow(std::string cacheFile = {});

    /// optimize → map → STA → verify an already-built structural netlist.
    [[nodiscard]] RowResult runNetlist(const std::string& variant,
                                       const netlist::Netlist& nl,
                                       const circuits::Benchmark& bench,
                                       double paperArea, double paperDelay);

    /// Baseline from the paper's SOP description through the algebraic
    /// quick-factor synthesizer.
    [[nodiscard]] RowResult runSopFactored(const std::string& variant,
                                           const circuits::Benchmark& bench,
                                           double paperArea,
                                           double paperDelay);

    /// Progressive Decomposition flow from the Reed-Muller spec.
    [[nodiscard]] RowResult runPd(const std::string& variant,
                                  const circuits::Benchmark& bench,
                                  double paperArea, double paperDelay,
                                  const core::DecomposeOptions& opt = {});

    [[nodiscard]] const synth::CellLibrary& library() const { return lib_; }

private:
    synth::CellLibrary lib_;
    engine::Engine engine_;
};

// ---- Table-1 row groups (paper numbers embedded). --------------------------
[[nodiscard]] BenchReport rowLzdLod16();
[[nodiscard]] BenchReport rowLod32();
[[nodiscard]] BenchReport rowMajority15();
[[nodiscard]] BenchReport rowCounter16();
[[nodiscard]] BenchReport rowAdder16();
/// `width`: the paper uses 15; the flat Reed-Muller form is 3^n−1 terms,
/// so the default reproduction width is 12 (see DESIGN.md substitutions).
[[nodiscard]] BenchReport rowComparator(int width = 12);
/// `width`: the paper uses 12; the flat Reed-Muller form of a 3-operand
/// adder grows ~4× per bit (~20M monomials at 12 bits), so the default
/// reproduction width is 9 (see DESIGN.md substitutions). The paper's
/// µm²/ns stay attached for the shape comparison.
[[nodiscard]] BenchReport rowAdder3(int width = 9);

}  // namespace pd::eval
