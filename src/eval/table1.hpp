// Table-1 evaluation harness.
//
// One function per Table-1 row group. Every variant (the paper's
// "unoptimised" description, the Progressive Decomposition output, and the
// manual expert design) is pushed through the *same* optimize → map → STA
// flow against the same cell library, and is verified against the
// benchmark's reference semantics before its numbers are reported.
// The paper's published µm²/ns accompany each row; eval/report.hpp renders
// the row groups as the committed EXPERIMENTS.md.
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
    /// Name of the benchmark the row implements; a PD row's baseline is
    /// the first row of its report with the same circuit.
    std::string circuit;
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
    /// Caveats printed under the row group (substitutions, dropped rows).
    std::vector<std::string> notes;
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
class Flow {
public:
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
    synth::CellLibrary lib_ = synth::CellLibrary::umc130();
    engine::Engine engine_;
};

// ---- Table-1 row groups (paper numbers embedded). --------------------------
/// Reproduction widths of the two rows run below the paper's width (15 and
/// 12 bits) for time and memory; the rows' notes give the measured cost.
inline constexpr int kComparatorWidth = 12;
inline constexpr int kAdder3Width = 9;

[[nodiscard]] BenchReport rowLzdLod16();
[[nodiscard]] BenchReport rowLod32();
[[nodiscard]] BenchReport rowMajority15();
[[nodiscard]] BenchReport rowCounter16();
[[nodiscard]] BenchReport rowAdder16();
/// `width`: the paper uses 15. Above 13 bits the benchmark carries no
/// Reed-Muller spec, so the PD row is dropped and a note says so.
[[nodiscard]] BenchReport rowComparator(int width = kComparatorWidth);
/// `width`: the paper uses 12. The paper's µm²/ns stay attached for the
/// shape comparison.
[[nodiscard]] BenchReport rowAdder3(int width = kAdder3Width);

}  // namespace pd::eval
