// One job's compute path at one monomial width.
//
// A pass runs spec expansion, core::decompose, synth::synthDecomposition
// and the algebraic check. compute.cpp is compiled at both widths
// (anf/width.hpp): computeNarrow runs it on 128-bit monomials and
// computeWide on 256-bit ones. Everything declared here is width-free, so
// the engine calls both. A job that fits in 128 variable ids gets the
// same ids, blocks and netlist from either pass. For one that does not,
// computeNarrow throws anf::WidthExceeded before it has a result, and the
// engine re-runs the job with computeWide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "anf/vartable.hpp"
#include "anf/width.hpp"
#include "core/options.hpp"
#include "netlist/netlist.hpp"

namespace pd::engine {

/// Words per term in a PackedSpec: the widest monomial's.
inline constexpr std::size_t kPackedWords = 4;

/// An expanded spec in width-free form. A job keyed by the content of its
/// spec (expressions, a live benchmark) is expanded before the cache
/// lookup, and a miss hands that expansion to the passes in this form.
struct PackedSpec {
    anf::VarTable vars;
    std::vector<std::string> outputNames;
    /// Each output's terms in canonical order, kPackedWords mask words
    /// (lowest variables first) a term.
    std::vector<std::vector<std::uint64_t>> outputs;
};

/// The phases a pass closes, in order.
enum class ComputePhase : std::uint8_t { kResolve, kDecompose, kSynth, kVerify };

struct ComputeRequest {
    /// A registry benchmark, expanded by the pass at its own width...
    std::string benchmark;
    /// ...unless the engine already expanded the spec.
    const PackedSpec* spec = nullptr;
    core::DecomposeOptions options;
    /// Expand the decomposition back to the inputs and compare it with
    /// the spec (kVerify closes it).
    bool algebraicCheck = false;
    /// Called as each phase ends, so the engine books it on its clock.
    std::function<void(ComputePhase)> mark;
};

/// What the rest of the flow (optimize, map, STA, verify) and the report
/// need from a pass.
struct Computed {
    netlist::Netlist raw;
    std::size_t blocks = 0;
    std::size_t iterations = 0;
    std::size_t leaders = 0;  ///< materialized block outputs
    bool converged = false;
    bool budgetExhausted = false;
    double probeSweepMs = 0.0;
    /// The algebraic check passed (true when it was not asked for).
    bool algebraicMatch = true;
};

/// The pass at 128 bits; throws anf::WidthExceeded at any of the three
/// sites where the job reaches the 128-id capacity (anf::reachedCapacity:
/// Monomial::insert and the decomposer's headroom and capacity stops).
[[nodiscard]] Computed computeNarrow(const ComputeRequest& request);

/// The pass at 256 bits.
[[nodiscard]] Computed computeWide(const ComputeRequest& request);

}  // namespace pd::engine
