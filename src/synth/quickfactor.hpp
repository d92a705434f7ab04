// Algebraic quick-factor synthesis (the Design-Compiler stand-in).
//
// Classic SIS-style recursive algebraic factoring over a cube list:
//   * a literal common to every cube is factored out (algebraic division
//     by a single-literal divisor);
//   * otherwise the most frequent literal L splits the cover into
//     L·(cubes|L) + (cubes without L) and both halves recurse.
// This is exactly the *algebraic* factorisation family (kernel extraction
// degenerates to it for single-literal divisors) whose weakness on
// XOR-dominated arithmetic the paper sets out to beat — making it the
// right baseline synthesizer: strong on unate control logic, blind to the
// Boolean (ring) structure Progressive Decomposition exploits.
#pragma once

#include "synth/sop.hpp"

namespace pd::synth::PD_WIDTH_NS {

/// Multi-level synthesis of the spec via recursive quick-factoring.
[[nodiscard]] netlist::Netlist synthSopFactored(const SopSpec& spec,
                                                const anf::VarTable& vars);

/// Synthesizes one cover through the same recursive quick-factoring,
/// against an explicit var → net map (shared by the kernel-extraction
/// flow, which introduces intermediate variables beyond the VarTable).
[[nodiscard]] netlist::NetId synthCoverFactored(
    netlist::Builder& b, std::vector<Cube> cubes,
    const std::vector<netlist::NetId>& nets);

}  // namespace pd::synth::PD_WIDTH_NS
