// Algebraic kernel extraction (Brayton-McMullen [2], the "multi-level
// optimisation" of paper §2).
//
// This is the strongest purely *algebraic* restructuring flow: enumerate
// the kernels (cube-free quotients by co-kernel cubes) of every output
// cover, greedily extract the most valuable kernel as a shared
// intermediate node, resubstitute algebraically, and repeat. The paper's
// central claim is that this family — however well implemented — cannot
// discover the Boolean (ring) structure of XOR-dominated arithmetic;
// having the real algorithm in the harness lets the benches demonstrate
// that with the genuine article rather than a strawman.
#pragma once

#include <vector>

#include "synth/sop.hpp"

namespace pd::synth::PD_WIDTH_NS {

/// One kernel of a cover: the cube-free quotient by its co-kernel cube.
struct KernelResult {
    Cube coKernel;
    std::vector<Cube> kernel;
};

/// Enumerates all kernels of `cover` (including the cover itself if it is
/// cube-free — the level-0 "trivial" kernel). Duplicate kernels reached
/// through different literal orders are pruned.
[[nodiscard]] std::vector<KernelResult> enumerateKernels(
    const std::vector<Cube>& cover);

/// Algebraic division: cover = quotient·divisor ⊕ remainder (OR-disjoint,
/// as in SIS). Returns an empty quotient when the divisor does not divide.
struct DivisionResult {
    std::vector<Cube> quotient;
    std::vector<Cube> remainder;
};
[[nodiscard]] DivisionResult algebraicDivide(const std::vector<Cube>& cover,
                                             const std::vector<Cube>& divisor);

struct KernelSynthOptions {
    /// Stop after this many extractions (safety bound).
    std::size_t maxExtractions = 256;
    /// Minimum literal saving for an extraction to proceed.
    int minValue = 1;
};

/// Multi-level synthesis: greedy kernel extraction to a node network,
/// then quick-factored synthesis of every node.
[[nodiscard]] netlist::Netlist synthSopKernels(
    const SopSpec& spec, const anf::VarTable& vars,
    const KernelSynthOptions& opt = {});

}  // namespace pd::synth::PD_WIDTH_NS
