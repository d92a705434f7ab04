// Unsigned array/tree multipliers.
//
// The paper's reference [10] (TGA) is about partial-product compressor
// trees for multipliers, and reference [13] is Wallace's original tree —
// this module adds the workload those citations point at. makeMultiplier
// provides the Benchmark (reference semantics + flat Reed-Muller form,
// tractable to ~6 bits; the ANF of the middle product bits grows like the
// 3-operand adder's carries); arrayMultiplier and wallaceMultiplier are
// the two classic manual architectures (serial carry-save rows vs a
// 3:2-counter reduction tree with a fast final adder).
#pragma once

#include "circuits/spec.hpp"
#include "netlist/netlist.hpp"

namespace pd::circuits::PD_WIDTH_NS {

/// n×n → 2n unsigned multiplier benchmark. The ANF spec is provided for
/// n <= maxAnfWidth (default 6; the flat form roughly quadruples per bit).
[[nodiscard]] Benchmark makeMultiplier(int n, int maxAnfWidth = 6);

/// Row-by-row carry-save array multiplier; ports a,b; outputs p0..p(2n-1).
[[nodiscard]] netlist::Netlist arrayMultiplier(int n);

/// Wallace reduction: all partial products generated at once, repeatedly
/// compressed 3:2 per column, final ripple/lookahead stage.
[[nodiscard]] netlist::Netlist wallaceMultiplier(int n, bool fastFinal);

}  // namespace pd::circuits::PD_WIDTH_NS
