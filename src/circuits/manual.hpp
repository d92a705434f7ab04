// Manually designed reference architectures from the paper's Table 1.
//
// These are the circuits Progressive Decomposition is measured against:
// the "unoptimised" structural input descriptions and the expert designs
// ([8] Oklobdzija's LZD, [10] the TGA compressor tree, Wallace/carry-save
// addition, DesignWare-class carry-lookahead). All builders follow the
// repository port convention (inputs "<port><bit>", LSB first, port order
// matching the corresponding Benchmark) so every netlist can be verified
// against the same reference semantics.
#pragma once

#include "netlist/netlist.hpp"

namespace pd::circuits {

/// Ripple-carry adder: ports a,b (n bits); outputs s0..sn.
[[nodiscard]] netlist::Netlist rcaAdder(int n);

/// Sklansky parallel-prefix carry-lookahead adder (DesignWare proxy).
[[nodiscard]] netlist::Netlist claAdder(int n);

/// Paper's "unoptimised" 16-bit counter: a balanced tree of small ripple
/// adders summing the input bits. Port a (n bits); outputs c0..c_{m-1}.
[[nodiscard]] netlist::Netlist adderTreeCounter(int n);

/// Three Greedy Approach [10]: earliest-arrival 3:2 compressor tree with a
/// final carry-propagate stage.
[[nodiscard]] netlist::Netlist tgaCounter(int n);

/// Oklobdzija's hierarchical LZD [8] (n divisible by 4; two-level for 16).
[[nodiscard]] netlist::Netlist oklobdzijaLzd(int n);

/// Fig.-1 style flat LZD/LOD: per-position prefix products plus output
/// OR planes.
[[nodiscard]] netlist::Netlist flatLzd(int n);
[[nodiscard]] netlist::Netlist flatLod(int n);

/// Paper's "progressive comparator" description: MSB-first equality chain.
[[nodiscard]] netlist::Netlist progressiveComparator(int n);

/// "Carry out of Subtracter": gt = carry-out of A + ~B (ripple).
[[nodiscard]] netlist::Netlist subtractComparator(int n);

/// Carry-save adder for A+B+C followed by a final adder (CLA when
/// `fastFinal`, ripple otherwise). Outputs s0..s(n+1).
[[nodiscard]] netlist::Netlist csaAdder3(int n, bool fastFinal);

/// RCA(RCA(A,B),C): two chained ripple adders.
[[nodiscard]] netlist::Netlist rcaRcaAdder3(int n);

/// Fig. 4's online-algorithm construction for addition (Theorem 1 with
/// one bit of state): `groupBits`-bit groups compute their sums under
/// both carry assumptions (the f/g leader expressions), and the carry
/// out of the previous group selects between them. Ports a,b (n bits);
/// outputs s0..sn. The last group is narrower when `groupBits` does not
/// divide n.
[[nodiscard]] netlist::Netlist carrySelectAdder(int n, int groupBits);

}  // namespace pd::circuits
