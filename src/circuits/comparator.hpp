// Magnitude comparator benchmark (paper §6, 15-bit comparator row).
//
// gt(n): 1 when A > B. The canonical Reed-Muller form of an n-bit
// comparator has 3^n − 1 terms (each position contributes
// gt_i = a_i·b̄_i ⊕ (1⊕a_i⊕b_i)·gt_{i-1}), so the flat-ANF experiment is
// run at the largest tractable width: above it makeComparator returns a
// benchmark with no Reed-Muller spec (a null `anf`, like makeAdder and
// makeLzd), and EXPERIMENTS.md's Reed-Muller wall section records the
// growth law — the same §7 representation-size wall the paper reports for
// the 32-bit LZD.
#pragma once

#include "circuits/spec.hpp"

namespace pd::circuits::PD_WIDTH_NS {

/// `maxAnfWidth`: widths above this get reference/manual flows only.
[[nodiscard]] Benchmark makeComparator(int n, int maxAnfWidth = 13);

}  // namespace pd::circuits::PD_WIDTH_NS
