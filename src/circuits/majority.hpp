// Majority function benchmark (paper §5.5 and §6).
//
// maj(n), n odd: 1 when more than half of the inputs are 1. The paper's
// "straightforward description" is the SOP listing every ⌈n/2⌉-subset as a
// product term; for n ≡ 3 (mod 4) the canonical Reed-Muller form happens
// to be exactly the XOR of the same subsets (the paper's 7- and 15-input
// instances), but we derive the ANF from the truth table so any odd n is
// handled correctly.
#pragma once

#include "circuits/spec.hpp"

namespace pd::circuits::PD_WIDTH_NS {

/// `n` must be odd and ≤ 21 (ANF via Möbius transform of the truth table).
[[nodiscard]] Benchmark makeMajority(int n);

}  // namespace pd::circuits::PD_WIDTH_NS
