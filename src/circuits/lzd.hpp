// Leading Zero Detector / Leading One Detector benchmarks (paper §1, §6).
//
// LZD(n): input integer a (bit n-1 = MSB … bit 0); output z = number of
// leading zero bits, clamped to n−1 (an all-zero input aliases with a
// leading one at bit 0 — the same property Oklobdzija's circuit has).
// LOD(n): the paper's variant that scans for the first *zero* from the
// left; output z = number of leading one bits, clamped to n−1. Its
// Reed-Muller form is tiny (each position contributes two monomials),
// which is why the paper can process a 32-bit LOD but not a 32-bit LZD.
#pragma once

#include "circuits/spec.hpp"

namespace pd::circuits::PD_WIDTH_NS {

/// `n` must be a power of two (output width log2(n)).
[[nodiscard]] Benchmark makeLzd(int n);
[[nodiscard]] Benchmark makeLod(int n);

}  // namespace pd::circuits::PD_WIDTH_NS
