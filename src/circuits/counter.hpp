// Parallel counter benchmark (paper §6, 16-bit counter row).
//
// counter(n): outputs the binary population count of n input bits. Bit b
// of the count is the elementary symmetric polynomial e_{2^b} over GF(2)
// (a classical identity via Lucas' theorem), which gives the canonical
// Reed-Muller form directly — e.g. the 4-input counter's bits are the
// s1/s2/s4 the paper's majority example uncovers.
#pragma once

#include "circuits/spec.hpp"

namespace pd::circuits::PD_WIDTH_NS {

[[nodiscard]] Benchmark makeCounter(int n);

}  // namespace pd::circuits::PD_WIDTH_NS
