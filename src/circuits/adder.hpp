// Adder benchmarks (paper §6: 16-bit adder, 12-bit three-input adder).
//
// The Reed-Muller forms are built by symbolic ripple construction over the
// ANF engine — sizes grow geometrically with width (the 2-operand carry
// has 2^i − 1 terms at position i), which is exactly the representation
// blow-up the paper's §7 discusses; the widths used in Table 1 remain
// tractable.
#pragma once

#include "circuits/spec.hpp"

namespace pd::circuits::PD_WIDTH_NS {

/// A + B, n bits each, n+1 outputs s0..sn.
[[nodiscard]] Benchmark makeAdder(int n);

/// A + B + C, n bits each, n+2 outputs s0..s(n+1).
[[nodiscard]] Benchmark makeAdder3(int n);

/// Symbolic ANF addition of two bit vectors (LSB first, unequal lengths
/// allowed); returns sum bits incl. the final carry. Exposed for tests.
[[nodiscard]] std::vector<anf::Anf> rippleAnf(const std::vector<anf::Anf>& a,
                                              const std::vector<anf::Anf>& b);

}  // namespace pd::circuits::PD_WIDTH_NS
