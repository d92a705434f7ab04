// Truth-table based local synthesis of small cones.
//
// Progressive Decomposition hands the synthesizer many *small* leader
// expressions (a handful of group inputs each). The paper's flow relies
// on Design Compiler doing "an excellent job optimising the circuit
// locally" once the architecture is right; synthesizing the canonical
// XOR-of-products literally would throw that away (a nibble's P0 leader
// is 10 ANF terms but two SOP cubes). This module recovers the local
// optimum: enumerate the cone's truth table, minimize a two-level cover
// with Quine-McCluskey prime generation + greedy covering (both ON-set
// and OFF-set), and build whichever of {minimized SOP, complemented
// minimized SOP, direct ANF} is cheapest under a gate-cost estimate.
#pragma once

#include <vector>

#include "anf/anf.hpp"
#include "netlist/builder.hpp"

namespace pd::synth::PD_WIDTH_NS {

/// One product term of a two-level cover over n variables: for bit i,
/// (mask >> i) & 1 says the variable is a care literal and
/// (value >> i) & 1 gives its required polarity.
struct Implicant {
    std::uint32_t mask = 0;
    std::uint32_t value = 0;
    friend bool operator==(const Implicant&, const Implicant&) = default;
};

/// Exact prime-implicant generation (Quine-McCluskey) for a function
/// given as its ON-set minterm list over `numVars` variables
/// (numVars <= 16; intended for <= 8).
[[nodiscard]] std::vector<Implicant> primeImplicants(
    const std::vector<std::uint32_t>& onSet, int numVars);

/// Greedy minimum cover of `onSet` by `primes` (essential primes first,
/// then largest-coverage/fewest-literal primes).
[[nodiscard]] std::vector<Implicant> coverGreedy(
    const std::vector<Implicant>& primes,
    const std::vector<std::uint32_t>& onSet, int numVars);

/// Synthesizes `e` over the nets of its support variables, choosing the
/// cheapest of minimized-SOP / complemented minimized-SOP / direct ANF.
/// Falls back to direct ANF synthesis when the support exceeds
/// `maxTtVars` variables.
netlist::NetId synthSmallAnf(netlist::Builder& b, const anf::Anf& e,
                             const std::vector<netlist::NetId>& nets,
                             int maxTtVars = 8);

}  // namespace pd::synth::PD_WIDTH_NS
