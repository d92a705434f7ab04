// Reed-Muller (ANF) netlist synthesis.
//
// An ANF maps directly to an XOR tree over AND trees. Builder-level
// structural hashing shares product subterms across monomials and across
// outputs. This frontend synthesizes the small per-block expressions of a
// decomposition, and also serves as the flat XOR-of-products baseline in
// ablations.
#pragma once

#include <unordered_map>

#include "anf/anf.hpp"
#include "netlist/builder.hpp"

namespace pd::synth::PD_WIDTH_NS {

/// Emits gates computing `e`; `nets` maps each support variable to a net.
[[nodiscard]] netlist::NetId synthAnf(
    netlist::Builder& b, const anf::Anf& e,
    const std::vector<netlist::NetId>& nets);

/// Synthesizes a list of expressions over primary inputs as one netlist.
[[nodiscard]] netlist::Netlist synthAnfOutputs(
    const std::vector<anf::Anf>& outputs,
    const std::vector<std::string>& names, const anf::VarTable& vars);

}  // namespace pd::synth::PD_WIDTH_NS
