// Hierarchy synthesis: Decomposition → netlist.
//
// Blocks are instantiated in creation order; each materialized leader
// expression becomes a small ANF-synthesized cone over the block's group
// nets, and the residual output expressions close the netlist. Reduced
// basis elements contribute no gates — their occurrences were rewritten
// into products of live leaders during decomposition.
#pragma once

#include "core/hierarchy.hpp"
#include "netlist/netlist.hpp"

namespace pd::synth::PD_WIDTH_NS {

/// Builds the gate-level implementation of a decomposition.
[[nodiscard]] netlist::Netlist synthDecomposition(
    const core::Decomposition& d, const anf::VarTable& vars);

}  // namespace pd::synth::PD_WIDTH_NS
