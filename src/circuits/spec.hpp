// Benchmark circuit specifications.
//
// A Benchmark bundles everything the evaluation harness needs:
//   * ports/outputs and executable reference semantics (ground truth for
//     equivalence checking),
//   * the Reed-Muller expressions fed to Progressive Decomposition, and
//   * where the paper's baseline is an SOP description (LZD/LOD/majority),
//     that SOP.
// Input variables are registered port-by-port, LSB first, named
// "<port><bit>" — the convention shared with manual netlist builders and
// the equivalence checker.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "anf/anf.hpp"
#include "sim/equivalence.hpp"
#include "synth/sop.hpp"

namespace pd::circuits::PD_WIDTH_NS {

struct Benchmark {
    std::string name;
    std::vector<sim::PortLayout> ports;
    std::vector<std::string> outputNames;
    sim::Reference reference;
    /// Registers input variables and returns output expressions
    /// (outputNames order). Empty function when the flat Reed-Muller form
    /// is intractable at this width (the paper hits the same wall, §7).
    std::function<std::vector<anf::Anf>(anf::VarTable&)> anf;
    /// The paper's SOP input description, when that is the baseline.
    std::function<synth::SopSpec(anf::VarTable&)> sop;
};

/// Registers the benchmark's input bits in `vt`; returns per-port variable
/// lists (LSB first).
[[nodiscard]] std::vector<std::vector<anf::Var>> registerPortVars(
    anf::VarTable& vt, const std::vector<sim::PortLayout>& ports);

/// Convenience: "<port><bit>" names for a whole port.
[[nodiscard]] std::vector<std::string> bitNames(const std::string& port,
                                                int width);

}  // namespace pd::circuits::PD_WIDTH_NS
