// Standard-cell library model.
//
// The paper synthesizes with Synopsys Design Compiler against a UMC
// 0.13µm library. We model a compatible-magnitude cell set: per-cell area
// in µm² and intrinsic delay in ns, plus a linear fan-out load penalty.
// Absolute numbers are representative of a 0.13µm process, not extracted
// from the (proprietary) UMC kit; the Table-1 reports (eval/table1.hpp)
// compare shapes, not absolutes. The load penalty is what rewards the low-fan-out hierarchical
// structures Progressive Decomposition produces (the Fig. 1/Fig. 2
// interconnect argument made quantitative).
#pragma once

#include <string>

#include "netlist/netlist.hpp"

namespace pd::synth {

struct Cell {
    std::string name;
    double area = 0.0;   ///< µm²
    double delay = 0.0;  ///< ns, intrinsic
};

class CellLibrary {
public:
    /// The default 0.13µm-flavoured library used by all experiments.
    [[nodiscard]] static CellLibrary umc130();

    [[nodiscard]] const Cell& cellFor(netlist::GateType t) const;

    /// Additional delay per extra fan-out connection (ns).
    [[nodiscard]] double loadPenalty() const { return loadPenalty_; }

    void setLoadPenalty(double ns) { loadPenalty_ = ns; }

private:
    Cell cells_[12];
    double loadPenalty_ = 0.0;
};

}  // namespace pd::synth
