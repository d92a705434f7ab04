#include "synth/hier_synth.hpp"

#include "netlist/builder.hpp"
#include "synth/anf_synth.hpp"
#include "synth/smallfunc.hpp"
#include "synth/sop.hpp"
#include "util/error.hpp"

namespace pd::synth::PD_WIDTH_NS {

netlist::Netlist synthDecomposition(const core::Decomposition& d,
                                    const anf::VarTable& vars) {
    netlist::Netlist nl;
    netlist::Builder b(nl);
    std::vector<netlist::NetId> nets = registerInputs(b, vars);
    nets.resize(vars.size(), netlist::kNoNet);

    // Each leader is a small cone over its block's group — synthesize it
    // locally optimally (truth-table minimization) rather than as a
    // literal XOR-of-products; this models the paper's reliance on the
    // downstream synthesizer being excellent *locally* once the
    // architecture is fixed.
    for (const auto& block : d.blocks)
        for (const auto& out : block.outputs)
            nets[out.var] = synthSmallAnf(b, out.expr, nets);

    PD_ASSERT(d.residualOutputs.size() == d.outputNames.size());
    for (std::size_t i = 0; i < d.residualOutputs.size(); ++i)
        nl.markOutput(d.outputNames[i],
                      synthSmallAnf(b, d.residualOutputs[i], nets));
    return nl;
}

}  // namespace pd::synth::PD_WIDTH_NS
