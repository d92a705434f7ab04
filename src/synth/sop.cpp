#include "synth/sop.hpp"

namespace pd::synth::PD_WIDTH_NS {

std::vector<netlist::NetId> registerInputs(netlist::Builder& b,
                                           const anf::VarTable& vars) {
    std::vector<netlist::NetId> nets(vars.size(), netlist::kNoNet);
    for (anf::Var v = 0; v < vars.size(); ++v)
        if (vars.info(v).kind == anf::VarKind::kInput)
            nets[v] = b.input(vars.name(v));
    return nets;
}

netlist::Netlist synthSopFlat(const SopSpec& spec, const anf::VarTable& vars) {
    netlist::Netlist nl;
    netlist::Builder b(nl);
    const auto nets = registerInputs(b, vars);

    for (const auto& out : spec.outputs) {
        std::vector<netlist::NetId> terms;
        terms.reserve(out.cubes.size());
        for (const auto& cube : out.cubes) {
            std::vector<netlist::NetId> lits;
            cube.pos.forEachVar(
                [&](anf::Var v) { lits.push_back(nets[v]); });
            cube.neg.forEachVar(
                [&](anf::Var v) { lits.push_back(b.mkNot(nets[v])); });
            terms.push_back(b.mkAndTree(lits));
        }
        nl.markOutput(out.name, b.mkOrTree(terms));
    }
    return nl;
}

}  // namespace pd::synth::PD_WIDTH_NS
