#include "synth/anf_synth.hpp"

#include "synth/sop.hpp"
#include "util/error.hpp"

namespace pd::synth::PD_WIDTH_NS {

netlist::NetId synthAnf(netlist::Builder& b, const anf::Anf& e,
                        const std::vector<netlist::NetId>& nets) {
    if (e.isZero()) return b.constant(false);
    std::vector<netlist::NetId> terms;
    terms.reserve(e.termCount());
    bool complement = false;
    for (const auto& mono : e.terms()) {
        if (mono.isOne()) {
            // Fold the constant into a final complement (cheaper than
            // XOR-ing a constant-1 leaf).
            complement = !complement;
            continue;
        }
        std::vector<netlist::NetId> lits;
        mono.forEachVar([&](anf::Var v) {
            PD_ASSERT(v < nets.size() && nets[v] != netlist::kNoNet);
            lits.push_back(nets[v]);
        });
        terms.push_back(b.mkAndTree(lits));
    }
    netlist::NetId r = b.mkXorTree(terms);
    if (complement) r = b.mkNot(r);
    return r;
}

netlist::Netlist synthAnfOutputs(const std::vector<anf::Anf>& outputs,
                                 const std::vector<std::string>& names,
                                 const anf::VarTable& vars) {
    PD_ASSERT(outputs.size() == names.size());
    netlist::Netlist nl;
    netlist::Builder b(nl);
    auto nets = registerInputs(b, vars);
    for (std::size_t i = 0; i < outputs.size(); ++i)
        nl.markOutput(names[i], synthAnf(b, outputs[i], nets));
    return nl;
}

}  // namespace pd::synth::PD_WIDTH_NS
