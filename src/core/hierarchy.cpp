#include "core/hierarchy.hpp"

#include "anf/ops.hpp"

namespace pd::core::PD_WIDTH_NS {

std::unordered_map<anf::Var, anf::Anf> Decomposition::definitions() const {
    std::unordered_map<anf::Var, anf::Anf> defs;
    for (const auto& b : blocks) {
        for (const auto& o : b.outputs) defs.emplace(o.var, o.expr);
        for (const auto& [v, e] : b.reduced) defs.emplace(v, e);
    }
    return defs;
}

anf::Anf Decomposition::expandToInputs(const anf::Anf& e,
                                       const anf::VarTable& vars) const {
    const auto defs = definitions();
    anf::Anf cur = e;
    // Each substitution replaces variables by expressions over strictly
    // earlier variables, so blocks.size()+1 rounds always suffice.
    for (std::size_t round = 0; round <= blocks.size(); ++round) {
        bool hasDerived = false;
        cur.support().forEachVar([&](anf::Var v) {
            if (vars.info(v).kind == anf::VarKind::kDerived) hasDerived = true;
        });
        if (!hasDerived) break;
        cur = anf::substitute(cur, defs);
    }
    return cur;
}

std::vector<anf::Anf> Decomposition::expandedOutputs(
    const anf::VarTable& vars) const {
    std::vector<anf::Anf> out;
    out.reserve(residualOutputs.size());
    for (const auto& e : residualOutputs)
        out.push_back(expandToInputs(e, vars));
    return out;
}

std::size_t Decomposition::totalBlockOutputs() const {
    std::size_t n = 0;
    for (const auto& b : blocks) n += b.outputs.size();
    return n;
}

}  // namespace pd::core::PD_WIDTH_NS
