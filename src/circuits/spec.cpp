#include "circuits/spec.hpp"

namespace pd::circuits::PD_WIDTH_NS {

std::vector<std::vector<anf::Var>> registerPortVars(
    anf::VarTable& vt, const std::vector<sim::PortLayout>& ports) {
    std::vector<std::vector<anf::Var>> out;
    out.reserve(ports.size());
    for (std::size_t p = 0; p < ports.size(); ++p) {
        std::vector<anf::Var> bits;
        bits.reserve(static_cast<std::size_t>(ports[p].width));
        for (int q = 0; q < ports[p].width; ++q)
            bits.push_back(vt.addInput(
                ports[p].name + std::to_string(q), static_cast<int>(p), q));
        out.push_back(std::move(bits));
    }
    return out;
}

std::vector<std::string> bitNames(const std::string& port, int width) {
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(width));
    for (int q = 0; q < width; ++q) names.push_back(port + std::to_string(q));
    return names;
}

}  // namespace pd::circuits::PD_WIDTH_NS
