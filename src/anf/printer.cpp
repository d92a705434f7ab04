#include "anf/printer.hpp"

#include <sstream>

namespace pd::anf::PD_WIDTH_NS {

std::string toString(const Monomial& m, const VarTable& vars) {
    if (m.isOne()) return "1";
    std::ostringstream os;
    bool first = true;
    m.forEachVar([&](Var v) {
        if (!first) os << '*';
        os << vars.name(v);
        first = false;
    });
    return os.str();
}

std::string toString(const Anf& e, const VarTable& vars) {
    if (e.isZero()) return "0";
    std::ostringstream os;
    bool first = true;
    for (const auto& t : e.terms()) {
        if (!first) os << " ^ ";
        os << toString(t, vars);
        first = false;
    }
    return os.str();
}

std::string setToString(const VarSet& s, const VarTable& vars) {
    std::ostringstream os;
    os << '{';
    bool first = true;
    s.forEachVar([&](Var v) {
        if (!first) os << ", ";
        os << vars.name(v);
        first = false;
    });
    os << '}';
    return os.str();
}

}  // namespace pd::anf::PD_WIDTH_NS
