// Pretty printer for ANF expressions.
#pragma once

#include <string>

#include "anf/anf.hpp"

namespace pd::anf::PD_WIDTH_NS {

/// Renders `e` as "a*b ^ c ^ 1" using names from `vars`. Zero prints "0".
[[nodiscard]] std::string toString(const Anf& e, const VarTable& vars);

/// Renders a monomial as "a*b*c"; the empty monomial prints "1".
[[nodiscard]] std::string toString(const Monomial& m, const VarTable& vars);

/// Renders a variable set as "{a, b, c}".
[[nodiscard]] std::string setToString(const VarSet& s, const VarTable& vars);

}  // namespace pd::anf::PD_WIDTH_NS
