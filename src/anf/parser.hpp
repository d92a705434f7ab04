// Text parser for ANF-oriented Boolean expressions.
//
// Grammar (whitespace insensitive):
//   expr   := term (('^' | '+') term)*          XOR
//   term   := factor (('*' | '&') factor)*      AND
//   factor := '0' | '1' | IDENT | '(' expr ')' | ('~' | '!') factor
//
// '+' is accepted as a synonym for XOR because the paper writes Boolean
// ring addition as '+'. '~x' parses as (1 ^ x). Unknown identifiers are
// registered in the VarTable as primary inputs, which makes the parser
// convenient for tests and the expression_playground example.
#pragma once

#include <string_view>

#include "anf/anf.hpp"

namespace pd::anf::PD_WIDTH_NS {

/// Parses `text` into a canonical ANF, registering unseen identifiers in
/// `vars`. Throws pd::Error on malformed input.
[[nodiscard]] Anf parse(std::string_view text, VarTable& vars);

}  // namespace pd::anf::PD_WIDTH_NS
