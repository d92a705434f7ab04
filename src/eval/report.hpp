// Report formatting for the paper's claims: Table-1 row groups and the
// committed EXPERIMENTS.md.
#pragma once

#include <string>

#include "eval/table1.hpp"

namespace pd::eval {

/// Renders a row group's body: a table of variant | paper area/delay |
/// measured area/delay | gates | verification, then each PD row's area
/// and delay as a fraction of its own circuit's baseline (the first row
/// with the same circuit), measured and paper, then the notes.
[[nodiscard]] std::string formatTable(const BenchReport& rep);

/// The row group as a Markdown section: its title, then formatTable.
[[nodiscard]] std::string formatReport(const BenchReport& rep);

/// Runs every Table-1 row group and every other claim (eval/claims.hpp)
/// through one Flow and renders them as one Markdown document under a
/// preamble (cell library, reproduction widths, the regenerate command):
/// the committed EXPERIMENTS.md.
[[nodiscard]] std::string experimentsDocument();

}  // namespace pd::eval
