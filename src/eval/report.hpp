// Report formatting for Table-1 reproductions.
#pragma once

#include <string>

#include "eval/table1.hpp"

namespace pd::eval {

/// Renders a row group as a Markdown section: a table of variant | paper
/// area/delay | measured area/delay | gates | verification, then each PD
/// row's area and delay as a fraction of its own circuit's baseline (the
/// first row with the same circuit), measured and paper, then the notes.
[[nodiscard]] std::string formatReport(const BenchReport& rep);

/// Runs every Table-1 row group and renders them as one Markdown
/// document under a preamble (cell library, reproduction widths, the
/// regenerate command): the committed EXPERIMENTS.md.
[[nodiscard]] std::string experimentsDocument();

}  // namespace pd::eval
