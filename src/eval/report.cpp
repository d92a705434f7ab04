#include "eval/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace pd::eval {
namespace {

const char* verification(const RowResult& row) {
    if (!row.verified) return "NO";
    if (row.exhaustive) return "exhaustive";
    return row.satProven ? "random + SAT" : "random";
}

}  // namespace

std::string formatReport(const BenchReport& rep) {
    std::ostringstream os;
    os << std::fixed;
    os << "## " << rep.title << "\n\n";
    os << "| variant | paper µm² | paper ns | area µm² | delay ns | gates | "
          "verified |\n";
    os << "|---|---:|---:|---:|---:|---:|---|\n";
    for (const auto& row : rep.rows) {
        os << "| " << row.variant << " | ";
        if (row.paperArea > 0)
            os << std::setprecision(1) << row.paperArea;
        else
            os << "-";
        os << " | ";
        if (row.paperDelay > 0)
            os << std::setprecision(2) << row.paperDelay;
        else
            os << "-";
        os << " | " << std::setprecision(1) << row.qor.area << " | "
           << std::setprecision(3) << row.qor.delay << " | " << row.qor.gates
           << " | " << verification(row) << " |\n";
    }

    // Shape summary: each PD row over its own circuit's baseline, the
    // first row of the report built from the same benchmark.
    bool header = false;
    os << std::setprecision(2);
    for (const auto& row : rep.rows) {
        if (row.pdIterations == 0) continue;
        const auto base = std::find_if(
            rep.rows.begin(), rep.rows.end(),
            [&](const RowResult& r) { return r.circuit == row.circuit; });
        if (&*base == &row) continue;  // no baseline row for this circuit
        if (!header) {
            os << "\n**PD shape** (PD / baseline; the paper's ratio in "
                  "parentheses):\n\n";
            header = true;
        }
        const auto ratio = [](double pd, double baseline) {
            return baseline > 0 ? pd / baseline : 0.0;
        };
        const bool paper = base->paperArea > 0 && row.paperArea > 0 &&
                           base->paperDelay > 0 && row.paperDelay > 0;
        os << "- " << row.variant << " / " << base->variant << ": area "
           << ratio(row.qor.area, base->qor.area);
        if (paper) os << " (" << ratio(row.paperArea, base->paperArea) << ")";
        os << ", delay " << ratio(row.qor.delay, base->qor.delay);
        if (paper)
            os << " (" << ratio(row.paperDelay, base->paperDelay) << ")";
        os << "; " << row.pdBlocks << " blocks, " << row.pdIterations
           << " iterations\n";
    }
    for (const auto& note : rep.notes) os << "\nNote: " << note << '\n';
    return os.str();
}

std::string experimentsDocument() {
    std::ostringstream os;
    os << "# Experiments: the paper's Table 1\n\n"
          "Generated from the repository root by\n"
          "`cmake --build build --target bench_table1 && ./build/bench_table1 "
          "EXPERIMENTS.md`\n"
          "(`src/eval/report.cpp`); `experiments_test` fails when this file "
          "differs from\nthe generator's output, so do not edit it by hand.\n\n"
          "Every variant of a row group goes through one optimize → map → "
          "STA flow\nagainst the `umc130` cell library "
          "(`src/synth/celllib.hpp`): representative\n0.13 µm drive-1 cells "
          "with a linear fan-out load penalty, not the paper's\nproprietary "
          "UMC 0.13 µm kit. Compare shapes (the PD / baseline ratios),\nnot "
          "absolute µm² and ns. Every row is verified against the benchmark's\n"
          "reference semantics: `exhaustive` simulates every input vector, "
          "`random`\nsamples them, and `random + SAT` adds a CDCL miter that "
          "proves the row\nequivalent to its group's first row.\n\n"
          "Every row runs at the paper's width except the comparator ("
       << kComparatorWidth << " bits;\npaper 15) and the three-input adder ("
       << kAdder3Width
       << " bits; paper 12). The notes under those\ngroups give the "
          "measured cost of the paper's widths.\n";
    for (const BenchReport& rep :
         {rowLzdLod16(), rowLod32(), rowMajority15(), rowCounter16(),
          rowAdder16(), rowComparator(), rowAdder3()})
        os << '\n' << formatReport(rep);
    return os.str();
}

}  // namespace pd::eval
