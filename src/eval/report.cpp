#include "eval/report.hpp"

#include <iomanip>
#include <sstream>

#include "eval/claims.hpp"

namespace pd::eval {
namespace {

const char* verification(const RowResult& row) {
    if (row.exhaustive) return "exhaustive";
    return row.satProven ? "random + SAT" : "random";
}

std::string formatSection(const Section& s) {
    std::ostringstream os;
    os << "## " << s.title << "\n\n";
    if (!s.claim.empty()) os << "**Claim.** " << s.claim << "\n\n";
    os << s.body << "\n**Verdict** (" << s.rule << "):\n\n";
    for (const auto& v : s.verdicts)
        os << "- " << v.subject << (v.holds ? " holds: " : " does not hold: ")
           << v.numbers << '\n';
    return os.str();
}

}  // namespace

std::string formatTable(const BenchReport& rep) {
    std::ostringstream os;
    os << std::fixed;
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

    // Shape summary: each PD row over its own circuit's baseline.
    bool header = false;
    os << std::setprecision(2);
    for (const auto& row : rep.rows) {
        if (row.pdIterations == 0) continue;
        const RowResult* base = baselineOf(rep, row);
        if (!base) continue;
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

std::string formatReport(const BenchReport& rep) {
    return "## " + rep.title + "\n\n" + formatTable(rep);
}

std::string experimentsDocument() {
    std::ostringstream os;
    os << "# Experiments: the paper's claims\n\n"
          "Generated from the repository root by\n"
          "`cmake --build build --target bench_experiments && "
          "./build/bench_experiments EXPERIMENTS.md`\n"
          "(`src/eval/report.cpp`, `src/eval/claims.cpp`); `experiments_test` "
          "fails when this\nfile differs from the generator's output, so do "
          "not edit it by hand.\n\n"
          "Every section states one of the paper's claims, gives the numbers "
          "measured\nfor it and ends in a verdict per circuit or feature: "
          "\"holds\" or \"does not\nhold\", computed by the comparison the "
          "section states. Table 1's claim on\neach of its rows is that "
          "Progressive Decomposition (PD) is faster than the\nrow's "
          "baseline.\n\nEvery variant goes through one optimize → map → STA "
          "flow against the\n`umc130` cell library (`src/synth/celllib.hpp`): "
          "representative 0.13 µm\ndrive-1 cells with a linear fan-out load "
          "penalty, not the paper's\nproprietary UMC 0.13 µm kit. Compare shapes (the PD / "
          "baseline ratios),\nnot absolute µm² and ns. Every variant is "
          "verified against the benchmark's\nreference semantics, or the "
          "generator fails: `exhaustive` simulates every\ninput vector, "
          "`random` samples them, and `random + SAT` adds a CDCL miter\nthat "
          "proves the row equivalent to its group's first row.\n\n"
          "Every Table-1 row runs at the paper's width except the comparator ("
       << kComparatorWidth << " bits;\npaper 15) and the three-input adder ("
       << kAdder3Width
       << " bits; paper 12). The notes under those\ngroups give the "
          "measured cost of the paper's widths.\n";
    // One Flow, so one engine and one result cache: a PD configuration
    // that several sections run (LZD16 at default options, for one) is
    // decomposed once.
    Flow flow;
    for (const BenchReport& rep :
         {rowLzdLod16(flow), rowLod32(flow), rowMajority15(flow),
          rowCounter16(flow), rowAdder16(flow), rowComparator(flow),
          rowAdder3(flow)})
        os << '\n' << formatSection(table1Section(rep));
    for (const auto& s : claimSections(flow)) os << '\n' << formatSection(s);
    return os.str();
}

}  // namespace pd::eval
