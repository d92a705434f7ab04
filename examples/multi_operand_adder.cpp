// Multi-operand addition (paper §6, the three-input adder row).
//
// For two operands, algebraic factorisation is enough and everyone ties;
// for three operands a synthesizer needs Boolean division to find the
// carry-save structure — Progressive Decomposition finds it from the flat
// Reed-Muller form, landing near the manual CSA + adder design, while the
// serial RCA(RCA) description stays ~1.5x slower.
#include <iostream>

#include "anf/printer.hpp"
#include "circuits/adder.hpp"
#include "circuits/manual.hpp"
#include "core/decomposer.hpp"
#include "eval/report.hpp"
#include "eval/table1.hpp"

int main() {
    using namespace pd;

    const int n = 8;  // fast demo width; the Table-1 row uses 9 (the
                      // paper's 12 takes minutes and gigabytes — see
                      // eval::kAdder3Width in src/eval/table1.hpp)
    const auto bench = circuits::makeAdder3(n);

    anf::VarTable vars;
    const auto outputs = bench.anf(vars);
    std::size_t terms = 0;
    for (const auto& e : outputs) terms += e.termCount();
    std::cout << n << "-bit three-input adder: " << outputs.size()
              << " outputs, " << terms << " monomials in Reed-Muller form\n";

    const auto d = core::decompose(vars, outputs, bench.outputNames);
    std::cout << "decomposed into " << d.blocks.size() << " blocks over "
              << d.iterations << " iterations; first block consumes ";
    std::cout << (d.blocks.empty()
                      ? std::string("(none)")
                      : anf::setToString(d.blocks[0].group, vars))
              << " — one bit of each operand, the carry-save column.\n\n";

    eval::Flow flow;
    eval::BenchReport rep;
    rep.title = std::to_string(n) + "-bit three-input adder architectures";
    rep.rows.push_back(flow.runNetlist("A + B + C (flat description)",
                                       circuits::flatTernaryAdder(n), bench,
                                       0, 0));
    rep.rows.push_back(flow.runNetlist("RCA(RCA(A,B),C)",
                                       circuits::rcaRcaAdder3(n), bench, 0,
                                       0));
    rep.rows.push_back(flow.runPd("Progressive Decomposition", bench, 0, 0));
    rep.rows.push_back(flow.runNetlist("CSA + CLA (manual)",
                                       circuits::csaAdder3(n, true), bench,
                                       0, 0));
    std::cout << eval::formatReport(rep);
    return 0;
}
