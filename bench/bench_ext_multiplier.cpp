// Extension experiment (beyond Table 1): the multiplier workload the
// paper's references [10] (TGA partial-product compressors) and [13]
// (Wallace trees) point at. Progressive Decomposition runs on the flat
// Reed-Muller form of an n×n multiplier and is compared, through the
// same optimize→map→STA flow, against the two classic manual
// architectures. Measured shape (a documented negative result): unlike
// the 3-operand adder, the multiplier's two-dimensional partial-product
// structure defeats the one-dimensional LSB grouping heuristic — PD's
// residual stays near-flat and both manual trees win decisively; the
// report this binary prints is the record.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "circuits/multiplier.hpp"
#include "core/decomposer.hpp"
#include "eval/report.hpp"

namespace {

pd::eval::BenchReport multiplierReport(int n) {
    pd::eval::BenchReport rep;
    rep.title = std::to_string(n) + "x" + std::to_string(n) +
                " Multiplier (extension; paper refs [10], [13])";
    pd::eval::Flow flow;
    const auto bench = pd::circuits::makeMultiplier(n);
    rep.rows.push_back(flow.runNetlist(
        "Array multiplier (serial rows)", pd::circuits::arrayMultiplier(n),
        bench, 0, 0));
    if (bench.anf)
        rep.rows.push_back(flow.runPd("Progressive Decomposition", bench, 0, 0));
    rep.rows.push_back(flow.runNetlist(
        "Wallace tree + ripple", pd::circuits::wallaceMultiplier(n, false),
        bench, 0, 0));
    rep.rows.push_back(flow.runNetlist(
        "Wallace tree + prefix adder",
        pd::circuits::wallaceMultiplier(n, true), bench, 0, 0));
    pd::eval::satCrossCheck(rep);
    return rep;
}

void BM_DecomposeMultiplier(benchmark::State& state) {
    const auto bench =
        pd::circuits::makeMultiplier(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        pd::anf::VarTable vt;
        const auto outs = bench.anf(vt);
        const auto d = pd::core::decompose(vt, outs, bench.outputNames);
        benchmark::DoNotOptimize(d.blocks.size());
    }
}
BENCHMARK(BM_DecomposeMultiplier)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    // 4x4 runs in seconds; 5x5 (where PD's residual stays near-flat and
    // the QoR gap widens) takes minutes through the PD row, so it is
    // opt-in.
    std::cout << pd::eval::formatReport(multiplierReport(4)) << '\n';
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--mul5")
            std::cout << pd::eval::formatReport(multiplierReport(5)) << '\n';
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
