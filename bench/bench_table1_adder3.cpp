// Table 1, 12-bit three-input adder row: A+B+C 2058.0µm² 1.09ns,
// RCA(RCA(A,B),C) 2426.1µm² 1.11ns, Progressive Decomposition 1772.8µm²
// 0.75ns, CSA+Adder 1646.8µm² 0.70ns — the row where Boolean division
// matters and the paper's ~50% delay win appears (§6).
#include <benchmark/benchmark.h>

#include <iostream>

#include "circuits/adder.hpp"
#include "core/decomposer.hpp"
#include "eval/report.hpp"

namespace {

void BM_DecomposeAdder3(benchmark::State& state) {
    const auto bench =
        pd::circuits::makeAdder3(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        pd::anf::VarTable vt;
        const auto outs = bench.anf(vt);
        const auto d = pd::core::decompose(vt, outs, bench.outputNames);
        benchmark::DoNotOptimize(d.blocks.size());
    }
}
// Width 12 (the paper's) is excluded: its flat Reed-Muller form needs
// ~20M monomials and exhausts memory (the substitution eval::rowAdder3
// documents).
BENCHMARK(BM_DecomposeAdder3)
    ->Arg(6)
    ->Arg(9)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    std::cout << pd::eval::formatReport(pd::eval::rowAdder3()) << '\n';
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
