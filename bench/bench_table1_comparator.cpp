// Table 1, comparator row: progressive comparator 514.9µm² 0.40ns,
// Progressive Decomposition 466.6µm² 0.33ns, subtracter carry-out
// 577.2µm² 0.40ns. The paper runs 15 bits; the flat Reed-Muller form has
// 3^n − 1 terms, so this reproduction defaults to 12 bits (531k terms) —
// the substitution is documented at eval::rowComparator and the
// architectural conclusion (PD ≈ carry-lookahead sign computation, ~20%
// faster than the mux chain) is width-independent.
#include <benchmark/benchmark.h>

#include <iostream>

#include "circuits/comparator.hpp"
#include "core/decomposer.hpp"
#include "eval/report.hpp"

namespace {

void BM_DecomposeComparator(benchmark::State& state) {
    const auto bench =
        pd::circuits::makeComparator(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        pd::anf::VarTable vt;
        const auto outs = bench.anf(vt);
        const auto d = pd::core::decompose(vt, outs, bench.outputNames);
        benchmark::DoNotOptimize(d.blocks.size());
    }
}
BENCHMARK(BM_DecomposeComparator)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    std::cout << pd::eval::formatReport(pd::eval::rowComparator(12)) << '\n';
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
