// Table 1 of the paper: the committed EXPERIMENTS.md and the algorithm's
// decomposition runtimes.
//
//   bench_table1 EXPERIMENTS.md   runs every Table-1 row group and writes
//                                 the Markdown document (no timing loops)
//   bench_table1 [--benchmark_*]  runs the BM_Decompose* timing loops
//
// The document's rows, paper numbers and caveats live in eval/table1.cpp;
// experiments_test fails when the committed file is stale.
#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>

#include "circuits/adder.hpp"
#include "circuits/comparator.hpp"
#include "circuits/counter.hpp"
#include "circuits/lzd.hpp"
#include "circuits/majority.hpp"
#include "core/decomposer.hpp"
#include "eval/report.hpp"

namespace {

void BM_DecomposeLzd16(benchmark::State& state) {
    const auto bench = pd::circuits::makeLzd(16);
    for (auto _ : state) {
        pd::anf::VarTable vt;
        const auto outs = bench.anf(vt);
        const auto d = pd::core::decompose(vt, outs, bench.outputNames);
        benchmark::DoNotOptimize(d.blocks.size());
    }
}
BENCHMARK(BM_DecomposeLzd16)->Unit(benchmark::kMillisecond);

void BM_DecomposeLod(benchmark::State& state) {
    const auto bench =
        pd::circuits::makeLod(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        pd::anf::VarTable vt;
        const auto outs = bench.anf(vt);
        const auto d = pd::core::decompose(vt, outs, bench.outputNames);
        benchmark::DoNotOptimize(d.blocks.size());
    }
}
BENCHMARK(BM_DecomposeLod)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_DecomposeMajority(benchmark::State& state) {
    const auto bench =
        pd::circuits::makeMajority(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        pd::anf::VarTable vt;
        const auto outs = bench.anf(vt);
        const auto d = pd::core::decompose(vt, outs, bench.outputNames);
        benchmark::DoNotOptimize(d.blocks.size());
    }
}
BENCHMARK(BM_DecomposeMajority)
    ->Arg(7)
    ->Arg(11)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond);

void BM_DecomposeCounter16(benchmark::State& state) {
    const auto bench = pd::circuits::makeCounter(16);
    for (auto _ : state) {
        pd::anf::VarTable vt;
        const auto outs = bench.anf(vt);
        const auto d = pd::core::decompose(vt, outs, bench.outputNames);
        benchmark::DoNotOptimize(d.blocks.size());
    }
}
BENCHMARK(BM_DecomposeCounter16)->Unit(benchmark::kMillisecond);

void BM_DecomposeAdder(benchmark::State& state) {
    const auto bench =
        pd::circuits::makeAdder(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        pd::anf::VarTable vt;
        const auto outs = bench.anf(vt);
        const auto d = pd::core::decompose(vt, outs, bench.outputNames);
        benchmark::DoNotOptimize(d.blocks.size());
    }
}
BENCHMARK(BM_DecomposeAdder)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

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
// Width 12 (the paper's) is excluded: its flat Reed-Muller form has
// 19.6M monomials and takes minutes and gigabytes (the substitution
// eval::rowAdder3 documents).
BENCHMARK(BM_DecomposeAdder3)
    ->Arg(6)
    ->Arg(9)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);  // consumes the --benchmark_* flags
    if (argc > 1) {
        std::ofstream out(argv[1], std::ios::binary);
        out << pd::eval::experimentsDocument();
        if (!out.flush()) {
            std::cerr << "bench_table1: cannot write " << argv[1] << '\n';
            return 1;
        }
        return 0;
    }
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
