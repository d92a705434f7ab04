// The committed EXPERIMENTS.md: every claim of the paper the repository
// reproduces, with the measured numbers and a computed verdict.
//
//   bench_experiments EXPERIMENTS.md   (from the repository root)
//
// The sections, paper numbers and verdict rules live in src/eval/;
// experiments_test fails when the committed file is stale.
#include <fstream>
#include <iostream>

#include "eval/report.hpp"

int main(int argc, char** argv) {
    if (argc != 2) {
        std::cerr << "usage: bench_experiments <output.md>\n";
        return 64;
    }
    std::ofstream out(argv[1], std::ios::binary);
    out << pd::eval::experimentsDocument();
    if (!out.flush()) {
        std::cerr << "bench_experiments: cannot write " << argv[1] << '\n';
        return 1;
    }
    return 0;
}
