// EXPERIMENTS.md freshness: the committed Table-1 document must be
// byte-identical to what the generator (eval::experimentsDocument, run
// by `bench_table1 EXPERIMENTS.md`) renders from the current code.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "eval/report.hpp"

namespace pd::eval {
namespace {

TEST(Experiments, CommittedDocumentIsFresh) {
    std::ifstream in(PD_EXPERIMENTS_MD, std::ios::binary);
    ASSERT_TRUE(in) << "cannot read " << PD_EXPERIMENTS_MD;
    std::stringstream committed;
    committed << in.rdbuf();

    const std::string fresh = experimentsDocument();
    EXPECT_TRUE(fresh == committed.str())
        << PD_EXPERIMENTS_MD << " is stale. Regenerate it from the "
        << "repository root with `cmake --build build --target bench_table1 "
        << "&& ./build/bench_table1 EXPERIMENTS.md`. The fresh document:\n"
        << fresh;
}

}  // namespace
}  // namespace pd::eval
