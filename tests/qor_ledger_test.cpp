// QoR ledger: the committed per-job quality of result of the default
// batch (tests/data/qor-ledger.json).
//
// The test recomputes every default (non-heavy) registry job — blocks,
// iterations, leaders, mapped cells, area, delay, levels, and a 128-bit
// digest of the mapped netlist's BLIF — and compares the rendered ledger
// byte for byte with the committed file. A change that is meant to keep
// QoR must leave the file alone; a change that moves QoR must update the
// file (the fresh ledger is printed on a mismatch) and say why.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "circuits/registry.hpp"
#include "engine/engine.hpp"
#include "io/blif.hpp"
#include "util/digest.hpp"
#include "util/json_writer.hpp"

namespace pd {
namespace {

std::string freshLedger() {
    std::vector<engine::JobSpec> specs;
    for (const auto& name : circuits::benchmarkNames(/*includeHeavy=*/false)) {
        engine::JobSpec spec;
        spec.benchmark = name;
        spec.verify = false;  // QoR only; the other suites verify
        spec.keepMapped = true;
        specs.push_back(std::move(spec));
    }
    engine::EngineOptions opt;
    opt.jobs = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    opt.cacheCapacity = 0;
    const auto results = engine::runBatch(specs, opt);

    std::ostringstream os;
    util::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "pd-qor-ledger-v1");
    w.key("jobs").beginArray();
    for (const auto& r : results) {
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
        w.beginObject();
        w.field("name", r.name);
        w.field("blocks", static_cast<std::uint64_t>(r.blocks));
        w.field("iterations", static_cast<std::uint64_t>(r.iterations));
        w.field("leaders", static_cast<std::uint64_t>(r.leaders));
        w.field("cells", static_cast<std::uint64_t>(r.qor.gates));
        w.field("area_um2", r.qor.area);
        w.field("delay_ns", r.qor.delay);
        w.field("levels", static_cast<std::uint64_t>(r.levels));
        w.field("netlist_digest", util::digestOf(io::toBlif(r.mapped)).hex());
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return os.str();
}

TEST(QorLedger, DefaultBatchMatchesCommittedLedger) {
    std::ifstream in(PD_QOR_LEDGER_JSON);
    ASSERT_TRUE(in) << "cannot read " << PD_QOR_LEDGER_JSON;
    std::stringstream committed;
    committed << in.rdbuf();

    const std::string fresh = freshLedger();
    EXPECT_TRUE(fresh == committed.str())
        << "QoR moved. If the change is intended, replace "
        << PD_QOR_LEDGER_JSON << " with the fresh ledger below and say why "
        << "in CHANGES.md:\n"
        << fresh;
}

}  // namespace
}  // namespace pd
