#include "eval/table1.hpp"

#include "circuits/adder.hpp"
#include "circuits/comparator.hpp"
#include "circuits/counter.hpp"
#include "circuits/lzd.hpp"
#include "circuits/majority.hpp"
#include "circuits/manual.hpp"
#include "sat/equiv.hpp"
#include "sim/equivalence.hpp"
#include "synth/mapper.hpp"
#include "synth/opt.hpp"
#include "synth/quickfactor.hpp"
#include "util/error.hpp"

namespace pd::eval {

RowResult Flow::runNetlist(const std::string& variant,
                           const netlist::Netlist& nl,
                           const circuits::Benchmark& bench,
                           double paperArea, double paperDelay) {
    const netlist::Netlist opt = synth::optimize(nl);
    const netlist::Netlist mapped = synth::techMap(opt, lib_);

    RowResult row;
    row.variant = variant;
    row.circuit = bench.name;
    row.paperArea = paperArea;
    row.paperDelay = paperDelay;
    row.qor = synth::qor(mapped, lib_);

    const auto eq = sim::checkAgainstReference(mapped, bench.ports,
                                               bench.outputNames,
                                               bench.reference);
    row.verified = eq.equivalent;
    row.exhaustive = eq.exhaustive;
    row.vectorsTested = eq.vectorsTested;
    if (!eq.equivalent)
        fail("eval", bench.name + " variant '" + variant +
                         "' failed verification: " + eq.message);
    row.mapped = mapped;
    return row;
}

void satCrossCheck(BenchReport& report) {
    if (report.rows.size() < 2) return;
    report.rows.front().satProven = true;  // reference of the miter
    for (std::size_t i = 1; i < report.rows.size(); ++i) {
        auto& row = report.rows[i];
        const auto res =
            sat::checkEquivalentSat(report.rows.front().mapped, row.mapped);
        if (res.status != sat::EquivCheckResult::Status::kEquivalent)
            fail("eval", report.title + ": variant '" + row.variant +
                             "' is not equivalent to '" +
                             report.rows.front().variant + "'");
        row.satProven = true;
    }
}

RowResult Flow::runSopFactored(const std::string& variant,
                               const circuits::Benchmark& bench,
                               double paperArea, double paperDelay) {
    if (!bench.sop) fail("eval", bench.name + " has no SOP description");
    anf::VarTable vt;
    const auto spec = bench.sop(vt);
    const auto nl = synth::synthSopFactored(spec, vt);
    return runNetlist(variant, nl, bench, paperArea, paperDelay);
}

RowResult Flow::runPd(const std::string& variant,
                      const circuits::Benchmark& bench, double paperArea,
                      double paperDelay, const core::DecomposeOptions& opt) {
    engine::JobSpec spec;
    spec.name = variant;
    spec.bench = std::make_shared<const circuits::Benchmark>(bench);
    spec.options = opt;
    spec.verify = true;
    spec.keepMapped = true;
    const engine::JobResult r = engine_.runJob(spec);
    if (!r.ok)
        fail("eval", bench.name + " variant '" + variant + "': " + r.error);

    RowResult row;
    row.variant = variant;
    row.circuit = bench.name;
    row.paperArea = paperArea;
    row.paperDelay = paperDelay;
    row.qor = r.qor;
    row.verified = r.verified();
    row.exhaustive = r.exhaustive;
    row.vectorsTested = r.vectorsTested;
    row.pdBlocks = r.blocks;
    row.pdIterations = r.iterations;
    row.mapped = r.mapped;
    return row;
}

// ---------------------------------------------------------------------------

BenchReport rowLzdLod16() {
    BenchReport rep;
    rep.title = "16-bit LZD/LOD (Table 1, rows 1-2)";
    Flow flow;
    const auto lzd = circuits::makeLzd(16);
    rep.rows.push_back(
        flow.runSopFactored("LZD16 Unoptimised (SOP)", lzd, 426.8, 0.36));
    rep.rows.push_back(
        flow.runPd("LZD16 Progressive Decomposition", lzd, 392.3, 0.30));
    rep.rows.push_back(flow.runNetlist("LZD16 Oklobdzija [8] (manual)",
                                       circuits::oklobdzijaLzd(16), lzd, 0,
                                       0));
    const auto lod = circuits::makeLod(16);
    rep.rows.push_back(
        flow.runSopFactored("LOD16 Unoptimised (SOP)", lod, 426.8, 0.36));
    rep.rows.push_back(
        flow.runPd("LOD16 Progressive Decomposition", lod, 392.3, 0.30));
    return rep;
}

BenchReport rowLod32() {
    BenchReport rep;
    rep.title = "32-bit LOD (Table 1, row 3)";
    Flow flow;
    const auto lod = circuits::makeLod(32);
    rep.rows.push_back(
        flow.runSopFactored("Unoptimised (SOP)", lod, 1691.7, 0.54));
    rep.rows.push_back(
        flow.runPd("Progressive Decomposition", lod, 1062.7, 0.43));
    satCrossCheck(rep);
    return rep;
}

BenchReport rowMajority15() {
    BenchReport rep;
    rep.title = "15-bit Majority function (Table 1, row 4)";
    Flow flow;
    const auto maj = circuits::makeMajority(15);
    rep.rows.push_back(
        flow.runSopFactored("Unoptimised (SOP)", maj, 2353.5, 0.79));
    rep.rows.push_back(
        flow.runPd("Progressive Decomposition", maj, 765.5, 0.58));
    return rep;
}

BenchReport rowCounter16() {
    BenchReport rep;
    rep.title = "16-bit Counter (Table 1, row 5)";
    Flow flow;
    const auto cnt = circuits::makeCounter(16);
    rep.rows.push_back(flow.runNetlist("Unoptimised (adder tree)",
                                       circuits::adderTreeCounter(16), cnt,
                                       1251.1, 0.86));
    rep.rows.push_back(
        flow.runPd("Progressive Decomposition", cnt, 1427.3, 0.74));
    rep.rows.push_back(flow.runNetlist("TGA [10]", circuits::tgaCounter(16),
                                       cnt, 1066.2, 0.71));
    return rep;
}

BenchReport rowAdder16() {
    BenchReport rep;
    rep.title = "16-bit Adder (Table 1, row 6)";
    Flow flow;
    const auto add = circuits::makeAdder(16);
    rep.rows.push_back(flow.runNetlist("Unoptimised (Ripple Carry Adder)",
                                       circuits::rcaAdder(16), add, 1866.2,
                                       0.56));
    rep.rows.push_back(
        flow.runPd("Progressive Decomposition", add, 1836.9, 0.54));
    rep.rows.push_back(flow.runNetlist(
        "DesignWare (CLA proxy)", circuits::claAdder(16), add, 1375.5, 0.58));
    satCrossCheck(rep);
    return rep;
}

BenchReport rowComparator(int width) {
    BenchReport rep;
    rep.title = std::to_string(width) +
                "-bit Comparator (Table 1, row 7; paper uses 15 bits)";
    if (width < 15)
        rep.notes.push_back(
            "Run below the paper's 15 bits for time and memory: "
            "comparator15's flat Reed-Muller spec has 14.3M terms and "
            "decomposes in 11.4 s at 2.6 GB peak RSS on a 4-CPU host.");
    Flow flow;
    const auto cmp = circuits::makeComparator(width, /*maxAnfWidth=*/13);
    rep.rows.push_back(flow.runNetlist("Unoptimised (progressive comparator)",
                                       circuits::progressiveComparator(width),
                                       cmp, 514.9, 0.40));
    if (cmp.anf)
        rep.rows.push_back(
            flow.runPd("Progressive Decomposition", cmp, 466.6, 0.33));
    else
        rep.notes.push_back(
            "No Progressive Decomposition row: above 13 bits the comparator "
            "benchmark carries no Reed-Muller spec to decompose.");
    rep.rows.push_back(flow.runNetlist("Carry out of Subtracter",
                                       circuits::subtractComparator(width),
                                       cmp, 577.2, 0.40));
    satCrossCheck(rep);
    return rep;
}

BenchReport rowAdder3(int width) {
    BenchReport rep;
    rep.title = std::to_string(width) +
                "-bit Three-Input Adder (Table 1, row 8; paper uses 12 bits)";
    if (width < 12)
        rep.notes.push_back(
            "Run below the paper's 12 bits for time and memory: adder3_12's "
            "flat Reed-Muller spec has 19.6M terms and decomposes in 475 s "
            "at 7.2 GB peak RSS on a 4-CPU host.");
    Flow flow;
    const auto add3 = circuits::makeAdder3(width);
    rep.rows.push_back(flow.runNetlist("Unoptimised (A + B + C)",
                                       circuits::flatTernaryAdder(width),
                                       add3, 2058.0, 1.09));
    rep.rows.push_back(flow.runNetlist("RCA(RCA(A, B), C)",
                                       circuits::rcaRcaAdder3(width), add3,
                                       2426.1, 1.11));
    rep.rows.push_back(
        flow.runPd("Progressive Decomposition", add3, 1772.8, 0.75));
    rep.rows.push_back(flow.runNetlist("CSA + Adder",
                                       circuits::csaAdder3(width, true),
                                       add3, 1646.8, 0.70));
    satCrossCheck(rep);
    return rep;
}

}  // namespace pd::eval
