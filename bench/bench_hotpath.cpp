// Hot-path kernel microbench: the three operations the decomposition
// loop lives in — ANF products, null-space sum-membership solves, and
// findBasis pair merging — each measured in the reference (sorted-vector
// Anf) domain and the indexed (bitset-over-ids) domain, plus spec
// expansion (every default registry ANF builder, summed, best of 3) and
// an end-to-end decompose. Results go to BENCH_hotpath.json
// ("pd-bench-hotpath-v1"):
//
//   {
//     "schema": "pd-bench-hotpath-v1",
//     "metrics": {              // tracked by the CI perf smoke gate
//       "product_indexed_us": f, "member_indexed_us": f,
//       "findbasis_us": f, "decompose_majority15_ms": f,
//       "spec_expand_ms": f
//     },
//     "reference": {"product_ref_us": f, "member_ref_us": f},
//     "speedups": {"product": f, "member": f}
//   }
//
// scripts/check_hotpath.py fails CI when any entry of "metrics" regresses
// more than PD_HOTPATH_TOL× (default 2×) against the committed baseline —
// generous because shared runners are noisy, tight enough to catch a
// kernel falling off a cliff.
//
// A second document, BENCH_probe.json ("pd-bench-probe-v1"), covers the
// group-selection probe sweep: the exact sweep workload of a real
// majority15 decompose (captured via the probe capture hook) replayed
// through the incremental ProbeContext and through the sequential PR-4
// referenceSweep, plus end-to-end decompose times and per-phase
// breakdowns. The "speedups" ratio is measured within one run, so it is
// machine-independent; check_hotpath.py gates both documents with the
// same policy. Its ungated "breakdown" object also records mul6 decomposed
// at 4 probe lanes. Its ungated "lanes" object records the probe phase of
// mul4, counter16 and adder3_9 decomposed with 1, 2 and 4 probe lanes
// (best of 2), with the helper lanes' probes and the committer's
// discards: the scaling of the speculative sweep on the recording host.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "anf/anf.hpp"
#include "anf/indexed.hpp"
#include "circuits/registry.hpp"
#include "core/basis.hpp"
#include "core/decomposer.hpp"
#include "core/group.hpp"
#include "core/probe/probe.hpp"
#include "ring/identity_db.hpp"
#include "ring/membership.hpp"
#include "util/json_writer.hpp"
#include "util/pool.hpp"

namespace {

using pd::anf::Anf;
using pd::anf::IndexedAnf;
using pd::anf::Monomial;
using pd::anf::MonomialIndexer;

class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed ? seed : 1) {}
    std::uint64_t next() {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return s_;
    }
    std::size_t below(std::size_t n) { return next() % n; }

private:
    std::uint64_t s_;
};

Anf randomAnf(Rng& rng, pd::anf::Var maxVar, std::size_t terms,
              std::size_t maxDeg) {
    std::vector<Monomial> ts;
    for (std::size_t i = 0; i < terms; ++i) {
        Monomial m;
        const std::size_t deg = 1 + rng.below(maxDeg);
        for (std::size_t d = 0; d < deg; ++d)
            m.insert(static_cast<pd::anf::Var>(rng.below(maxVar)));
        ts.push_back(m);
    }
    return Anf::fromTerms(std::move(ts));
}

template <typename Fn>
double timeUs(std::size_t reps, Fn&& fn) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i) fn(i);
    const auto us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return us / static_cast<double>(reps);
}

}  // namespace

int main(int argc, char** argv) {
    const std::string jsonPath = argc > 1 ? argv[1] : "BENCH_hotpath.json";
    const std::string probeJsonPath = argc > 2 ? argv[2] : "BENCH_probe.json";

    // ---- ANF product: 48×48 terms over 14 variables. -------------------
    Rng rng(101);
    std::vector<Anf> lhs;
    std::vector<Anf> rhs;
    for (int i = 0; i < 16; ++i) {
        lhs.push_back(randomAnf(rng, 14, 48, 4));
        rhs.push_back(randomAnf(rng, 14, 48, 4));
    }
    std::size_t sink = 0;
    const double productRefUs = timeUs(64, [&](std::size_t i) {
        sink += (lhs[i % lhs.size()] * rhs[i % rhs.size()]).termCount();
    });
    MonomialIndexer productIx;
    std::vector<IndexedAnf> ilhs;
    std::vector<IndexedAnf> irhs;
    for (int i = 0; i < 16; ++i) {
        ilhs.push_back(IndexedAnf::fromAnf(productIx, lhs[static_cast<std::size_t>(i)]));
        irhs.push_back(IndexedAnf::fromAnf(productIx, rhs[static_cast<std::size_t>(i)]));
    }
    const double productIndexedUs = timeUs(64, [&](std::size_t i) {
        sink += indexedProduct(productIx, ilhs[i % ilhs.size()],
                               irhs[i % irhs.size()])
                    .termCount();
    });

    // ---- Membership solve: rings of 3 generators over 8 variables. -----
    Rng mrng(202);
    std::vector<pd::ring::NullSpaceRing> rings;
    for (int i = 0; i < 8; ++i) {
        pd::ring::NullSpaceRing r;
        for (int g = 0; g < 3; ++g) r.addGenerator(randomAnf(mrng, 8, 3, 2));
        rings.push_back(std::move(r));
    }
    std::vector<Anf> targets;
    for (int i = 0; i < 16; ++i) {
        // Half guaranteed members (XORs of span elements), half random.
        if (i % 2 == 0) {
            Anf t;
            for (const auto& e : rings[static_cast<std::size_t>(i) % rings.size()].spanningSet(64))
                if (mrng.below(2)) t ^= e;
            targets.push_back(std::move(t));
        } else {
            targets.push_back(randomAnf(mrng, 8, 4, 2));
        }
    }
    const double memberRefUs = timeUs(256, [&](std::size_t i) {
        sink += pd::ring::memberOfSum(targets[i % targets.size()],
                                      rings[i % rings.size()],
                                      rings[(i + 3) % rings.size()], 64)
                    .member;
    });
    pd::ring::MembershipContext mctx;
    const double memberIndexedUs = timeUs(256, [&](std::size_t i) {
        sink += pd::ring::memberOfSum(mctx, targets[i % targets.size()],
                                      rings[i % rings.size()],
                                      rings[(i + 3) % rings.size()], 64)
                    .member;
    });

    // ---- Pair merge: findBasis over a majority15-sized expression with a
    // seeded identity database so null-space merging fires. --------------
    pd::anf::VarTable vt;
    const auto bench = pd::circuits::makeNamedBenchmark("majority15");
    const auto outputs = bench->anf(vt);
    pd::ring::IdentityDb idb;
    Rng irng(303);
    for (int i = 0; i < 6; ++i)
        idb.add(Anf::var(static_cast<pd::anf::Var>(irng.below(15))) *
                randomAnf(irng, 15, 2, 2));
    pd::anf::VarSet group;
    for (pd::anf::Var v = 0; v < 4; ++v) group.insert(v);
    const double findBasisUs = timeUs(32, [&](std::size_t) {
        const auto res = pd::core::findBasis(outputs[0], group, idb, {});
        sink += res.pairs.size();
    });

    // ---- Spec expansion: the default batch's Reed-Muller builders. -------
    double specExpandMs = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        double totalMs = 0.0;
        for (const auto& name : pd::circuits::benchmarkNames(false)) {
            const auto spec = pd::circuits::makeNamedBenchmark(name);
            totalMs += timeUs(1, [&](std::size_t) {
                           pd::anf::VarTable tbl;
                           sink += spec->anf(tbl).size();
                       }) /
                       1000.0;
        }
        specExpandMs = std::min(specExpandMs, totalMs);
    }

    // ---- End to end: majority15 decompose under default options. -------
    const double decomposeMs = timeUs(3, [&](std::size_t) {
                                   pd::anf::VarTable tbl;
                                   const auto outs = bench->anf(tbl);
                                   const auto d = pd::core::decompose(
                                       tbl, outs, bench->outputNames, {});
                                   sink += d.blocks.size();
                               }) /
                               1000.0;

    // ---- Probe sweep: replay the exact group-selection workload of the
    // majority15 decompose (captured via the probe hook) through the
    // incremental ProbeContext and through the sequential PR-4
    // reference sweep. Same inputs, same winners — the ratio is the
    // probe-phase speedup, measured machine-independently. -------------
    struct CapturedSweep {
        pd::anf::Anf folded;
        std::vector<pd::anf::VarSet> candidates;
        pd::ring::IdentityDb ids;
    };
    std::vector<CapturedSweep> sweeps;
    pd::core::Decomposition probeDecomp;
    {
        pd::anf::VarTable tbl;
        const auto outs = bench->anf(tbl);
        pd::core::DecomposeOptions dopt;
        dopt.probeCaptureHook = [&](const pd::anf::Anf& f,
                                    const std::vector<pd::anf::VarSet>& c,
                                    const pd::ring::IdentityDb& i) {
            sweeps.push_back({f, c, i});
        };
        probeDecomp = pd::core::decompose(tbl, outs, bench->outputNames, dopt);
    }
    pd::core::GroupOptions gopt;
    gopt.probeMergeBudget = pd::core::kDefaultMergeAttemptBudget;
    double probeSweepMs = 1e300;
    double probeSweepRefMs = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        probeSweepMs = std::min(
            probeSweepMs, timeUs(1, [&](std::size_t) {
                pd::core::probe::ProbeContext ctx;
                for (const auto& sw : sweeps)
                    sink += ctx.sweep(sw.folded, sw.candidates, sw.ids, gopt)
                                .score;
            }) / 1000.0);
        probeSweepRefMs = std::min(
            probeSweepRefMs, timeUs(1, [&](std::size_t) {
                for (const auto& sw : sweeps)
                    sink += pd::core::probe::referenceSweep(
                                sw.folded, sw.candidates, sw.ids, gopt)
                                .score;
            }) / 1000.0);
    }

    // ---- End to end: mul4 (exhaustive-sweep dominated; was 15+ s before
    // the incremental sweep). Its spec is built untimed, as mul6's is, so
    // the timing is the decompose alone. ------------------------------
    const auto mul4 = pd::circuits::makeNamedBenchmark("mul4");
    pd::anf::VarTable mul4Vars;
    const auto mul4Outs = mul4->anf(mul4Vars);
    pd::core::Decomposition mul4Decomp;
    const double decomposeMul4Ms = timeUs(1, [&](std::size_t) {
                                       mul4Decomp = pd::core::decompose(
                                           mul4Vars, mul4Outs,
                                           mul4->outputNames, {});
                                       sink += mul4Decomp.blocks.size();
                                   }) /
                                   1000.0;

    // ---- End to end: mul6 at 4 probe lanes (heavy; ungated). Its spec
    // takes longer to expand than to decompose, so it is built untimed.
    const auto mul6 = pd::circuits::makeNamedBenchmark("mul6");
    pd::anf::VarTable mul6Vars;
    const auto mul6Outs = mul6->anf(mul6Vars);
    pd::core::Decomposition mul6Decomp;
    pd::core::DecomposeOptions mul6Opt;
    mul6Opt.probePool = std::make_shared<pd::util::ThreadPool>(4);
    const double decomposeMul6Ms = timeUs(1, [&](std::size_t) {
                                       mul6Decomp = pd::core::decompose(
                                           mul6Vars, mul6Outs,
                                           mul6->outputNames, mul6Opt);
                                       sink += mul6Decomp.blocks.size();
                                   }) /
                                   1000.0;

    // ---- Probe lanes: the probe phase of whole decomposes at 1, 2 and 4
    // lanes (a pool of that many threads; 1 lane is no pool). ----------
    struct LaneRun {
        std::size_t lanes = 0;
        double probeMs = 1e300;
        pd::core::Decomposition::ProbeSummary summary;
    };
    std::vector<std::pair<std::string, std::vector<LaneRun>>> laneRuns;
    for (const char* name : {"mul4", "counter16", "adder3_9"}) {
        const auto b = pd::circuits::makeNamedBenchmark(name);
        auto& runs = laneRuns.emplace_back(name, std::vector<LaneRun>{});
        for (const std::size_t lanes : {1u, 2u, 4u}) {
            LaneRun run;
            run.lanes = lanes;
            const auto pool =
                lanes > 1 ? std::make_shared<pd::util::ThreadPool>(lanes)
                          : nullptr;
            for (int rep = 0; rep < 2; ++rep) {
                pd::anf::VarTable tbl;
                const auto outs = b->anf(tbl);
                pd::core::DecomposeOptions dopt;
                dopt.probePool = pool;
                const auto d =
                    pd::core::decompose(tbl, outs, b->outputNames, dopt);
                sink += d.blocks.size();
                if (d.probe.sweepMs < run.probeMs) {
                    run.probeMs = d.probe.sweepMs;
                    run.summary = d.probe;
                }
            }
            std::cout << "probe phase " << name << " at " << lanes
                      << " lanes: " << run.probeMs << " ms\n";
            runs.second.push_back(run);
        }
    }

    std::cout << "anf product:      ref " << productRefUs << " us, indexed "
              << productIndexedUs << " us ("
              << productRefUs / productIndexedUs << "x)\n"
              << "membership solve: ref " << memberRefUs << " us, indexed "
              << memberIndexedUs << " us (" << memberRefUs / memberIndexedUs
              << "x)\n"
              << "findBasis merge:  " << findBasisUs << " us\n"
              << "spec expansion (default batch): " << specExpandMs
              << " ms\n"
              << "decompose majority15: " << decomposeMs << " ms\n"
              << "probe sweep (majority15 workload): incremental "
              << probeSweepMs << " ms, reference " << probeSweepRefMs
              << " ms (" << probeSweepRefMs / probeSweepMs << "x)\n"
              << "decompose mul4: " << decomposeMul4Ms << " ms (probe "
              << mul4Decomp.probe.sweepMs << " ms)\n"
              << "decompose mul6 at 4 lanes: " << decomposeMul6Ms
              << " ms (probe " << mul6Decomp.probe.sweepMs << " ms)\n"
              << "(sink " << sink << ")\n";

    std::ofstream os(jsonPath);
    if (!os) {
        std::cerr << "cannot write " << jsonPath << "\n";
        return 1;
    }
    pd::util::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "pd-bench-hotpath-v1");
    w.key("metrics").beginObject();
    w.field("product_indexed_us", productIndexedUs);
    w.field("member_indexed_us", memberIndexedUs);
    w.field("findbasis_us", findBasisUs);
    w.field("decompose_majority15_ms", decomposeMs);
    w.field("spec_expand_ms", specExpandMs);
    w.endObject();
    w.key("reference").beginObject();
    w.field("product_ref_us", productRefUs);
    w.field("member_ref_us", memberRefUs);
    w.endObject();
    w.key("speedups").beginObject();
    w.field("product", productRefUs / productIndexedUs);
    w.field("member", memberRefUs / memberIndexedUs);
    w.endObject();
    w.endObject();
    std::cout << "wrote " << jsonPath << "\n";

    std::ofstream pos(probeJsonPath);
    if (!pos) {
        std::cerr << "cannot write " << probeJsonPath << "\n";
        return 1;
    }
    const auto breakdown = [](pd::util::JsonWriter& jw,
                              const pd::core::Decomposition& d,
                              double totalMs) {
        jw.field("decompose_ms", totalMs);
        jw.field("probe_sweep_ms", d.probe.sweepMs);
        jw.field("bound_ms", d.probe.boundMs);
        jw.field("probe_share",
                 totalMs > 0.0 ? d.probe.sweepMs / totalMs : 0.0);
        jw.field("sweeps", d.probe.sweeps);
        jw.field("candidates", d.probe.candidates);
        jw.field("probed", d.probe.probed);
        jw.field("pruned", d.probe.pruned);
        jw.field("deduped", d.probe.deduped);
        jw.field("basis_reuses", d.probe.basisReuses);
    };
    pd::util::JsonWriter pw(pos);
    pw.beginObject();
    pw.field("schema", "pd-bench-probe-v1");
    pw.key("metrics").beginObject();
    pw.field("probe_sweep_majority15_ms", probeSweepMs);
    pw.field("decompose_majority15_ms", decomposeMs);
    pw.field("decompose_mul4_ms", decomposeMul4Ms);
    pw.endObject();
    pw.key("reference").beginObject();
    pw.field("probe_sweep_reference_majority15_ms", probeSweepRefMs);
    pw.endObject();
    pw.key("speedups").beginObject();
    pw.field("probe_sweep_majority15", probeSweepRefMs / probeSweepMs);
    pw.endObject();
    pw.key("breakdown").beginObject();
    pw.key("majority15").beginObject();
    breakdown(pw, probeDecomp, decomposeMs);
    pw.endObject();
    pw.key("mul4").beginObject();
    breakdown(pw, mul4Decomp, decomposeMul4Ms);
    pw.endObject();
    pw.key("mul6").beginObject();
    pw.field("lanes", std::uint64_t{4});
    breakdown(pw, mul6Decomp, decomposeMul6Ms);
    pw.endObject();
    pw.endObject();
    pw.key("lanes").beginObject();
    for (const auto& [name, runs] : laneRuns) {
        pw.key(name).beginObject();
        for (const auto& run : runs) {
            pw.key(std::to_string(run.lanes)).beginObject();
            pw.field("probe_sweep_ms", run.probeMs);
            pw.field("speedup", runs.front().probeMs / run.probeMs);
            pw.field("probed", run.summary.probed);
            pw.field("helper_probes", run.summary.helperProbes);
            pw.field("speculative_discards", run.summary.speculativeDiscards);
            pw.endObject();
        }
        pw.endObject();
    }
    pw.endObject();
    pw.endObject();
    std::cout << "wrote " << probeJsonPath << "\n";
    return 0;
}
