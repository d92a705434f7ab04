// pd_cli — command-line front-end for Progressive Decomposition.
//
// Modes:
//   pd_cli expr   [options] "<name>=<expr>" ...   decompose expressions
//   pd_cli bench  [options] <benchmark>           decompose a named benchmark
//   pd_cli batch  [options] [bench ...]           run a batch through the
//                                                 concurrent engine
//   pd_cli list                                   list named benchmarks
//   pd_cli cache-info [--key] [file]              print the persistent-cache
//                                                 format/fingerprint, or
//                                                 inspect an existing store
//
// Options (all modes):
//   -k <n>           group size (default 4)
//   --jobs <n>       engine worker threads (parallelizes batch; accepted
//                    but single-job in expr/bench)
//   --merge-budget <n>  anytime mode: cap on null-space merge solves per
//                    decomposition phase (0 = unlimited; default 100000).
//                    A truncated job reports budget_exhausted.
//   --probe-threads <n>  lanes for the group-selection probe sweep inside
//                    each job (0/1 = sequential); batch sweeps get one
//                    lane per engine thread, max(--jobs, --probe-threads),
//                    run by job workers that are idle.
//                    The sweep is deterministic: results are bit-identical
//                    at any setting, so this is pure wall-clock on
//                    multi-core hosts.
//   --jobs, --probe-threads and --shards accept at most
//                    256 (util::kMaxParallelism); a larger value is a usage
//                    error (exit 64).
//   --no-identities  / --no-nullspace / --no-sizered / --no-linmin
// expr/bench only:
//   --trace          print the per-iteration trace (paper Fig. 6 style)
//   --verilog <file> write the synthesized hierarchy as structural Verilog
//   --blif <file>    write it as BLIF
//   --stats          print netlist statistics and mapped QoR
// batch only:
//   --all            every registered benchmark (heavy ones excluded)
//   --heavy          include the heavy (multiplier-class) benchmarks
//   --json <file>    write the machine-readable pd-batch-report-v1 report
//   --cache <n>      result-cache capacity (default 64, 0 disables)
//   --cache-file <f> persistent pd-cache-v6 store: warm-start from it and
//                    flush results back after the batch
//   --cache-readonly load the store but never write it back
//   --budget <n>     per-job decomposition iteration budget: lowers each
//                    job's maxIterations (default 256) to n; 0 keeps it
//   --no-verify      skip verification of the mapped netlists
//   --shards <n>     partition the batch across n crash-isolated worker
//                    processes (0 = in-process; 1 = one isolated worker);
//                    workers warm-start read-only from --cache-file and
//                    the coordinator flushes one merged store
//   --shard-wall-ms <n>  per-job wall budget in sharded mode: an
//                    overrunning worker is killed and the job retried
//                    once on another worker (0 = unlimited)
//   --shard-rss-mb <n>   per-worker address-space budget (0 = unlimited;
//                    so is a budget of 2^44 MiB or more)
//   --verify-threads 0|1  SAT-certify optimize→map on every verified job
//                    with one CDCL solver (0 = off, 1 = on; any other
//                    value is a usage error — --jobs and --probe-threads
//                    size the thread pool)
//   --verify-conflict-budget <n>  SAT verify conflict cap (0 = unlimited)
//   --verify-prop-budget <n>      SAT verify propagation cap
//   --shard-retries <n>  how many times a sharded job may be requeued
//                    after a worker crash before it is reported failed
//                    (default 1; 0 = fail on the first crash)
//   --shard-drain-ms <n>  worker shutdown-drain timeout and the grace an
//                    in-flight job gets after SIGINT/SIGTERM (default
//                    60000)
//   --shard-transport socket  accepted for compatibility: workers always
//                    exchange pd-shard-wire frames over a local socket,
//                    one socketpair each; `pipe` is a usage error
//                    (removed).
//   --shard-heartbeat-ms <n>  liveness deadline: a worker silent this
//                    long is declared dead, killed, and its job retried
//                    on another worker (default 10000; 0 disables)
//   --trace-out <f>  enable pd-trace span collection and write a Chrome
//                    trace-event JSON (load it at ui.perfetto.dev). In
//                    sharded mode the file is one merged fleet trace:
//                    coordinator plus one process track per worker.
//   --fault <site:spec>  arm a deterministic fault-injection site
//                    (repeatable; same grammar as PD_FAULTS — see
//                    src/util/fault/fault.hpp). Chaos testing only.
//
// Batch exit codes: 0 = every job ok and all artifacts written, 2 = the
// batch ran but some jobs failed (including jobs interrupted by
// SIGINT/SIGTERM), 1 = fatal engine error (store flush / artifact write
// failure, pd::Error), 64 = usage error.
//
// There is also a hidden `pd_cli worker` mode: the shard coordinator
// fork/execs it with its end of a socketpair on fd 3, where it speaks
// the frame protocol (see src/engine/shard/README.md). Its argv is
// the coordinator's engine configuration, encoded and decoded by
// src/engine/shard/worker.cpp. It is not for interactive use.
//
// The complete flag reference with examples lives in docs/cli.md.
//
// Expressions use the parser grammar: XOR is '^' or '+', AND is '*' or
// '&', '~' complements, identifiers are registered as inputs on first
// use. Example:
//   pd_cli expr --trace "maj=a*b ^ a*c ^ b*c"
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "anf/parser.hpp"
#include "anf/printer.hpp"
#include "circuits/registry.hpp"
#include "core/decomposer.hpp"
#include "engine/engine.hpp"
#include "engine/persist/serialize.hpp"
#include "engine/persist/store.hpp"
#include "engine/report_json.hpp"
#include "engine/shard/worker.hpp"
#include "io/blif.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "io/verilog.hpp"
#include "netlist/stats.hpp"
#include "synth/celllib.hpp"
#include "synth/hier_synth.hpp"
#include "synth/mapper.hpp"
#include "synth/opt.hpp"
#include "synth/sta.hpp"
#include "util/error.hpp"
#include "util/fault/fault.hpp"
#include "util/parse.hpp"
#include "util/pool.hpp"
#include "util/shutdown.hpp"

namespace {

int usage() {
    std::cerr <<
        "usage:\n"
        "  pd_cli expr  [options] \"<name>=<expr>\" ...\n"
        "  pd_cli bench [options] <benchmark>\n"
        "  pd_cli batch [options] [benchmark ...|--all]\n"
        "  pd_cli list\n"
        "  pd_cli cache-info [--key] [file]\n"
        "options: -k <n>  --jobs <n>  --merge-budget <n>  --probe-threads <n>\n"
        "         --trace  --stats\n"
        "         --verilog <file>  --blif <file>\n"
        "         --no-identities --no-nullspace --no-sizered --no-linmin\n"
        "batch:   --all  --heavy  --json <file>  --cache <n>  --budget <n>\n"
        "         --cache-file <file>  --cache-readonly  --no-verify\n"
        "         --shards <n>  --shard-wall-ms <n>  --shard-rss-mb <n>\n"
        "         --shard-retries <n>  --shard-drain-ms <n>\n"
        "         --shard-transport socket  --shard-heartbeat-ms <n>\n"
        "         --verify-threads 0|1  --verify-conflict-budget <n>\n"
        "         --verify-prop-budget <n>\n"
        "         --trace-out <file>\n"
        "chaos:   --fault <site:spec>  (or PD_FAULTS=\"site:spec,...\")\n"
        "worker:  (internal; spawned by the batch coordinator with its\n"
        "         engine configuration as argv)\n"
        "batch exit codes: 0 all ok, 2 some jobs failed, 1 fatal error,\n"
        "  64 usage error\n"
        "(full reference: docs/cli.md)\n";
    return 64;  // EX_USAGE — distinct from batch's partial-failure 2
}

void printTrace(const pd::core::Decomposition& d) {
    for (const auto& tr : d.trace) {
        std::cout << "iteration " << tr.level << ": group = {" << tr.group
                  << "}, pairs " << tr.rawPairCount << " -> "
                  << tr.mergedPairCount << " (linear -" << tr.linearRemoved
                  << ", size-red " << tr.sizeReductions << "), terms "
                  << tr.foldedTermsBefore << " -> " << tr.foldedTermsAfter
                  << ", merge-attempts " << tr.mergeAttempts
                  << (tr.budgetExhausted ? " (budget exhausted)" : "")
                  << "\n";
        for (const auto& s : tr.basis) std::cout << "  basis     " << s << "\n";
        for (const auto& s : tr.reductions)
            std::cout << "  reduction " << s << "\n";
        for (const auto& s : tr.identities)
            std::cout << "  identity  " << s << "\n";
    }
}

struct Options {
    pd::core::DecomposeOptions decompose;
    /// Every engine knob (--jobs, --cache*, --shard-*, --verify-*, ...)
    /// is parsed straight into the engine's own configuration.
    pd::engine::EngineOptions engine;
    bool trace = false;
    bool stats = false;
    std::string verilogPath;
    std::string blifPath;
    // batch mode
    bool all = false;
    bool heavy = false;
    bool verify = true;
    std::string jsonPath;
    std::string traceOutPath;
};

int runDecomposition(pd::anf::VarTable& vt,
                     const std::vector<pd::anf::Anf>& outputs,
                     const std::vector<std::string>& names,
                     const Options& opt) {
    pd::core::DecomposeOptions dopt = opt.decompose;
    if (opt.engine.probeThreads > 1)
        dopt.probePool =
            std::make_shared<pd::util::ThreadPool>(opt.engine.probeThreads);
    const auto d = pd::core::decompose(vt, outputs, names, dopt);

    std::cout << "decomposition: " << d.blocks.size() << " blocks over "
              << d.iterations << " iterations"
              << (d.converged ? "" : " (stopped before full convergence)")
              << "\n";
    if (opt.trace) printTrace(d);

    std::size_t leaders = 0;
    for (const auto& blk : d.blocks) leaders += blk.outputs.size();
    std::cout << "leader expressions materialized: " << leaders << "\n";

    const auto nl = pd::synth::synthDecomposition(d, vt);
    const auto optimized = pd::synth::optimize(nl);

    if (!opt.verilogPath.empty()) {
        std::ofstream os(opt.verilogPath);
        if (!os) {
            std::cerr << "cannot write " << opt.verilogPath << "\n";
            return 1;
        }
        pd::io::writeVerilog(os, optimized);
        std::cout << "wrote " << opt.verilogPath << "\n";
    }
    if (!opt.blifPath.empty()) {
        std::ofstream os(opt.blifPath);
        if (!os) {
            std::cerr << "cannot write " << opt.blifPath << "\n";
            return 1;
        }
        pd::io::writeBlif(os, optimized);
        std::cout << "wrote " << opt.blifPath << "\n";
    }
    if (opt.stats) {
        std::cout << pd::netlist::summary(pd::netlist::computeStats(optimized))
                  << "\n";
        const auto lib = pd::synth::CellLibrary::umc130();
        const auto mapped = pd::synth::techMap(optimized, lib);
        const auto q = pd::synth::qor(mapped, lib);
        std::cout << "mapped QoR: area " << q.area << " um^2, delay "
                  << q.delay << " ns, " << q.gates << " cells\n";
    }
    return 0;
}

int parseCommon(int argc, char** argv, int first, bool batchMode,
                Options& opt, std::vector<std::string>& positional) {
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        // Value parsers: print the reason and return false on a missing
        // or malformed value.
        const auto countArg = [&](auto& out) {
            std::string error = "option " + arg + " expects a value";
            if (++i < argc && pd::util::parseCount(arg, argv[i], out, error))
                return true;
            std::cerr << error << "\n";
            return false;
        };
        const auto parallelismArg = [&](std::size_t& out) {
            std::string error = "option " + arg + " expects a value";
            if (++i < argc &&
                pd::util::parseParallelism(arg, argv[i], out, error))
                return true;
            std::cerr << error << "\n";
            return false;
        };
        const auto msArg = [&](int& out) {
            std::string error = "option " + arg + " expects a value";
            if (++i < argc && pd::util::parseMs(arg, argv[i], out, error))
                return true;
            std::cerr << error << "\n";
            return false;
        };
        // Reject options that would otherwise be silently ignored.
        const bool batchOnly = arg == "--all" || arg == "--heavy" ||
                               arg == "--json" || arg == "--cache" ||
                               arg == "--budget" || arg == "--no-verify" ||
                               arg == "--cache-file" ||
                               arg == "--cache-readonly" ||
                               arg == "--shards" ||
                               arg == "--shard-wall-ms" ||
                               arg == "--shard-rss-mb" ||
                               arg == "--shard-retries" ||
                               arg == "--shard-drain-ms" ||
                               arg == "--shard-transport" ||
                               arg == "--shard-heartbeat-ms" ||
                               arg == "--verify-threads" ||
                               arg == "--verify-conflict-budget" ||
                               arg == "--verify-prop-budget" ||
                               arg == "--trace-out";
        const bool flowOnly = arg == "--trace" || arg == "--stats" ||
                              arg == "--verilog" || arg == "--blif";
        if (batchOnly && !batchMode) {
            std::cerr << "option " << arg << " is only valid in batch mode\n";
            return usage();
        }
        if (flowOnly && batchMode) {
            std::cerr << "option " << arg
                      << " is not available in batch mode\n";
            return usage();
        }
        if (arg == "-k") {
            if (!countArg(opt.decompose.k)) return usage();
            if (opt.decompose.k == 0) {
                std::cerr << "-k must be at least 1\n";
                return usage();
            }
        } else if (arg == "--jobs") {
            if (!parallelismArg(opt.engine.jobs)) return usage();
            if (!batchMode && opt.engine.jobs > 1)
                std::cerr << "note: --jobs only parallelizes batch mode; "
                             "expr/bench run a single job\n";
        } else if (arg == "--cache") {
            if (!countArg(opt.engine.cacheCapacity)) return usage();
        } else if (arg == "--cache-file") {
            if (++i >= argc) {
                std::cerr << "option --cache-file expects a path\n";
                return usage();
            }
            opt.engine.cacheFile = argv[i];
        } else if (arg == "--cache-readonly") {
            opt.engine.cacheReadonly = true;
        } else if (arg == "--budget") {
            // Caps the iteration count, which every job key covers.
            const std::size_t cap = pd::core::DecomposeOptions{}.maxIterations;
            std::size_t budget = 0;
            if (!countArg(budget)) return usage();
            opt.decompose.maxIterations = budget ? std::min(cap, budget) : cap;
        } else if (arg == "--shards") {
            if (!parallelismArg(opt.engine.shards)) return usage();
        } else if (arg == "--shard-wall-ms") {
            std::size_t ms = 0;
            if (!countArg(ms)) return usage();
            opt.engine.shardWallMsPerJob = static_cast<double>(ms);
        } else if (arg == "--shard-rss-mb") {
            if (!countArg(opt.engine.shardRssMb)) return usage();
        } else if (arg == "--shard-retries") {
            if (!countArg(opt.engine.shardRetries)) return usage();
        } else if (arg == "--shard-drain-ms") {
            if (!msArg(opt.engine.shardDrainMs)) return usage();
        } else if (arg == "--shard-transport") {
            // Only the socket transport remains; the flag stays so that
            // existing command lines keep working.
            const std::string kind = ++i < argc ? argv[i] : "";
            if (kind != "socket") {
                std::cerr << (kind == "pipe"
                                  ? "the pipe shard transport was removed; "
                                    "workers always talk over a local "
                                    "socket\n"
                                  : "option --shard-transport expects "
                                    "socket\n");
                return usage();
            }
        } else if (arg == "--shard-heartbeat-ms") {
            if (!msArg(opt.engine.shardHeartbeatMs)) return usage();
        } else if (arg == "--fault") {
            if (++i >= argc) {
                std::cerr << "option --fault expects <site>:<spec>\n";
                return usage();
            }
            std::string error;
            if (!pd::fault::armPlan(argv[i], &error)) {
                std::cerr << "--fault: " << error << "\n";
                return usage();
            }
        } else if (arg == "--verify-threads") {
            std::string error = "option --verify-threads expects a value";
            if (++i >= argc || !pd::util::parseVerifySwitch(
                                   arg, argv[i], opt.engine.verifyThreads,
                                   error)) {
                std::cerr << error << "\n";
                return usage();
            }
        } else if (arg == "--verify-conflict-budget") {
            if (!countArg(opt.engine.verifyConflictBudget)) return usage();
        } else if (arg == "--verify-prop-budget") {
            if (!countArg(opt.engine.verifyPropagationBudget)) return usage();
        } else if (arg == "--merge-budget") {
            if (!countArg(opt.decompose.mergeAttemptBudget)) return usage();
        } else if (arg == "--probe-threads") {
            if (!parallelismArg(opt.engine.probeThreads)) return usage();
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--stats") {
            opt.stats = true;
        } else if (arg == "--all") {
            opt.all = true;
        } else if (arg == "--heavy") {
            opt.heavy = true;
        } else if (arg == "--no-verify") {
            opt.verify = false;
        } else if (arg == "--verilog") {
            if (++i >= argc) return usage();
            opt.verilogPath = argv[i];
        } else if (arg == "--blif") {
            if (++i >= argc) return usage();
            opt.blifPath = argv[i];
        } else if (arg == "--json") {
            if (++i >= argc) return usage();
            opt.jsonPath = argv[i];
        } else if (arg == "--trace-out") {
            if (++i >= argc) return usage();
            opt.traceOutPath = argv[i];
        } else if (arg == "--no-identities") {
            opt.decompose.useIdentities = false;
        } else if (arg == "--no-nullspace") {
            opt.decompose.useNullspaceMerging = false;
        } else if (arg == "--no-sizered") {
            opt.decompose.useSizeReduction = false;
        } else if (arg == "--no-linmin") {
            opt.decompose.useLinearMinimize = false;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage();
        } else {
            positional.push_back(arg);
        }
    }
    return 0;
}

/// "cache store warm.pdc: loaded (13 entries)" and friends; silent when
/// no store is configured.
void printStoreBanner(const pd::engine::PersistInfo& info) {
    using pd::engine::persist::LoadStatus;
    if (info.file.empty()) return;
    std::cout << "cache store " << info.file << ": "
              << pd::engine::persist::loadStatusName(info.loadStatus);
    if (info.loadStatus == LoadStatus::kLoaded)
        std::cout << " (" << info.loadedEntries << " entries)";
    else if (info.loadStatus == LoadStatus::kSalvaged)
        std::cout << " (" << info.loadedEntries << " entries kept, "
                  << info.droppedEntries << " dropped from a damaged tail)";
    else if (info.loadStatus == LoadStatus::kDisabled)
        std::cout << " — " << info.loadDetail;
    else if (!info.loadDetail.empty())
        std::cout << " — " << info.loadDetail << "; cold start";
    std::cout << "\n";
}

int runBatchMode(const Options& opt, const std::vector<std::string>& names) {
    // First SIGINT/SIGTERM requests a cooperative drain (queued jobs are
    // reported interrupted, in-flight jobs get --shard-drain-ms of grace,
    // the merged store still flushes); a second one kills the process.
    pd::util::installShutdownSignalHandlers();

    std::vector<std::string> selected = names;
    if (opt.all) {
        for (auto& n : pd::circuits::benchmarkNames(opt.heavy))
            selected.push_back(n);
    }
    if (selected.empty()) {
        std::cerr << "batch: no benchmarks selected (name some or pass "
                     "--all)\n";
        return usage();
    }

    std::vector<pd::engine::JobSpec> specs;
    specs.reserve(selected.size());
    for (const auto& name : selected) {
        pd::engine::JobSpec spec;
        spec.benchmark = name;
        spec.options = opt.decompose;
        spec.verify = opt.verify;
        specs.push_back(std::move(spec));
    }

    if (!opt.traceOutPath.empty()) pd::obs::setEnabled(true);

    pd::engine::Engine engine(opt.engine);

    printStoreBanner(engine.persistInfo());

    const auto results = engine.runBatch(specs);

    bool anyJobFailed = false;
    for (const auto& r : results) {
        if (!r.ok) {
            anyJobFailed = true;
            std::cout << r.name << ": FAILED: " << r.error << "\n";
            continue;
        }
        std::cout << r.name << ": " << r.blocks << " blocks / "
                  << r.iterations << " iters, area " << r.qor.area
                  << " um^2, delay " << r.qor.delay << " ns, " << r.qor.gates
                  << " cells, verify "
                  << pd::engine::verifyStatusName(r.verification) << ", "
                  << r.wallMs << " ms";
        if (r.budgetExhausted) std::cout << " (budget exhausted)";
        if (r.cacheHit)
            std::cout << " (" << pd::engine::cacheSourceName(r.cacheSource)
                      << " hit)";
        if (r.shardFallback) std::cout << " (in-process fallback)";
        std::cout << "\n";
    }
    const auto cs = engine.cacheStats();
    std::cout << "cache: " << cs.hits << " hits, " << cs.misses
              << " misses, " << cs.evictions << " evictions, " << cs.restored
              << " restored, " << cs.entries << " resident\n";

    const auto& res = engine.resilience();
    if (res.workerCrashes || res.workerRespawns || res.spawnFailures ||
        res.retries || res.fallbackJobs || res.interruptedJobs ||
        res.heartbeatMisses || res.deadlineKills || res.reconnects ||
        res.wirePoisons) {
        std::cout << "resilience: " << res.workerCrashes << " crashes, "
                  << res.workerRespawns << " respawns, " << res.spawnFailures
                  << " spawn failures, " << res.retries << " retries, "
                  << res.fallbackJobs << " fallback jobs, "
                  << res.interruptedJobs << " interrupted\n";
        if (res.heartbeatMisses || res.deadlineKills || res.reconnects ||
            res.wirePoisons)
            std::cout << "liveness: " << res.heartbeatMisses
                      << " heartbeat misses, " << res.deadlineKills
                      << " deadline kills, " << res.reconnects
                      << " reconnects, " << res.wirePoisons
                      << " wire poisons\n";
    }

    if (!opt.jsonPath.empty()) {
        std::ofstream os(opt.jsonPath);
        if (!os) {
            std::cerr << "cannot write " << opt.jsonPath << "\n";
            return 1;
        }
        pd::engine::writeBatchReport(os, opt.engine, results, cs,
                                     &engine.persistInfo(),
                                     &engine.resilience());
        std::cout << "wrote " << opt.jsonPath << "\n";
    }

    if (!opt.traceOutPath.empty()) {
        std::ofstream os(opt.traceOutPath);
        if (!os) {
            std::cerr << "cannot write " << opt.traceOutPath << "\n";
            return 1;
        }
        const auto spans = pd::obs::drainSpans();
        // Name every expected track up front so a worker that shipped no
        // spans still appears (empty) rather than as a bare pid number.
        std::map<std::int32_t, std::string> tracks;
        tracks[0] = opt.engine.shards > 0 ? "pd coordinator" : "pd batch";
        for (std::size_t s = 0; s < opt.engine.shards; ++s)
            tracks[static_cast<std::int32_t>(s) + 1] =
                "pd worker " + std::to_string(s);
        pd::obs::writeChromeTrace(os, spans, tracks);
        std::cout << "wrote " << opt.traceOutPath << " (" << spans.size()
                  << " spans)\n";
    }

    bool fatal = false;
    if (!opt.engine.cacheFile.empty() && !opt.engine.cacheReadonly) {
        std::size_t saved = 0;
        std::string error;
        if (engine.flushCache(&saved, &error)) {
            std::cout << "flushed " << saved << " entries to "
                      << opt.engine.cacheFile << "\n";
        } else {
            // A missing warm artifact is a real failure for the caller
            // (CI caches it, the next run depends on it) — fail loudly
            // here, not one run later.
            std::cerr << "cache flush failed: " << error << "\n";
            fatal = true;
        }
    }
    // Exit contract (asserted by tests and scripts/check_chaos.py):
    // 1 = the engine itself failed, 2 = the batch ran but some jobs
    // (possibly interrupted ones) did not, 0 = everything succeeded.
    if (fatal) return 1;
    return anyJobFailed ? 2 : 0;
}

int runCacheInfo(const std::vector<std::string>& args) {
    bool keyOnly = false;
    std::string file;
    for (const auto& a : args) {
        if (a == "--key") {
            keyOnly = true;
        } else if (!a.empty() && a[0] == '-') {
            std::cerr << "unknown option '" << a << "'\n";
            return usage();
        } else if (!file.empty()) {
            std::cerr << "cache-info takes at most one store file\n";
            return usage();
        } else {
            file = a;
        }
    }
    if (keyOnly && !file.empty()) {
        std::cerr << "--key prints the CI cache key for *this build*; it "
                     "cannot be combined with a store file\n";
        return usage();
    }
    const pd::engine::EngineOptions defaults;
    const std::string fingerprint = pd::engine::persistFingerprint(defaults);
    if (file.empty()) {
        if (keyOnly) {
            // Single token suitable for a CI cache key: format version +
            // default-options fingerprint digest.
            std::cout << pd::engine::persist::kFormatName << '-'
                      << pd::util::digestOf(fingerprint).hex() << "\n";
            return 0;
        }
        std::cout << "format: " << pd::engine::persist::kFormatName
                  << " (version "
                  << pd::engine::persist::kFormatVersion << ")\n"
                  << "fingerprint: " << fingerprint << "\n"
                  << "fingerprint-digest: "
                  << pd::util::digestOf(fingerprint).hex() << "\n";
        return 0;
    }
    const auto loaded = pd::engine::persist::CacheStore::load(file,
                                                             fingerprint);
    std::cout << file << ": "
              << pd::engine::persist::loadStatusName(loaded.status);
    if (loaded.ok())
        std::cout << ", " << loaded.entries.size() << " entries";
    else if (loaded.usable())
        std::cout << ", " << loaded.entries.size() << " entries kept ("
                  << loaded.detail << ")";
    else if (!loaded.detail.empty())
        std::cout << " — " << loaded.detail;
    std::cout << "\n";
    if (loaded.usable() && !loaded.entries.empty()) {
        // Per-entry payload sizes, log2-bucketed (keys are fixed 16-byte
        // digests). The pd-cache-v6 format deliberately stores no
        // timestamps (its byte-identical rewrite guarantee forbids them),
        // so entry *age* is only observable in a live engine — the batch
        // report's "cache.entry.lru_age" histogram covers that side.
        pd::obs::Histogram payloadBytes;
        std::string payload;
        for (const auto& e : loaded.entries) {
            payload.clear();
            pd::engine::persist::serializeJobResult(*e.result, payload);
            payloadBytes.observe(payload.size());
        }
        const auto print = [](const char* label,
                              const pd::obs::Histogram& h) {
            std::cout << label << ": count " << h.count() << ", sum "
                      << h.sum() << " bytes\n";
            for (std::size_t i = 0; i < pd::obs::Histogram::kBuckets; ++i) {
                const std::uint64_t n = h.bucketCount(i);
                if (n == 0) continue;
                std::cout << "  le ";
                if (i + 1 == pd::obs::Histogram::kBuckets)
                    std::cout << "+Inf";
                else
                    std::cout << pd::obs::Histogram::bucketBound(i);
                std::cout << ": " << n << "\n";
            }
        };
        print("payload bytes", payloadBytes);
    }
    // A salvaged store is usable (the engine warm-starts from its intact
    // prefix), so it exits 0; corrupt/rejected stores stay non-zero.
    return loaded.usable() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string mode = argv[1];
    try {
        if (mode == "list") {
            for (const auto& e : pd::circuits::benchmarkRegistry()) {
                const auto bench = e.make();
                std::cout << e.name
                          << (bench.anf ? "" : "  (no tractable RM form)")
                          << (e.heavy ? "  (heavy: excluded from --all "
                                        "unless --heavy)"
                                      : "")
                          << "\n";
            }
            return 0;
        }

        if (mode == "cache-info")
            return runCacheInfo(
                std::vector<std::string>(argv + 2, argv + argc));

        if (mode == "worker")
            return pd::engine::shard::workerMain(
                std::vector<std::string>(argv + 2, argv + argc));

        Options opt;
        std::vector<std::string> positional;
        if (const int rc = parseCommon(argc, argv, 2, mode == "batch", opt,
                                       positional))
            return rc;

        if (mode == "batch") return runBatchMode(opt, positional);

        if (mode == "expr") {
            if (positional.empty()) return usage();
            pd::anf::VarTable vt;
            std::vector<pd::anf::Anf> outputs;
            std::vector<std::string> names;
            for (const auto& spec : positional) {
                const auto eq = spec.find('=');
                if (eq == std::string::npos) {
                    std::cerr << "expected <name>=<expr>, got '" << spec
                              << "'\n";
                    return 64;
                }
                names.push_back(spec.substr(0, eq));
                outputs.push_back(pd::anf::parse(spec.substr(eq + 1), vt));
            }
            return runDecomposition(vt, outputs, names, opt);
        }

        if (mode == "bench") {
            if (positional.size() != 1) return usage();
            const auto bench = pd::circuits::makeNamedBenchmark(positional[0]);
            if (!bench) {
                std::cerr << "unknown benchmark '" << positional[0]
                          << "' (try: pd_cli list)\n";
                return 64;
            }
            if (!bench->anf) {
                std::cerr << "benchmark has no tractable Reed-Muller form\n";
                return 1;
            }
            pd::anf::VarTable vt;
            const auto outputs = bench->anf(vt);
            return runDecomposition(vt, outputs, bench->outputNames, opt);
        }

        return usage();
    } catch (const pd::Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
