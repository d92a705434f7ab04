// Engine throughput bench: jobs/sec on the named-benchmark batch at
// 1/2/4/8 worker threads, plus the cache-hit speedup of re-running an
// identical batch against a warm engine. Results are written as
// BENCH_engine.json ("pd-bench-engine-v1" schema, JsonWriter) so future
// changes have a perf trajectory to compare against:
//   {
//     "schema": "pd-bench-engine-v1",
//     "batch": [names...],
//     "configs": [{"threads": u, "cold_ms": f, "warm_ms": f,
//                  "jobs_per_sec_cold": f, "jobs_per_sec_warm": f,
//                  "warm_cache_hits": u, "speedup_vs_1_thread": f,
//                  "warm_speedup": f}, ...],
//     "summary": {"hardware_concurrency": u, "speedup_4_threads": f,
//                 "cache_speedup": f, "pass_parallel": b|"skipped",
//                 "pass_cache": b}
//   }
// Timings are machine-dependent; the pass_* flags encode the shape the
// bench is expected to keep (>1.5x at 4 threads, >=10x on a warm rerun).
// The parallel criterion is reported as "skipped" on hosts without at
// least 2 hardware threads — a thread pool cannot beat physics.
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "circuits/registry.hpp"
#include "engine/engine.hpp"
#include "util/json_writer.hpp"

namespace {

double msSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct ConfigResult {
    std::size_t threads = 0;
    double coldMs = 0.0;
    double warmMs = 0.0;
    std::uint64_t warmHits = 0;
};

}  // namespace

int main(int argc, char** argv) {
    const std::string jsonPath = argc > 1 ? argv[1] : "BENCH_engine.json";

    std::vector<pd::engine::JobSpec> specs;
    for (const auto& name : pd::circuits::benchmarkNames(false)) {
        pd::engine::JobSpec spec;
        spec.benchmark = name;
        specs.push_back(std::move(spec));
    }
    std::cout << "batch: " << specs.size() << " named benchmarks\n";

    std::vector<ConfigResult> configs;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        pd::engine::EngineOptions opt;
        opt.jobs = threads;
        opt.cacheCapacity = 2 * specs.size();
        // Keep verification meaningful but cheap: the bench measures the
        // engine, not the simulator.
        opt.equiv.randomBatches = 64;
        pd::engine::Engine engine(opt);

        ConfigResult cfg;
        cfg.threads = threads;

        auto start = std::chrono::steady_clock::now();
        const auto cold = engine.runBatch(specs);
        cfg.coldMs = msSince(start);
        for (const auto& r : cold) {
            if (!r.ok) {
                std::cerr << r.name << " failed: " << r.error << "\n";
                return 1;
            }
        }

        start = std::chrono::steady_clock::now();
        const auto warm = engine.runBatch(specs);
        cfg.warmMs = msSince(start);
        for (const auto& r : warm) cfg.warmHits += r.cacheHit ? 1 : 0;

        std::cout << threads << " thread(s): cold " << cfg.coldMs
                  << " ms (" << 1e3 * static_cast<double>(specs.size()) /
                                    cfg.coldMs
                  << " jobs/s), warm rerun " << cfg.warmMs << " ms ("
                  << cfg.warmHits << "/" << specs.size() << " cache hits)\n";
        configs.push_back(cfg);
    }

    // Core count detected at runtime: the parallel criterion is only
    // meaningful with at least two hardware threads, and the JSON
    // records both the count and the concrete skip reason so multi-core
    // hosts pick up the scaling trajectory automatically while 1-CPU
    // containers stay explainable.
    const unsigned hw = std::thread::hardware_concurrency();
    const double speedup4 = configs[0].coldMs / configs[2].coldMs;
    const double cacheSpeedup = configs[0].coldMs / configs[0].warmMs;
    const bool parallelMeasurable = hw >= 2;
    const std::string skipReason =
        parallelMeasurable
            ? ""
            : "host exposes " + std::to_string(hw) +
                  " hardware thread(s); a thread pool cannot beat physics";
    const bool passParallel = speedup4 > 1.5;
    const bool passCache = cacheSpeedup >= 10.0;
    std::cout << "4-thread speedup: " << speedup4;
    if (!parallelMeasurable)
        std::cout << " (SKIPPED: " << skipReason << ")";
    else
        std::cout << (passParallel ? " (PASS >1.5x)"
                                   : " (FAIL: wanted >1.5x)");
    std::cout << "\ncache-hit rerun speedup: " << cacheSpeedup
              << (passCache ? " (PASS >=10x)" : " (FAIL: wanted >=10x)")
              << "\n";

    std::ofstream os(jsonPath);
    if (!os) {
        std::cerr << "cannot write " << jsonPath << "\n";
        return 1;
    }
    pd::util::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "pd-bench-engine-v1");
    w.key("batch").beginArray();
    for (const auto& s : specs) w.value(s.benchmark);
    w.endArray();
    w.key("configs").beginArray();
    for (const auto& cfg : configs) {
        const double jobs = static_cast<double>(specs.size());
        w.beginObject();
        w.field("threads", cfg.threads);
        w.field("cold_ms", cfg.coldMs);
        w.field("warm_ms", cfg.warmMs);
        w.field("jobs_per_sec_cold", 1e3 * jobs / cfg.coldMs);
        w.field("jobs_per_sec_warm", 1e3 * jobs / cfg.warmMs);
        w.field("warm_cache_hits", cfg.warmHits);
        w.field("speedup_vs_1_thread", configs[0].coldMs / cfg.coldMs);
        w.field("warm_speedup", cfg.coldMs / cfg.warmMs);
        w.endObject();
    }
    w.endArray();
    w.key("summary").beginObject();
    // "cores" duplicates "hardware_concurrency" deliberately: the
    // latter has been the trajectory key since PR 1, the former is the
    // stable name downstream tooling keys on; both always come from the
    // same runtime detection.
    w.field("hardware_concurrency", static_cast<std::uint64_t>(hw));
    w.field("cores", static_cast<std::uint64_t>(hw));
    w.field("speedup_4_threads", speedup4);
    w.field("cache_speedup", cacheSpeedup);
    if (parallelMeasurable)
        w.field("pass_parallel", passParallel);
    else
        w.field("pass_parallel", "skipped");
    if (!skipReason.empty()) w.field("skip_reason", skipReason);
    w.field("pass_cache", passCache);
    w.endObject();
    w.endObject();
    std::cout << "wrote " << jsonPath << "\n";

    return (passParallel || !parallelMeasurable) && passCache ? 0 : 1;
}
