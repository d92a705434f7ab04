#include "engine/report_json.hpp"

#include "engine/persist/store.hpp"
#include "engine/shard/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/build_info.hpp"
#include "util/fault/fault.hpp"
#include "util/json_writer.hpp"

namespace pd::engine {

std::string_view verifyStatusName(VerifyStatus s) {
    switch (s) {
        case VerifyStatus::kSkipped: return "skipped";
        case VerifyStatus::kSimulated: return "simulated";
        case VerifyStatus::kAlgebraic: return "algebraic";
        case VerifyStatus::kSat: return "sat";
        case VerifyStatus::kFailed: return "failed";
    }
    return "unknown";
}

std::string_view cacheSourceName(CacheSource s) {
    switch (s) {
        case CacheSource::kComputed: return "computed";
        case CacheSource::kMemory: return "memory";
        case CacheSource::kDisk: return "disk";
    }
    return "unknown";
}

void writeBatchReport(std::ostream& os, const EngineOptions& opt,
                      std::span<const JobResult> results,
                      const ResultCache::Stats& cache,
                      const PersistInfo* persist,
                      const BatchResilience* resilience) {
    util::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "pd-batch-report-v1");

    w.key("engine").beginObject();
    w.field("jobs", opt.jobs);
    w.field("cache_capacity", opt.cacheCapacity);
    w.field("probe_threads", opt.probeThreads);
    w.field("verify_threads", std::uint64_t{opt.verifyThreads});
    w.field("verify_conflict_budget", opt.verifyConflictBudget);
    w.field("verify_prop_budget", opt.verifyPropagationBudget);
    w.field("shards", opt.shards);
    {
        // Provenance identity: which exact source + toolchain produced
        // this document, and which schema versions its artifacts speak.
        const util::BuildInfo& b = util::buildInfo();
        w.key("build").beginObject();
        w.field("git_hash", b.gitHash);
        w.field("git_dirty", b.dirty);
        w.field("compiler", b.compiler);
        w.field("build_type", b.buildType);
        w.key("schemas").beginObject();
        w.field("report", "pd-batch-report-v1");
        w.field("cache_store", persist::kFormatName);
        w.field("shard_wire",
                static_cast<std::uint64_t>(shard::kProtocolVersion));
        w.endObject();
        w.endObject();
    }
    w.endObject();

    w.key("cache").beginObject();
    w.field("hits", cache.hits);
    w.field("misses", cache.misses);
    w.field("inserts", cache.inserts);
    w.field("evictions", cache.evictions);
    w.field("restored", cache.restored);
    w.field("entries", cache.entries);
    w.endObject();

    w.key("jobs").beginArray();
    for (const auto& r : results) {
        w.beginObject();
        w.field("name", r.name);
        w.field("ok", r.ok);
        w.field("error", r.error);

        w.key("decomposition").beginObject();
        w.field("blocks", r.blocks);
        w.field("iterations", r.iterations);
        w.field("leaders", r.leaders);
        w.field("converged", r.converged);
        w.field("budget_exhausted", r.budgetExhausted);
        w.endObject();

        w.key("qor").beginObject();
        w.field("area_um2", r.qor.area);
        w.field("delay_ns", r.qor.delay);
        w.field("cells", r.qor.gates);
        w.field("levels", r.levels);
        w.field("interconnect", r.interconnect);
        w.endObject();

        w.key("verification").beginObject();
        w.field("status", verifyStatusName(r.verification));
        w.field("vectors", r.vectorsTested);
        w.field("exhaustive", r.exhaustive);
        if (r.satVerify.ran) {
            // Solver stats are a pure function of the job and the verify
            // budgets, so sharded and multi-threaded runs stay
            // byte-comparable.
            w.key("sat").beginObject();
            w.field("conflicts", r.satVerify.conflicts);
            w.field("propagations", r.satVerify.propagations);
            w.field("restarts", r.satVerify.restarts);
            w.field("learned", r.satVerify.learned);
            w.field("budget_exhausted", r.satVerify.budgetExhausted);
            w.endObject();
        }
        w.endObject();

        w.key("timing").beginObject();
        w.field("wall_ms", r.wallMs);
        w.field("cpu_ms", r.cpuMs);
        w.key("phases").beginObject();
        w.field("resolve_ms", r.phases.resolveMs);
        w.field("digest_ms", r.phases.digestMs);
        w.field("cache_lookup_ms", r.phases.cacheLookupMs);
        w.field("decompose_ms", r.phases.decomposeMs);
        w.field("probe_sweep_ms", r.phases.probeSweepMs);
        w.field("synth_ms", r.phases.synthMs);
        w.field("optimize_ms", r.phases.optimizeMs);
        w.field("map_ms", r.phases.mapMs);
        w.field("sta_ms", r.phases.staMs);
        w.field("verify_ms", r.phases.verifyMs);
        w.endObject();
        w.endObject();

        w.key("cache").beginObject();
        w.field("hit", r.cacheHit);
        w.field("key", r.cacheKey);
        w.field("source", cacheSourceName(r.cacheSource));
        w.endObject();

        // Provenance, not semantics: -1 = ran in the requesting process.
        w.field("shard", r.shard);
        w.field("shard_fallback", r.shardFallback);

        w.endObject();
    }
    w.endArray();

    if (persist && !persist->file.empty()) {
        // The result store's warm-start outcome; omitted when it is off.
        w.key("persist").beginObject();
        w.field("file", persist->file);
        w.field("readonly", persist->readonly);
        w.field("load_status", persist::loadStatusName(persist->loadStatus));
        w.field("load_detail", persist->loadDetail);
        w.field("loaded_entries", persist->loadedEntries);
        w.field("dropped_entries", persist->droppedEntries);
        w.endObject();
    }

    {
        // Degraded-mode accounting: always present (zeros on a healthy
        // run) so chaos tooling never has to branch on its absence.
        const BatchResilience zero;
        const BatchResilience& r = resilience ? *resilience : zero;
        w.key("resilience").beginObject();
        w.field("worker_crashes", r.workerCrashes);
        w.field("worker_respawns", r.workerRespawns);
        w.field("spawn_failures", r.spawnFailures);
        w.field("retries", r.retries);
        w.field("fallback_jobs", r.fallbackJobs);
        w.field("interrupted_jobs", r.interruptedJobs);
        w.field("heartbeat_misses", r.heartbeatMisses);
        w.field("deadline_kills", r.deadlineKills);
        w.field("reconnects", r.reconnects);
        w.field("wire_poisons", r.wirePoisons);
        w.field("salvaged_entries",
                persist && persist->loadStatus == persist::LoadStatus::kSalvaged
                    ? persist->loadedEntries
                    : 0);
        w.field("salvage_dropped", persist ? persist->droppedEntries : 0);
        w.key("armed_faults").beginArray();
        for (const auto& plan : fault::armedPlans()) w.value(plan);
        w.endArray();
        w.endObject();
    }

    {
        // The pd-trace registry, dumped whole: in a sharded run the
        // coordinator has already folded worker deltas in, so these are
        // fleet-wide totals (gauges additionally appear per worker as
        // "<name>.w<id>").
        const obs::MetricsSnapshot snap = obs::snapshotMetrics();
        w.key("observability").beginObject();
        w.field("spans_dropped", obs::droppedSpans());
        w.key("counters").beginObject();
        for (const auto& [name, value] : snap.counters) w.field(name, value);
        w.endObject();
        w.key("gauges").beginObject();
        for (const auto& [name, value] : snap.gauges) w.field(name, value);
        w.endObject();
        w.key("histograms").beginObject();
        for (const auto& h : snap.histograms) {
            w.key(h.name).beginObject();
            w.field("count", h.count);
            w.field("sum", h.sum);
            w.key("buckets").beginArray();
            for (const auto b : h.buckets) w.value(b);
            w.endArray();
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    w.endObject();
}

}  // namespace pd::engine
