// Machine-readable batch reports.
//
// The batch report is written with util::JsonWriter, the minimal
// streaming JSON emitter shared by the benchmark trajectory files and
// the obs trace/metrics exporters, so every artifact in the repo is
// parseable by the same tooling.
//
// Batch report schema ("pd-batch-report-v1"):
//   {
//     "schema": "pd-batch-report-v1",
//     "engine": {"jobs": u, "cache_capacity": u, "conflict_budget": u,
//                "probe_threads": u,
//                "verify_threads": u,             // 0 → SAT verify off
//                "verify_conflict_budget": u, "verify_prop_budget": u,
//                "shards": u,                     // 0 → in-process batch
//                "build": {"git_hash": s, "git_dirty": s, "compiler": s,
//                          "build_type": s,       // provenance identity
//                          "schemas": {"report": s, "cache_store": s,
//                                      "shard_wire": u}}},
//     "cache":  {"hits": u, "misses": u, "inserts": u, "evictions": u,
//                "entries": u},
//     "jobs": [
//       {
//         "name": s, "ok": b, "error": s,          // error "" when ok
//         "decomposition": {"blocks": u, "iterations": u, "leaders": u,
//                           "converged": b, "budget_exhausted": b},
//         "qor": {"area_um2": f, "delay_ns": f, "cells": u,
//                 "levels": u, "interconnect": u},
//         "verification": {"status": "skipped"|"simulated"|"algebraic"|
//                          "sat"|"failed", "vectors": u, "exhaustive": b,
//                          "sat": {                // only when SAT verify ran
//                            "conflicts": u, "propagations": u,
//                            "restarts": u, "learned": u,
//                            "winner": i,          // portfolio searcher index
//                            "budget_exhausted": b}},
//                                                  // on a cache hit: the
//                                                  // stats of the solve
//                                                  // that filled the entry
//         "timing": {"wall_ms": f, "cpu_ms": f,    // only non-deterministic
//                    "phases": {"decompose_ms": f, // fields in the report;
//                     "synth_ms": f, "optimize_ms": f,  // phases are zero
//                     "map_ms": f, "sta_ms": f,    // on cache hits
//                     "verify_ms": f}},
//         "cache": {"hit": b, "key": s,            // key: 16-hex digest
//                   "source": "computed"|"memory"|"disk"},
//         "shard": i,                              // worker that ran the
//                                                  // job; -1 = in-process
//         "shard_fallback": b                      // ran in-process after
//       }, ...                                     // the pool collapsed
//     ],
//     "persist": {                                 // only with a cache file
//       "file": s, "readonly": b,
//       "load_status": "loaded"|"no-file"|"bad-magic"|"bad-version"|
//                      "bad-fingerprint"|"corrupt"|"salvaged"|
//                      "disabled",         // caching off: store not read
//       "load_detail": s, "loaded_entries": u,
//       "dropped_entries": u                       // lost to a salvaged tail
//     },
//     "resilience": {                              // always present; zeros
//       "worker_crashes": u, "worker_respawns": u, // on a healthy run
//       "spawn_failures": u,                       // never connected
//       "retries": u, "fallback_jobs": u, "interrupted_jobs": u,
//       "salvaged_entries": u, "salvage_dropped": u,
//       "armed_faults": [s, ...]                   // "site:spec" plans
//     },
//     "observability": {                           // pd-trace registry dump
//       "spans_dropped": u,                        // ring-wrap losses
//       "counters":   {"<name>": u, ...},
//       "gauges":     {"<name>": i, ...},
//       "histograms": {"<name>": {"count": u, "sum": u,
//                                 "buckets": [u × 33]}, ...}  // log2, le 2^i
//     }
//   }
//
// The top-level "cache" object also carries "restored": entries adopted
// from a persistent store at warm start.
#pragma once

#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/cache.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"

namespace pd::engine {

[[nodiscard]] std::string_view verifyStatusName(VerifyStatus s);
[[nodiscard]] std::string_view cacheSourceName(CacheSource s);

/// Renders the "pd-batch-report-v1" document for one batch run.
/// `persist` (optional) records the persistent-store outcome;
/// `resilience` (optional) the degraded-mode accounting — the
/// resilience block is emitted either way (zeros when absent).
void writeBatchReport(std::ostream& os, const EngineOptions& opt,
                      std::span<const JobResult> results,
                      const ResultCache::Stats& cache,
                      const PersistInfo* persist = nullptr,
                      const BatchResilience* resilience = nullptr);

}  // namespace pd::engine
