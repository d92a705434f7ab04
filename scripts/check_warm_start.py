#!/usr/bin/env python3
"""CI gate for the persistent-cache warm-start round trip.

Usage: check_warm_start.py cold_report.json warm_report.json

Asserts, against two pd-batch-report-v1 documents produced by running the
same `pd_cli batch --cache-file ...` command twice:

  1. every job in the warm report was served from the cache
     (cache.source is "disk" or "memory" — nothing recomputed);
  2. the warm run actually loaded the store (persist.load_status);
  3. the warm run expanded no spec (its engine.spec.expansions counter is
     0), and every warm job's cache.key equals the cold job's;
  4. the store the warm run loaded (persist.file) is under 1 MB;
  5. the semantic payload of every job — everything except timings and
     cache provenance — is byte-identical between the two reports;
  6. no job of either run re-ran its compute path at the wide monomial
     width (engine.width.wide_reruns is 0): every default job fits in
     128 variable ids, so a rerun here means each job pays for two passes.

Exits non-zero with a diagnostic on the first violation.
"""
import json
import os
import sys

MAX_STORE_BYTES = 1 << 20


def semantic_jobs(report):
    """Jobs with the volatile (timing / cache-provenance) fields removed."""
    jobs = []
    for job in report["jobs"]:
        job = dict(job)
        job.pop("timing", None)
        job.pop("cache", None)
        jobs.append(job)
    return jobs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    cold_path, warm_path = sys.argv[1], sys.argv[2]
    with open(cold_path) as f:
        cold = json.load(f)
    with open(warm_path) as f:
        warm = json.load(f)

    for report, path in ((cold, cold_path), (warm, warm_path)):
        if report.get("schema") != "pd-batch-report-v1":
            sys.exit(f"{path}: unexpected schema {report.get('schema')!r}")
        for job in report["jobs"]:
            if not job["ok"]:
                sys.exit(f"{path}: job {job['name']!r} failed: "
                         f"{job['error']!r}")

    persist = warm.get("persist")
    if not persist:
        sys.exit(f"{warm_path}: no persist section — was --cache-file set?")
    if persist["load_status"] != "loaded":
        sys.exit(f"{warm_path}: store not loaded on the second run: "
                 f"{persist['load_status']} ({persist['load_detail']!r})")
    if persist["loaded_entries"] == 0:
        sys.exit(f"{warm_path}: store loaded but contained 0 entries")

    bad = [j["name"] for j in warm["jobs"]
           if j["cache"]["source"] not in ("disk", "memory")]
    if bad:
        sys.exit(f"{warm_path}: jobs recomputed instead of served from the "
                 f"cache: {bad}")

    for report, path in ((cold, cold_path), (warm, warm_path)):
        reruns = report["observability"]["counters"].get(
            "engine.width.wide_reruns")
        if reruns != 0:
            sys.exit(f"{path}: engine.width.wide_reruns is {reruns!r}, "
                     f"expected 0 — a job outgrew the 128-bit monomial "
                     f"width and ran its compute path twice")

    counters = warm["observability"]["counters"]
    expansions = counters.get("engine.spec.expansions")
    if expansions != 0:
        sys.exit(f"{warm_path}: engine.spec.expansions is {expansions!r}, "
                 f"expected 0 — a warm job rebuilt its Reed-Muller form")
    if len(cold["jobs"]) != len(warm["jobs"]):
        sys.exit("job lists differ in length")
    for c, w in zip(cold["jobs"], warm["jobs"]):
        if c["cache"]["key"] != w["cache"]["key"]:
            sys.exit(f"{warm_path}: job {w['name']!r} has cache.key "
                     f"{w['cache']['key']}, the cold run's was "
                     f"{c['cache']['key']}")
    store_bytes = os.path.getsize(persist["file"])
    if store_bytes >= MAX_STORE_BYTES:
        sys.exit(f"{persist['file']}: store is {store_bytes} bytes, expected "
                 f"< {MAX_STORE_BYTES}")

    cold_sem = json.dumps(semantic_jobs(cold), sort_keys=True)
    warm_sem = json.dumps(semantic_jobs(warm), sort_keys=True)
    if cold_sem != warm_sem:
        for a, b in zip(semantic_jobs(cold), semantic_jobs(warm)):
            if a != b:
                sys.exit(f"result drift on job {a['name']!r}:\n"
                         f"  cold: {json.dumps(a, sort_keys=True)}\n"
                         f"  warm: {json.dumps(b, sort_keys=True)}")
        sys.exit("result drift: job lists differ in length or order")

    n = len(warm["jobs"])
    sources = [j["cache"]["source"] for j in warm["jobs"]]
    print(f"warm-start gate OK: {n} jobs, all served from cache "
          f"({sources.count('disk')} disk, {sources.count('memory')} "
          f"memory) with no spec expansion, store {store_bytes} bytes, "
          f"results byte-identical, no wide rerun")


if __name__ == "__main__":
    main()
