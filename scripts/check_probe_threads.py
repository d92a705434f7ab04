#!/usr/bin/env python3
"""CI gate: the probe sweep and the SAT verify do not depend on the
thread counts.

Usage: check_probe_threads.py baseline_report.json other_report.json [more...]

Each argument is a pd-batch-report-v1 document from the same
`pd_cli batch ...` selection run at a different --probe-threads or
--jobs setting (with --jobs > 1 a sweep's helper lanes are whichever job
workers are idle, so the schedule differs from run to run), all with the
same --verify-threads and verify budgets.
Asserts, against the first report, that

  1. every job succeeded in every run;
  2. every job is identical except for its timing object, so the
     verification.sat block (solver statistics) is compared too;
  3. every probe.* and ring.member.* counter in the report's
     observability block is equal. These count candidates, probes,
     prunes, membership queries, support rejections and solves, so they
     show when pruning or probing depends on the schedule. Exempt, by
     name: probe.speculative_discards, the lane probes the sweep's
     committer drops, which depends on the schedule by design.

Exits non-zero with a diagnostic on the first violation.
"""
import json
import sys

COUNTER_PREFIXES = ("probe.", "ring.member.")
SCHEDULE_DEPENDENT = ("probe.speculative_discards",)


def jobs_without_timing(report):
    return [{k: v for k, v in job.items() if k != "timing"}
            for job in report["jobs"]]


def sweep_counters(report):
    counters = report.get("observability", {}).get("counters", {})
    return {k: v for k, v in counters.items()
            if k.startswith(COUNTER_PREFIXES) and k not in SCHEDULE_DEPENDENT}


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    reports = [(path, json.load(open(path))) for path in sys.argv[1:]]
    for path, report in reports:
        failed = [j["name"] for j in report["jobs"] if not j["ok"]]
        if failed:
            sys.exit(f"{path}: failed jobs {failed}")

    base_path, base = reports[0]
    base_jobs = jobs_without_timing(base)
    base_counters = sweep_counters(base)
    if "probe.probed" not in base_counters:
        sys.exit(f"{base_path}: no probe.probed counter in the report")
    for path, report in reports[1:]:
        for a, b in zip(base_jobs, jobs_without_timing(report)):
            if a != b:
                sys.exit(f"{path}: job {a['name']!r} differs from "
                         f"{base_path}:\n  {json.dumps(a, sort_keys=True)}\n"
                         f"  {json.dumps(b, sort_keys=True)}")
        if len(base_jobs) != len(report["jobs"]):
            sys.exit(f"{path}: job count differs from {base_path}")
        counters = sweep_counters(report)
        for key in sorted(set(base_counters) | set(counters)):
            if base_counters.get(key) != counters.get(key):
                sys.exit(f"{path}: counter {key} is {counters.get(key)}, "
                         f"{base_path} has {base_counters.get(key)}")
    print(f"probe-thread gate OK: {len(reports)} runs, "
          f"{len(base_jobs)} jobs, {len(base_counters)} counters equal "
          f"(probe.probed = {base_counters['probe.probed']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
