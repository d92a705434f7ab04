#!/usr/bin/env python3
"""CI gate for sharded-vs-single-process batch equivalence.

Usage: check_shard_equiv.py single_report.json sharded_report.json [more...]

Asserts, against pd-batch-report-v1 documents produced by running the
same `pd_cli batch ...` selection with and without --shards (any number
of sharded legs may follow the single-process baseline):

  1. every run succeeded on every job;
  2. each sharded report really ran sharded (engine.shards >= 1, and
     every wire-eligible job carries a worker shard id >= 0);
  3. the semantic payload of every job — everything except timings, cache
     provenance, and the shard id — is byte-identical between the
     single-process baseline and every sharded leg;
  4. a fault-free leg kept its liveness machinery silent:
     resilience.heartbeat_misses, deadline_kills and wire_poisons are 0
     (reconnects stay 0 too — nothing should have torn a connection);
  5. a fault-free leg's observability counters carry the workers' work:
     every probe.* counter except the schedule-dependent
     probe.speculative_discards, every ring.member.* counter, every
     decompose.stop.* counter (why each run ended) and
     engine.spec.expansions equal the single-process run's.

Exits non-zero with a diagnostic on the first violation.
"""
import json
import sys

VOLATILE_JOB_FIELDS = ("timing", "cache", "shard", "shard_fallback")
SCHEDULE_DEPENDENT = ("probe.speculative_discards",)


def work_counters(report):
    """The counters that measure the jobs' work, not their schedule."""
    counters = report.get("observability", {}).get("counters", {})
    return {name: value for name, value in counters.items()
            if (name.startswith(("probe.", "ring.member.", "decompose.stop."))
                or name == "engine.spec.expansions")
            and name not in SCHEDULE_DEPENDENT}


def semantic_jobs(report):
    """Jobs with the volatile (timing / cache / shard) fields removed."""
    jobs = []
    for job in report["jobs"]:
        job = dict(job)
        for field in VOLATILE_JOB_FIELDS:
            job.pop(field, None)
        jobs.append(job)
    return jobs


def check_sharded_leg(single, sharded, sharded_path):
    shards = sharded.get("engine", {}).get("shards", 0)
    if shards < 1:
        sys.exit(f"{sharded_path}: engine.shards is {shards} — "
                 f"was --shards passed?")
    stay_local = [j["name"] for j in sharded["jobs"] if j.get("shard", -1) < 0]
    if stay_local:
        sys.exit(f"{sharded_path}: jobs ran in-process instead of in a "
                 f"worker: {stay_local}")

    single_sem = json.dumps(semantic_jobs(single), sort_keys=True)
    sharded_sem = json.dumps(semantic_jobs(sharded), sort_keys=True)
    if single_sem != sharded_sem:
        for a, b in zip(semantic_jobs(single), semantic_jobs(sharded)):
            if a != b:
                sys.exit(f"{sharded_path}: result drift on job "
                         f"{a['name']!r}:\n"
                         f"  single:  {json.dumps(a, sort_keys=True)}\n"
                         f"  sharded: {json.dumps(b, sort_keys=True)}")
        sys.exit(f"{sharded_path}: result drift: job lists differ in "
                 f"length or order")

    # A fault-free run must never exercise the degraded paths; that
    # specifically includes the wire-v6 liveness machinery (a
    # false-positive deadline kill would silently show up here as a
    # retried job long before it flaked a chaos plan).
    res = sharded.get("resilience", {})
    if not res.get("armed_faults"):
        for counter in ("heartbeat_misses", "deadline_kills", "wire_poisons",
                        "reconnects"):
            if res.get(counter, 0) != 0:
                sys.exit(f"{sharded_path}: fault-free run has "
                         f"resilience.{counter} = {res.get(counter)}")
        # Workers ship their metric deltas whether or not the run is
        # traced, so the fleet's counters are the single run's.
        want, got = work_counters(single), work_counters(sharded)
        if not want.get("probe.probed"):
            sys.exit("single-process report has no probe.probed counter")
        if want != got:
            diff = {name: (want.get(name), got.get(name))
                    for name in sorted(set(want) | set(got))
                    if want.get(name) != got.get(name)}
            sys.exit(f"{sharded_path}: work counters differ from the "
                     f"single-process run (single, sharded): {diff}")

    used = sorted({j["shard"] for j in sharded["jobs"]})
    return shards, used


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    paths = sys.argv[1:]
    reports = []
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        if report.get("schema") != "pd-batch-report-v1":
            sys.exit(f"{path}: unexpected schema {report.get('schema')!r}")
        for job in report["jobs"]:
            if not job["ok"]:
                sys.exit(f"{path}: job {job['name']!r} failed: "
                         f"{job['error']!r}")
        reports.append(report)

    single = reports[0]
    legs = []
    for report, path in zip(reports[1:], paths[1:]):
        shards, used = check_sharded_leg(single, report, path)
        legs.append(f"×{shards} (workers used: {used})")

    # Probe-thread plumbing coverage: when a sharded run fanned its probe
    # sweeps out (--probe-threads through the pd-shard-wire job frames),
    # byte-identical semantics above proves the sweep's determinism held
    # across both the process and the thread fan-out.
    probe_threads = reports[1].get("engine", {}).get("probe_threads", 0)
    probe_note = (f", probe_threads={probe_threads} (deterministic sweep "
                  f"verified)" if probe_threads else "")
    print(f"shard-equivalence gate OK: {len(single['jobs'])} jobs, "
          f"{len(legs)} sharded leg(s) [{'; '.join(legs)}] byte-identical "
          f"to the single-process run{probe_note}")


if __name__ == "__main__":
    main()
