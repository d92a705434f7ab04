#!/usr/bin/env python3
"""CI gate for pd-trace artifacts.

Usage:
  check_trace.py trace.json report.json [--expect-workers N]
  check_trace.py --overhead baseline.json current.json [--tol X]

Trace mode asserts, against a Chrome trace-event file produced by
`pd_cli batch --trace-out` and the matching pd-batch-report-v1 document:

  1. the trace is well-formed: a traceEvents array of "M"/"X" events,
     every "X" carrying name/cat/ts/dur/pid/tid with ts,dur >= 0;
  2. every job phase (resolve, digest, cache_lookup, decompose, synth,
     optimize, map, sta, verify) that consumed time in the report appears
     as a span at least once;
  3. per job fingerprint, the job.* span durations agree with the
     report's timing.phases within 5% (they are emitted from the same
     clock reads, so real drift means a bug, not noise);
  4. with --expect-workers N: spans exist for the coordinator (pid 0)
     and for every worker pid 1..N, each with a process_name metadata
     record — i.e. the fleet merge actually happened.

Overhead mode compares two check_hotpath-style benchmark JSON files
(BENCH_hotpath.json baseline vs a tracing-disabled current run) and
fails if any shared metric regressed beyond --tol (default 4.0x, the
same noise tolerance CI applies to the hot-path gate itself).

Exits non-zero with a diagnostic on the first violation.
"""
import json
import sys

PHASES = ("resolve", "digest", "cache_lookup", "decompose", "synth",
          "optimize", "map", "sta", "verify")


def fail(msg):
    sys.exit(f"check_trace: {msg}")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_wellformed(trace):
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    spans = []
    names = {}  # pid -> process name
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") == "process_name":
                names[e["pid"]] = e["args"]["name"]
            continue
        if ph != "X":
            fail(f"event {i}: unexpected ph {ph!r}")
        for key in ("name", "cat", "ts", "dur", "pid", "tid"):
            if key not in e:
                fail(f"event {i}: missing {key!r}")
        if e["ts"] < 0 or e["dur"] < 0:
            fail(f"event {i}: negative ts/dur")
        spans.append(e)
    if not spans:
        fail("trace holds no spans")
    return spans, names


def check_phase_sums(spans, report, tol=0.05):
    """Per job, job.<phase> span durations vs timing.phases, within 5%."""
    # Group job.* spans by (pid, fp): one fingerprint = one job execution.
    by_job = {}
    for s in spans:
        if not s["name"].startswith("job."):
            continue
        fp = s.get("args", {}).get("fp")
        if fp is None:
            continue
        phase = s["name"][len("job."):]
        by_job.setdefault((s["pid"], fp), {}).setdefault(phase, 0.0)
        by_job[(s["pid"], fp)][phase] += s["dur"] / 1000.0  # µs → ms
    if not by_job:
        fail("no job.* spans with fingerprints in the trace")

    # Match report jobs to traced jobs by multiset of phase vectors:
    # fingerprints are not in the report, so compare each computed
    # (cache-miss) job's phase block against some traced job. Of the
    # traced jobs within tolerance, take the closest over all phases: a
    # job whose phases are all under 1 ms is within tolerance of every
    # traced job, and must not take another job's spans.
    computed = [j for j in report["jobs"]
                if j["ok"] and not j["cache"]["hit"]]
    traced = list(by_job.values())
    for job in computed:
        phases = job["timing"]["phases"]
        fitting = [t for t in traced
                   if all(phases[f"{p}_ms"] <= 1.0 or
                          abs(t.get(p, 0.0) - phases[f"{p}_ms"]) <=
                          tol * phases[f"{p}_ms"] for p in PHASES)]
        best = min(fitting, default=None,
                   key=lambda t: sum(abs(t.get(p, 0.0) - phases[f"{p}_ms"])
                                     for p in PHASES))
        if best is None:
            fail(f"job {job['name']!r}: no traced job matches its "
                 f"timing.phases within {tol:.0%} "
                 f"(report phases: { {p: phases[f'{p}_ms'] for p in PHASES} })")
        traced.remove(best)
        for p in PHASES:
            if phases[f"{p}_ms"] > 1.0 and p not in best:
                fail(f"job {job['name']!r}: phase {p} consumed "
                     f"{phases[f'{p}_ms']:.2f} ms but has no span")
    print(f"check_trace: {len(computed)} computed jobs matched to traced "
          f"phase sets within {tol:.0%}")


def check_workers(spans, names, expect):
    want = set(range(expect + 1))  # 0 = coordinator
    have = {s["pid"] for s in spans}
    missing = want - have
    if missing:
        fail(f"no spans for pids {sorted(missing)} "
             f"(expected coordinator + {expect} workers; pids seen: "
             f"{sorted(have)})")
    unnamed = want - set(names)
    if unnamed:
        fail(f"pids {sorted(unnamed)} have no process_name metadata")
    print(f"check_trace: fleet trace has coordinator + workers "
          f"{sorted(p for p in have if p > 0)}")


def run_trace_mode(argv):
    expect_workers = 0
    args = []
    it = iter(argv)
    for a in it:
        if a == "--expect-workers":
            expect_workers = int(next(it))
        else:
            args.append(a)
    if len(args) != 2:
        sys.exit(__doc__)
    trace = load(args[0])
    report = load(args[1])
    spans, names = check_wellformed(trace)
    check_phase_sums(spans, report)
    if expect_workers:
        check_workers(spans, names, expect_workers)
    print(f"check_trace: OK ({len(spans)} spans)")


def run_overhead_mode(argv):
    tol = 4.0
    args = []
    it = iter(argv)
    for a in it:
        if a == "--tol":
            tol = float(next(it))
        else:
            args.append(a)
    if len(args) != 2:
        sys.exit(__doc__)
    baseline = load(args[0])
    current = load(args[1])
    base_metrics = baseline.get("metrics", baseline)
    cur_metrics = current.get("metrics", current)
    shared = set(base_metrics) & set(cur_metrics)
    if not shared:
        fail("no shared metrics between baseline and current")
    for name in sorted(shared):
        base = base_metrics[name]
        cur = cur_metrics[name]
        if not isinstance(base, (int, float)) or base <= 0:
            continue
        if cur > tol * base:
            fail(f"metric {name!r}: {cur} vs baseline {base} "
                 f"(> {tol}x tolerance) — tracing-disabled overhead")
    print(f"check_trace: overhead OK ({len(shared)} metrics within "
          f"{tol}x of baseline)")


def main():
    argv = sys.argv[1:]
    if not argv:
        sys.exit(__doc__)
    if argv[0] == "--overhead":
        run_overhead_mode(argv[1:])
    else:
        run_trace_mode(argv)


if __name__ == "__main__":
    main()
