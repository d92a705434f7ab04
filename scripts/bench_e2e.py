#!/usr/bin/env python3
"""Records the perfbench medians as BENCH_e2e.json.

Run from the root of a source checkout:

    python3 scripts/bench_e2e.py [BENCH_e2e.json]

Drives perfbench/run.py, unchanged, over its three workloads (cold, disk,
shard): once at --trace 0 for the end-to-end metrics (latency_ms, cpu_ms,
setup_s) and once at --trace 1 for the per-layer ones, each for
BENCHMARK.json's run_seconds at seed 1. Every value run.py reports is
already a median over that run's requests. Then it runs the cold batch
at --jobs 1 (`batch --all --jobs 1 --cache 0 --verify-threads 1`,
JOBS1_RUNS times with the pd_cli run.py built) and records the median
wall and CPU time, which perfbench cannot give because it fixes --jobs 4.
The file also records the CPU count and the git commit measured. Six
runs of about 20 s each and three of a few seconds, plus run.py's first
Release build of pd_cli into .bench_build/.

Exits non-zero, writing nothing, if any run fails or reports an
incorrect result.
"""
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("cold", "disk", "shard")
SEED = 1
CLI = os.path.join(".bench_build", "pd_cli")
JOBS1_BATCH = ["batch", "--all", "--jobs", "1", "--cache", "0",
               "--verify-threads", "1"]
JOBS1_RUNS = 3


def run(workload, trace, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}")
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result "
                 f"({out['failed']} of {out['attempted']} requests failed)")
    return out


def jobs1_batch():
    """Median wall and CPU ms of the cold default batch at --jobs 1."""
    walls, cpus = [], []
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "jobs1.json")
        for _ in range(JOBS1_RUNS):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.monotonic()
            proc = subprocess.run([CLI, *JOBS1_BATCH, "--json", report],
                                  stdout=subprocess.DEVNULL)
            walls.append((time.monotonic() - start) * 1000.0)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpus.append((after.ru_utime + after.ru_stime - before.ru_utime
                         - before.ru_stime) * 1000.0)
            if proc.returncode != 0:
                sys.exit(f"{CLI} {' '.join(JOBS1_BATCH)}: exit "
                         f"{proc.returncode}")
    return {"command": "pd_cli " + " ".join(JOBS1_BATCH), "runs": JOBS1_RUNS,
            "latency_ms": round(statistics.median(walls), 3),
            "cpu_ms": round(statistics.median(cpus), 3)}


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_e2e.json"
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"],
        stdout=subprocess.PIPE, text=True).stdout.strip() or "unknown"

    workloads = {}
    for name in WORKLOADS:
        e2e = run(name, 0, seconds)
        layers = run(name, 1, seconds)
        workloads[name] = {
            "requests": {"end_to_end": e2e["attempted"],
                         "per_layer": layers["attempted"]},
            "end_to_end": {k: round(v["value"], 3)
                           for k, v in e2e["metrics"].items()},
            "per_layer": {k: round(v["value"], 3)
                          for k, v in layers["metrics"].items()},
        }

    doc = {
        "schema": "pd-bench-e2e-v1",
        "commit": commit,
        "cpus": os.cpu_count(),
        "run_seconds": seconds,
        "seed": SEED,
        "command": "python3 perfbench/run.py --workload <w> --seed 1 "
                   f"--seconds {seconds} --trace <0|1>",
        "notes": [
            "Each value is run.py's median over one run's requests; units "
            "are in the metric names (ms, s) or counts and bytes.",
            "perfbench fixes `pd_cli batch --all --jobs 4`, so --jobs, "
            "--probe-threads and --shards scaling curves are not recorded "
            "here; jobs1_cold is the one cold batch at --jobs 1, a median "
            "over its runs measured from outside the process.",
            "The host is shared with other workloads; repeated runs drift "
            "by up to 25%.",
        ],
        "workloads": workloads,
        "jobs1_cold": jobs1_batch(),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
