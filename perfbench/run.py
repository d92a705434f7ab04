#!/usr/bin/env python3
"""Layered end-to-end benchmark for the pd_cli batch engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 14 --trace 0

The script builds pd_cli from source (Release, into .bench_build/), then
drives it as a user would. The traffic is the default batch, `pd_cli batch
--all --jobs 4` (the 13 registered circuits in registry order, as
docs/cli.md runs it on a 4-CPU host); one request is one fresh pd_cli
process over that batch, sent in a closed loop by a single client until
--seconds have elapsed. Each workload loads a different layer:

    cold    every job misses (--cache 0) and is SAT-verified, so the
            decompose -> synth -> optimize -> map -> verify pipeline runs
    disk    every job is served from a pd-cache store filled at set-up, so
            store load, spec expansion and signature building dominate
    shard   jobs run in two worker processes over the socket transport
            with the in-memory cache on, so worker spawn, heartbeats and
            the frame wire (results plus cache deltas) add to the compute

The seed picks the circuit whose netlist is checked independently and the
vectors it is simulated on. It never changes the traffic, so runs with
different seeds measure the same thing.

Set-up: a reference run of the default batch, whose per-job results every
request must equal. For the disk workload the reference run also writes
the store the requests are served from. It is repeated SETUP_ROUNDS times
(the disk store fresh each round), so setup_s is a median.

Correctness: every job must succeed and pass the engine's verification
(on the cold workload: a complete SAT proof, never a sampled or budgeted
verdict); each job's results must equal the reference run's (so a cache,
store or wire that corrupts a result is caught); the cache provenance and
the shard fleet's health must match the workload; and one circuit's
synthesized netlist (`pd_cli bench --blif`) is simulated here in Python
against an independent reference of the circuit's arithmetic.

End-to-end metrics (--trace 0): latency_ms and cpu_ms are medians over the
requests of one run, measured from outside the process; setup_s is the
median set-up time. A request runs for seconds, so a run holds only a few
(the count is `attempted`, and is logged to standard error); no
percentile above the median has ten samples beyond it.

Per-layer metrics (--trace 1): the same requests run with --trace-out;
per request the report's phase times, the trace's batch and store-load
spans, and the engine's counters give the time and work of each layer,
and outside_ms is the request's wall time not covered by the batch span
(process start, engine construction, store load, report writing);
store_bytes is the size of the disk workload's store.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
CLI = os.path.join(BUILD_DIR, "pd_cli")
REQUEST_TIMEOUT_S = 120

BATCH = ["batch", "--all", "--jobs", "4"]
WORKLOADS = {
    "cold": ["--cache", "0", "--verify-threads", "1"],
    "disk": ["--cache-readonly"],
    "shard": ["--shards", "2", "--shard-transport", "socket"],
}
SETUP_ROUNDS = 3

GOOD_STATUS = ("simulated", "algebraic", "sat")
# Fault-free shard runs must leave every one of these at zero.
FLEET_FAULTS = ("worker_crashes", "worker_respawns", "spawn_failures",
                "retries", "fallback_jobs", "interrupted_jobs",
                "heartbeat_misses", "deadline_kills", "reconnects",
                "wire_poisons")
PHASES = ("decompose", "probe_sweep", "synth", "optimize", "map", "sta",
          "verify")
COUNTERS = {
    "probe_probed": ("probe.probed",),
    "ring_solves": ("ring.member.solves",),
    "wire_bytes": ("shard.wire.tx.bytes", "shard.wire.rx.bytes"),
    "sat_propagations": ("verify.sat.propagations",),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds pd_cli; returns False on failure."""
    if not os.path.isfile("CMakeLists.txt"):
        log("no CMakeLists.txt here: run from the root of a source checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", ".", "-B", BUILD_DIR, *gen,
                      "-DCMAKE_BUILD_TYPE=Release", "-DPD_BUILD_TESTS=OFF"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pd_cli",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(CLI)


# ---- independent reference semantics of the default batch -----------------

def leading_count(a, n, ones):
    count = 0
    for i in range(n - 1, -1, -1):
        if ((a >> i) & 1) == ones:
            count += 1
        else:
            break
    return 0 if count == n else count


def reference(name, ports):
    """Output word of a registered circuit, bit k = output with index k."""
    a, b, c = ports["a"], ports["b"], ports["c"]
    if name.startswith("adder3_"):
        return a + b + c
    if name.startswith("adder"):
        return a + b
    if name.startswith("mul"):
        return a * b
    if name.startswith("comparator"):
        return int(a > b)
    if name.startswith("counter"):
        return bin(a).count("1")
    if name.startswith("majority"):
        n = int(name[len("majority"):])
        return int(bin(a).count("1") > n // 2)
    if name.startswith("lod") or name.startswith("lzd"):
        n = int(name[3:])
        return leading_count(a, n, 1 if name.startswith("lod") else 0)
    raise ValueError(f"no reference for {name}")


def bit_index(name):
    digits = name.lstrip("abcdefghijklmnopqrstuvwxyz_")
    return int(digits) if digits else 0


def parse_blif(text):
    inputs, outputs, covers = [], [], {}
    current = None
    for raw in text.splitlines():
        tok = raw.split("#")[0].split()
        if not tok:
            continue
        if tok[0] == ".inputs":
            inputs += tok[1:]
        elif tok[0] == ".outputs":
            outputs += tok[1:]
        elif tok[0] == ".names":
            current = {"ins": tok[1:-1], "rows": []}
            covers[tok[-1]] = current
        elif tok[0].startswith("."):
            current = None
        elif current is not None:
            mask, value = (tok[0], tok[1]) if current["ins"] else ("", tok[0])
            if value != "1":
                raise ValueError("off-set covers are not expected")
            current["rows"].append(mask)
    return inputs, outputs, covers


def simulate_blif(text, name, rng, vectors=4096):
    """Bit-parallel simulation of a BLIF netlist on random vectors against
    the reference semantics; returns an error string or None."""
    inputs, outputs, covers = parse_blif(text)
    full = (1 << vectors) - 1
    values = {i: rng.getrandbits(vectors) for i in inputs}

    def net(sig):
        if sig in values:
            return values[sig]
        cover = covers[sig]
        ins = [net(i) for i in cover["ins"]]
        acc = 0
        for row in cover["rows"]:
            term = full
            for ch, v in zip(row, ins):
                if ch == "1":
                    term &= v
                elif ch == "0":
                    term &= ~v & full
            acc |= term
        values[sig] = acc
        return acc

    sys.setrecursionlimit(max(10000, 4 * len(covers)))
    got = {o: net(o) for o in outputs}
    for k in range(vectors):
        ports = {"a": 0, "b": 0, "c": 0}
        for sig in inputs:
            if (values[sig] >> k) & 1:
                port = sig.rstrip("0123456789")
                ports[port] = ports.get(port, 0) | (1 << bit_index(sig))
        want = reference(name, ports)
        for o in outputs:
            if ((got[o] >> k) & 1) != ((want >> bit_index(o)) & 1):
                return f"{name}: output {o} wrong on vector {k} ({ports})"
    return None


# ---- requests --------------------------------------------------------------

def semantic(job):
    v = job["verification"]
    return json.dumps({"decomposition": job["decomposition"],
                       "qor": job["qor"],
                       # The status is checked on its own: SAT verify turns
                       # "simulated" into "sat".
                       "verification": [v["vectors"], v["exhaustive"]]},
                      sort_keys=True)


def run_cli(args, report=None):
    """One request: returns (wall s, child cpu s, report dict or error).
    Without `report` (commands that write no JSON report) the dict is
    empty. pd_cli runs in its own process group, so a timed-out request
    takes its shard workers down with it."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    json_flags = ["--json", report] if report else []
    proc = subprocess.Popen([CLI, *args, *json_flags],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return time.perf_counter() - t0, 0.0, "timed out"
    except BaseException:
        # Interrupted (main turns SIGTERM into SystemExit): stop the whole
        # request before leaving.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.returncode != 0:
        return wall, cpu, f"exit {proc.returncode}: {err[-500:]}"
    if not report:
        return wall, cpu, {}
    with open(report) as f:
        return wall, cpu, json.load(f)


def check(workload, rep, expected):
    """Returns an error string, or None when the report is correct.
    `expected` maps job names to the reference run's results; the
    reference run itself is checked with `expected` None."""
    jobs = rep["jobs"]
    if expected is not None and [j["name"] for j in jobs] != list(expected):
        return "report job list differs from the reference run"
    for j in jobs:
        v = j["verification"]
        if not j["ok"] or v["status"] not in GOOD_STATUS:
            return f"{j['name']}: not ok / unverified ({j['error']})"
        if expected is not None and semantic(j) != expected[j["name"]]:
            return f"{j['name']}: result differs from the reference run"
        if workload == "cold" and (v["status"] != "sat" or "sat" not in v
                                   or v["sat"]["budget_exhausted"]):
            return f"{j['name']}: no complete SAT proof ({v['status']})"
    if expected is None:
        return None
    sources = {j["cache"]["source"] for j in jobs}
    if workload in ("cold", "shard") and sources != {"computed"}:
        return f"unexpected cache sources {sources}"
    if workload == "disk" and sources != {"disk"}:
        return f"disk workload recomputed: {sources}"
    if workload == "shard":
        if any(j["shard"] < 0 for j in jobs):
            return "shard workload ran a job in-process"
        faults = {k: rep["resilience"][k] for k in FLEET_FAULTS
                  if rep["resilience"][k]}
        if faults:
            return f"fault-free shard run reported {faults}"
    return None


def layer_metrics(rep, trace_path, wall):
    with open(trace_path) as f:
        spans = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]

    def span_ms(name):
        # pid 0 is the requesting process; shard workers have their own.
        return sum(e["dur"] for e in spans
                   if e["name"] == name and e["pid"] == 0) / 1000.0

    out = {}
    jobs = rep["jobs"]
    for p in PHASES:
        out[f"{p}_ms"] = sum(j["timing"]["phases"][f"{p}_ms"] for j in jobs)
    attributed = sum(out[f"{p}_ms"] for p in PHASES if p != "probe_sweep")
    out["unattributed_ms"] = sum(j["timing"]["wall_ms"] for j in jobs) - attributed
    batch_ms = span_ms("batch.run")
    out["batch_ms"] = batch_ms
    out["outside_ms"] = wall * 1000.0 - batch_ms
    out["persist_load_ms"] = span_ms("persist.load")
    out["cache_hits"] = rep["cache"]["hits"]
    out["cache_misses"] = rep["cache"]["misses"]
    counters = rep["observability"]["counters"]
    for metric, names in COUNTERS.items():
        out[metric] = sum(counters.get(n, 0) for n in names)
    return out


LAYER_UNITS = {**{f"{p}_ms": "ms" for p in PHASES},
               "unattributed_ms": "ms", "batch_ms": "ms", "outside_ms": "ms",
               "persist_load_ms": "ms", "cache_hits": "count",
               "cache_misses": "count", "probe_probed": "count",
               "ring_solves": "count", "wire_bytes": "bytes",
               "sat_propagations": "count", "store_bytes": "bytes"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not build():
        return 1
    work = os.path.abspath(os.path.join(BUILD_DIR, f"work-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, random.Random(args.seed), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, rng, work):
    store = os.path.join(work, "store.pdc")
    report = os.path.join(work, "report.json")
    trace = os.path.join(work, "trace.json")
    store_flags = ["--cache-file", store] if args.workload == "disk" else []

    # Set-up: the reference run; on the disk workload it also fills the
    # store, fresh each round.
    setup_times, expected = [], None
    for _ in range(SETUP_ROUNDS):
        if os.path.exists(store):
            os.remove(store)
        t0 = time.perf_counter()
        _, _, rep = run_cli([*BATCH, *store_flags], report)
        setup_times.append(time.perf_counter() - t0)
        err = rep if isinstance(rep, str) else check("setup", rep, None)
        if err:
            log(f"set-up run failed: {err}")
            return 1
        expected = {j["name"]: semantic(j) for j in rep["jobs"]}
    store_bytes = os.path.getsize(store) if store_flags else 0

    # Independent check of one circuit's synthesized netlist.
    errors = []
    probe = rng.choice(sorted(expected))
    blif = os.path.join(work, "probe.blif")
    _, _, rep = run_cli(["bench", probe, "--blif", blif])
    if isinstance(rep, str):
        errors.append(f"bench {probe}: {rep}")
    else:
        with open(blif) as f:
            err = simulate_blif(f.read(), probe, rng)
        if err:
            errors.append(err)

    walls, cpus, layers = [], [], []
    attempted = failed = 0
    cmd = [*BATCH, *WORKLOADS[args.workload], *store_flags]
    if args.trace:
        cmd += ["--trace-out", trace]
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or attempted < 3:
        attempted += 1
        wall, cpu, rep = run_cli(cmd, report)
        err = rep if isinstance(rep, str) else check(args.workload, rep,
                                                     expected)
        if err:
            failed += 1
            errors.append(err)
            continue
        walls.append(wall)
        cpus.append(cpu)
        if args.trace:
            layers.append({**layer_metrics(rep, trace, wall),
                           "store_bytes": store_bytes})

    for e in errors[:5]:
        log(f"error: {e}")
    log(f"{args.workload}: {len(walls)} timed requests, "
        f"{len(setup_times)} set-up rounds, netlist check on {probe}")
    correct = not errors
    if args.trace:
        metrics = {name: {"value": statistics.median(l[name] for l in layers)
                          if layers else 0.0, "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "latency_ms": {"value": statistics.median(walls) * 1000.0
                           if walls else 0.0, "unit": "ms"},
            "cpu_ms": {"value": statistics.median(cpus) * 1000.0
                       if cpus else 0.0, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
