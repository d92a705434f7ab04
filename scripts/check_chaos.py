#!/usr/bin/env python3
"""CI chaos gate: run `pd_cli batch` under a matrix of deterministic
fault plans and assert the fleet degrades gracefully instead of dying.

Usage: check_chaos.py --cli ./build/pd_cli [--workdir DIR]
                      [--soak N] [--seed S] [--keep]

Every sharded batch carries its frames over the localhost socket each
worker dials back. Two liveness plans run after the matrix: a worker
frozen mid-job must die at the heartbeat deadline with its job retried
on another worker, and a connection that never establishes must book
spawn-failure (not crash) accounting.

Every plan runs the same three-benchmark batch and is held to the
generic contract first:

  1. the coordinator process never dies on a signal — the exit code is
     always one of the documented batch codes (0 all ok, 2 partial,
     1 fatal);
  2. the JSON report is written, parses, names exactly the baseline's
     job set, and carries the `resilience` block;
  3. every job that succeeded is semantically identical to the
     fault-free baseline run (volatile fields — timing, cache
     provenance, shard placement — stripped first);
  4. if a cache store was flushed, `pd_cli cache-info` can read it
     (loaded or salvaged) without crashing.

On top of that each plan asserts its own blast radius: a targeted
worker crash fails only the targeted job, a spawn blip is absorbed
silently, a pool collapse falls back in-process with zero failures,
an ENOSPC flush is fatal but leaves the report intact, and so on.

With --soak N, N extra iterations arm pseudo-random seeded
probabilistic plans (deterministic per --seed) and enforce the generic
contract plus a fault-free warm rerun that must match the baseline —
the cache-soundness check that nothing a faulted run persisted can
poison a later one. Exits non-zero with a diagnostic on the first
violation.
"""
import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

BENCHES = ("majority7", "counter8", "adder8")
VOLATILE_JOB_FIELDS = ("timing", "cache", "shard", "shard_fallback")
RUN_TIMEOUT_S = 300

# Sites safe for randomized soaking: each either kills/starves a worker
# (retry/fallback territory) or tears an artifact (salvage territory).
# Hang sites are excluded — they only convert chaos time into wall time.
SOAK_SITES = (
    "shard.worker.crash",
    "shard.worker.spawn",
    "shard.wire.corrupt",
    "shard.wire.partial",
    "engine.job.fail",
    "persist.save.short_write",
)


def fail(plan, message, result=None):
    lines = [f"chaos gate FAILED [{plan}]: {message}"]
    if result is not None:
        lines.append(f"  exit code: {result.code}")
        tail = result.output.strip().splitlines()[-12:]
        if tail:
            lines.append("  output tail:")
            lines.extend(f"    {ln}" for ln in tail)
    sys.exit("\n".join(lines))


class RunResult:
    def __init__(self, code, report, report_path, output):
        self.code = code
        self.report = report
        self.report_path = report_path
        self.output = output


def run_batch(cli, workdir, tag, faults=None, env_extra=None, args=()):
    """One `pd_cli batch` run; returns exit code + parsed report."""
    report_path = os.path.join(workdir, f"{tag}.json")
    cmd = [cli, "batch", *BENCHES, "--json", report_path, *args]
    env = dict(os.environ)
    env.pop("PD_FAULTS", None)
    if faults:
        env["PD_FAULTS"] = faults
    for key, value in (env_extra or {}).items():
        env[key] = value
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"chaos gate FAILED [{tag}]: batch did not finish "
                 f"within {RUN_TIMEOUT_S}s: {' '.join(cmd)}")
    report = None
    if os.path.exists(report_path):
        try:
            with open(report_path) as f:
                report = json.load(f)
        except ValueError as e:
            sys.exit(f"chaos gate FAILED [{tag}]: report "
                     f"{report_path} is not valid JSON: {e}")
    return RunResult(proc.returncode, report, report_path, proc.stdout)


def cache_info_code(cli, store):
    proc = subprocess.run([cli, "cache-info", store], timeout=60,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    return proc.returncode


def semantic_jobs(report):
    jobs = {}
    for job in report["jobs"]:
        job = dict(job)
        for field in VOLATILE_JOB_FIELDS:
            job.pop(field, None)
        jobs[job["name"]] = job
    return jobs


def check_generic(plan, result, baseline, cli, store=None):
    """The contract every plan is held to, fault-specific checks aside.

    Returns the report's semantic job map for plan-specific assertions.
    """
    if result.code < 0:
        fail(plan, f"coordinator died on signal {-result.code}", result)
    if result.code not in (0, 1, 2):
        fail(plan, f"undocumented exit code {result.code}", result)
    if result.report is None:
        fail(plan, f"no report was written to {result.report_path}",
             result)
    report = result.report
    if report.get("schema") != "pd-batch-report-v1":
        fail(plan, f"unexpected schema {report.get('schema')!r}")
    if "resilience" not in report:
        fail(plan, "report is missing the resilience block")
    names = sorted(j["name"] for j in report["jobs"])
    base_names = sorted(baseline.keys())
    if names != base_names:
        fail(plan, f"job set drifted: {names} != {base_names}")
    for name, job in semantic_jobs(report).items():
        if not job["ok"]:
            continue
        base = dict(baseline[name])
        # Verification effort may legitimately differ under budget
        # faults; outcome fields may not.
        if plan.startswith(("verify-", "soak-")):
            job.pop("verification", None)
            base.pop("verification", None)
        if job != base:
            fail(plan, f"ok job {name!r} drifted from the baseline:\n"
                       f"  baseline: {json.dumps(base, sort_keys=True)}\n"
                       f"  faulted:  {json.dumps(job, sort_keys=True)}")
    if store is not None and os.path.exists(store):
        code = cache_info_code(cli, store)
        if code not in (0, 1):
            fail(plan, f"cache-info crashed on the flushed store "
                       f"(exit {code})")
    return semantic_jobs(report)


def expect(plan, condition, message, result=None):
    if not condition:
        fail(plan, message, result)


def resilience(result):
    return result.report["resilience"]


def failed_jobs(result):
    return {j["name"]: j["error"] for j in result.report["jobs"]
            if not j["ok"]}


def run_matrix(cli, workdir, baseline):
    # --- targeted worker crash: blast radius is exactly one job -------
    plan = "targeted-crash"
    r = run_batch(cli, workdir, plan,
                  env_extra={"PD_SHARD_TEST_CRASH_JOB": "counter8"},
                  args=("--shards", "2"))
    check_generic(plan, r, baseline, cli)
    expect(plan, r.code == 2, f"expected exit 2, got {r.code}", r)
    bad = failed_jobs(r)
    expect(plan, set(bad) == {"counter8"},
           f"only counter8 may fail, got {sorted(bad)}", r)
    expect(plan, "retried once" in bad["counter8"],
           f"error must name the spent retry budget: {bad['counter8']!r}")
    expect(plan, resilience(r)["worker_crashes"] >= 2,
           "both attempts crash, so worker_crashes >= 2", r)
    expect(plan, resilience(r)["retries"] >= 1,
           "the retry must be counted", r)
    print(f"  {plan}: ok (exit 2, counter8 contained, "
          f"{resilience(r)['worker_crashes']} crashes)")

    # --- the same crash with two jobs in flight per worker: the job
    # beside counter8 is requeued free and alone, and only counter8 pays
    plan = "targeted-crash-depth2"
    r = run_batch(cli, workdir, plan,
                  env_extra={"PD_SHARD_TEST_CRASH_JOB": "counter8"},
                  args=("--jobs", "4", "--shards", "2"))
    check_generic(plan, r, baseline, cli)
    expect(plan, r.code == 2, f"expected exit 2, got {r.code}", r)
    bad = failed_jobs(r)
    expect(plan, set(bad) == {"counter8"},
           f"only counter8 may fail, got {sorted(bad)}", r)
    expect(plan, "retried once" in bad["counter8"],
           f"error must name the spent retry budget: {bad['counter8']!r}")
    expect(plan, resilience(r)["worker_crashes"] >= 2,
           "counter8 crashes at least twice, so worker_crashes >= 2", r)
    print(f"  {plan}: ok (exit 2, counter8 contained beside other jobs, "
          f"{resilience(r)['worker_crashes']} crashes)")

    # --- one spawn failure: absorbed, no job notices ------------------
    plan = "spawn-blip"
    r = run_batch(cli, workdir, plan, faults="shard.worker.spawn:n1",
                  args=("--shards", "2"))
    check_generic(plan, r, baseline, cli)
    expect(plan, r.code == 0, f"expected exit 0, got {r.code}", r)
    expect(plan, not failed_jobs(r), "no job may fail", r)
    expect(plan, resilience(r)["spawn_failures"] >= 1,
           "the spawn failure must be counted", r)
    expect(plan, resilience(r)["worker_crashes"] == 0,
           "a spawn failure is not a crash", r)
    print(f"  {plan}: ok (exit 0, "
          f"{resilience(r)['spawn_failures']} spawn failures absorbed)")

    # --- total pool collapse: every job falls back in-process ---------
    plan = "pool-collapse"
    r = run_batch(cli, workdir, plan, faults="shard.worker.spawn:e1",
                  args=("--shards", "2"))
    check_generic(plan, r, baseline, cli)
    expect(plan, r.code == 0, f"expected exit 0, got {r.code}", r)
    expect(plan, not failed_jobs(r), "fallback must succeed", r)
    expect(plan, resilience(r)["fallback_jobs"] == len(BENCHES),
           f"all {len(BENCHES)} jobs must fall back, got "
           f"{resilience(r)['fallback_jobs']}", r)
    for job in r.report["jobs"]:
        expect(plan, job.get("shard_fallback") is True
               and job.get("shard", 0) < 0,
               f"{job['name']} must carry shard.fallback provenance", r)
    print(f"  {plan}: ok (exit 0, {len(BENCHES)} jobs in-process)")

    # --- corrupt wire frame: worker killed, job retried, all recover --
    plan = "wire-corrupt"
    r = run_batch(cli, workdir, plan, faults="shard.wire.corrupt:n2",
                  args=("--shards", "1"))
    check_generic(plan, r, baseline, cli)
    expect(plan, r.code == 0, f"expected exit 0, got {r.code}", r)
    expect(plan, not failed_jobs(r),
           "retries must recover every corrupted frame", r)
    expect(plan, resilience(r)["worker_crashes"] >= 1,
           "a protocol violation counts as a crash", r)
    expect(plan, resilience(r)["retries"] >= 1,
           "the recovery retry must be counted", r)
    print(f"  {plan}: ok (exit 0, {resilience(r)['retries']} retries)")

    # --- clean per-job failure: partial exit, no collateral -----------
    plan = "clean-job-fail"
    r = run_batch(cli, workdir, plan, faults="engine.job.fail:n2",
                  args=("--jobs", "1"))
    check_generic(plan, r, baseline, cli)
    expect(plan, r.code == 2, f"expected exit 2, got {r.code}", r)
    bad = failed_jobs(r)
    expect(plan, len(bad) == 1, f"exactly one job may fail: {bad}", r)
    expect(plan, all("injected fault" in e for e in bad.values()),
           f"the error must name the injection: {bad}", r)
    print(f"  {plan}: ok (exit 2, {sorted(bad)[0]} failed cleanly)")

    # --- flush hits ENOSPC: fatal exit, report intact, and the store
    # is either absent or fully valid (the engine destructor retries
    # the flush as a safety net, which heals a transient ENOSPC) — but
    # never torn -------------------------------------------------------
    plan = "persist-enospc"
    store = os.path.join(workdir, "enospc.pdc")
    r = run_batch(cli, workdir, plan, faults="persist.save.enospc:n1",
                  args=("--shards", "2", "--cache-file", store))
    check_generic(plan, r, baseline, cli)
    expect(plan, r.code == 1, f"expected fatal exit 1, got {r.code}", r)
    expect(plan, not failed_jobs(r),
           "the jobs themselves all succeeded", r)
    expect(plan, "cache flush failed" in r.output,
           "the flush failure must be reported", r)
    expect(plan,
           not os.path.exists(store) or cache_info_code(cli, store) == 0,
           "a failed save may leave no store, or the destructor's "
           "retry a fully valid one — never a torn file", r)
    print(f"  {plan}: ok (exit 1, report intact, store absent or valid)")

    # --- short write tears the store: salvage + warm rerun heals it ---
    plan = "persist-torn"
    store = os.path.join(workdir, "torn.pdc")
    r = run_batch(cli, workdir, plan,
                  faults="persist.save.short_write:n1",
                  args=("--shards", "2", "--cache-file", store))
    check_generic(plan, r, baseline, cli, store=store)
    expect(plan, os.path.exists(store),
           "the short write still renames a (torn) store in", r)
    rerun = run_batch(cli, workdir, plan + "-rerun",
                      args=("--shards", "2", "--cache-file", store))
    check_generic(plan + "-rerun", rerun, baseline, cli, store=store)
    expect(plan, rerun.code == 0,
           f"warm rerun over the torn store must succeed, got "
           f"{rerun.code}", rerun)
    expect(plan, not failed_jobs(rerun), "rerun jobs must all pass",
           rerun)
    expect(plan, cache_info_code(cli, store) == 0,
           "the rerun's flush must leave a fully valid store", rerun)
    print(f"  {plan}: ok (torn store salvaged, rerun healed it)")

    # --- SAT verify budget starved: honest unknown, never a wrong
    # verdict, never a dead engine, never a published starved result -----
    plan = "verify-budget"
    vstore = os.path.join(workdir, "verify-budget.pdc")
    r = run_batch(cli, workdir, plan, faults="verify.sat.budget:n1",
                  args=("--verify-threads", "1", "--cache-file", vstore))
    check_generic(plan, r, baseline, cli, store=vstore)
    expect(plan, r.code == 0, f"expected exit 0, got {r.code}", r)
    expect(plan, not failed_jobs(r),
           "a starved verify budget must not fail the job", r)
    starved = [j["name"] for j in r.report["jobs"]
               if j["verification"].get("sat", {}).get("budget_exhausted")]
    expect(plan, len(starved) == 1,
           f"exactly one job must report an exhausted budget, got "
           f"{starved}", r)
    job = next(j for j in r.report["jobs"] if j["name"] == starved[0])
    expect(plan, job["verification"]["status"] != "sat",
           f"starved job {starved[0]!r} must not claim a sat verdict", r)
    # The starved result was withheld from the store: a fault-free rerun
    # recomputes exactly that job and serves every other one from disk.
    rerun = run_batch(cli, workdir, plan + "-rerun",
                      args=("--verify-threads", "1", "--cache-file", vstore))
    check_generic(plan + "-rerun", rerun, baseline, cli, store=vstore)
    expect(plan, rerun.code == 0,
           f"rerun expected exit 0, got {rerun.code}", rerun)
    for j in rerun.report["jobs"]:
        source = j["cache"]["source"]
        if j["name"] == starved[0]:
            expect(plan, source == "computed" and
                   j["verification"]["status"] == "sat",
                   f"starved job {j['name']!r} must be recomputed to sat, "
                   f"got source {source!r}, status "
                   f"{j['verification']['status']!r}", rerun)
        else:
            expect(plan, source == "disk",
                   f"job {j['name']!r} must be served from disk, got "
                   f"{source!r}", rerun)
    print(f"  {plan}: ok (exit 0, {starved[0]} starved honestly, never "
          f"published, recomputed on rerun)")

    # --- wedged worker vs wall budget: the hang is contained ----------
    plan = "hang-wall-budget"
    r = run_batch(cli, workdir, plan,
                  env_extra={"PD_SHARD_TEST_HANG_JOB": "counter8"},
                  args=("--shards", "2", "--shard-wall-ms", "2000",
                        "--shard-drain-ms", "2000"))
    check_generic(plan, r, baseline, cli)
    expect(plan, r.code == 2, f"expected exit 2, got {r.code}", r)
    bad = failed_jobs(r)
    expect(plan, set(bad) == {"counter8"},
           f"only the wedged job may fail, got {sorted(bad)}", r)
    expect(plan, "wall budget" in bad["counter8"],
           f"error must name the wall budget: {bad['counter8']!r}")
    print(f"  {plan}: ok (exit 2, wedge contained by the wall budget)")


def run_liveness_plans(cli, workdir, baseline):
    """Socket liveness plans (wire v6)."""
    # --- frozen worker: only the heartbeat deadline can reap it -------
    # SIGSTOP freezes the whole worker process, pump thread included, so
    # neither the wall budget (no overrunning job timer here) nor socket
    # EOF fires — the kill must come from --shard-heartbeat-ms. The
    # retry lands on another worker, which freezes on the same job name,
    # so the final verdict is the contained retried-once failure.
    plan = "socket-heartbeat-stall"
    r = run_batch(cli, workdir, plan,
                  env_extra={"PD_SHARD_TEST_STALL_JOB": "counter8"},
                  args=("--shards", "2", "--shard-heartbeat-ms", "500"))
    check_generic(plan, r, baseline, cli)
    expect(plan, r.code == 2, f"expected exit 2, got {r.code}", r)
    bad = failed_jobs(r)
    expect(plan, set(bad) == {"counter8"},
           f"only the frozen job may fail, got {sorted(bad)}", r)
    expect(plan, "heartbeat deadline" in bad["counter8"],
           f"error must name the heartbeat deadline: {bad['counter8']!r}")
    expect(plan, "retried once" in bad["counter8"],
           f"error must name the spent retry: {bad['counter8']!r}")
    res = resilience(r)
    expect(plan, res["heartbeat_misses"] >= 1,
           "the missed deadline must be counted", r)
    expect(plan, res["deadline_kills"] >= 1,
           "the liveness kill must be counted", r)
    expect(plan, res["retries"] >= 1,
           "the retry-on-another-worker must be counted", r)
    print(f"  {plan}: ok (exit 2, {res['deadline_kills']} deadline kills, "
          f"job retried on another worker)")

    # --- connection never establishes: spawn-failure accounting -------
    plan = "socket-accept-fault"
    r = run_batch(cli, workdir, plan, faults="shard.sock.accept:n1",
                  args=("--shards", "2"))
    check_generic(plan, r, baseline, cli)
    expect(plan, r.code == 0, f"expected exit 0, got {r.code}", r)
    expect(plan, not failed_jobs(r),
           "a failed establishment must cost no job", r)
    res = resilience(r)
    expect(plan, res["spawn_failures"] >= 1,
           "the failed connect must book a spawn failure", r)
    expect(plan, res["worker_crashes"] == 0,
           "a failed establishment is not a crash", r)
    expect(plan, res["retries"] == 0,
           "no retry budget may be charged", r)
    print(f"  {plan}: ok (exit 0, "
          f"{res['spawn_failures']} spawn failures, no crash charged)")


def run_soak(cli, workdir, baseline, iterations, seed):
    rng = random.Random(seed)
    for i in range(iterations):
        plan = f"soak-{i}"
        sites = rng.sample(SOAK_SITES, rng.randint(1, 3))
        faults = ",".join(
            f"{s}:p{rng.choice((0.1, 0.2, 0.3)):.1f}@{rng.randrange(2**31)}"
            for s in sites)
        store = os.path.join(workdir, f"{plan}.pdc")
        r = run_batch(cli, workdir, plan, faults=faults,
                      args=("--shards", "2", "--shard-retries", "2",
                            "--cache-file", store))
        check_generic(plan, r, baseline, cli, store=store)
        # Cache soundness: whatever the faulted run persisted, a
        # fault-free warm rerun must reproduce the baseline exactly.
        rerun = run_batch(cli, workdir, plan + "-rerun",
                          args=("--shards", "2", "--cache-file", store))
        check_generic(plan + "-rerun", rerun, baseline, cli, store=store)
        expect(plan, rerun.code == 0 and not failed_jobs(rerun),
               f"fault-free rerun after plan {faults!r} must fully "
               f"succeed (exit {rerun.code})", rerun)
        print(f"  {plan}: ok ({faults}; exit {r.code}, rerun clean)")


def main():
    ap = argparse.ArgumentParser(
        description="chaos gate for pd_cli batch fault tolerance")
    ap.add_argument("--cli", required=True,
                    help="path to the pd_cli binary under test")
    ap.add_argument("--workdir",
                    help="scratch dir (default: a fresh temp dir)")
    ap.add_argument("--soak", type=int, default=0, metavar="N",
                    help="extra randomized seeded-probabilistic plans")
    ap.add_argument("--seed", type=int, default=20260808,
                    help="soak PRNG seed (plans are deterministic per "
                         "seed)")
    ap.add_argument("--keep", action="store_true",
                    help="keep the scratch dir for post-mortems")
    opt = ap.parse_args()

    cli = os.path.abspath(opt.cli)
    if not os.access(cli, os.X_OK):
        sys.exit(f"--cli {opt.cli}: not an executable")

    workdir = opt.workdir or tempfile.mkdtemp(prefix="pd-chaos-")
    os.makedirs(workdir, exist_ok=True)
    try:
        print(f"chaos gate: baseline batch ({', '.join(BENCHES)})")
        base = run_batch(cli, workdir, "baseline",
                         args=("--shards", "2"))
        if base.code != 0 or base.report is None:
            fail("baseline", "fault-free baseline must pass", base)
        bad = failed_jobs(base)
        if bad:
            fail("baseline", f"baseline jobs failed: {bad}", base)
        baseline = semantic_jobs(base.report)

        run_matrix(cli, workdir, baseline)
        run_liveness_plans(cli, workdir, baseline)
        if opt.soak > 0:
            print(f"chaos gate: soaking {opt.soak} randomized plans "
                  f"(seed {opt.seed})")
            run_soak(cli, workdir, baseline, opt.soak, opt.seed)
    finally:
        if not opt.keep and opt.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    soak_note = f" + {opt.soak} soak plans" if opt.soak else ""
    print(f"chaos gate OK: matrix of 10 fault plans + 2 liveness "
          f"plans{soak_note} — coordinator "
          f"survived every one, blast radii held, stores stayed readable")


if __name__ == "__main__":
    main()
