"""heckeis benchmark: time to certified values, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the library is
imported from the checkout's `src` tree.  Every measured process is a fresh
child (perfbench/worker.py), so the library's caches start cold, as they do
for each `heckeis eval-eisenstein` call.  Children run single-threaded with
the BLAS pinned to BLAS_THREADS threads.

--trace 0: set up SETUP_REPS times, then run the workload's deck of checks
in fresh processes until the next pass would end after S seconds of
passes (at least once), and report the end-to-end metrics (medians over
the passes).  Times are scaled to the reference machine's speed, gauged by
the workload's calibration kernel, which each pass times between its
checks (calibrate.py); raw times are printed too.
--trace 1: run the deck untraced, with the traced layers wrapped, and
untraced again; check that all three give bit-identical values, and report
the per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Errors of the benchmark itself exit non-zero without
that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import layers
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5
BLAS_THREADS = "1"
# every run ends within this many seconds, children included
RUN_LIMIT_S = 170.0

END_TO_END = [
    ("wall_s", "s"),
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
    ("fail_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, args, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for a {mode} process")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    try:
        # run() kills the child on timeout and waits for it
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process passed the {RUN_LIMIT_S:.0f} s "
                         f"run limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} process exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "heckeis").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "blas_threads_pinned": int(BLAS_THREADS)}


def check_problems(records: list) -> list:
    """Failures outside the known-defect checks, as report lines."""
    return [f"unexpected failure: {r['kind']} {r['field']} {r['params']}: "
            f"{r['raised'] or 'err/tol = %.3g' % r['err_ratio']}"
            for r in records if not r["ok"] and not r["known_defect"]]


def outcome(r: dict):
    return r["raised"].split(":")[0] if r["raised"] else r["values"]


def slowdown(run: dict, gauges=None) -> float:
    """How much slower than the reference machine a process ran.  Two
    factors: the share of its wall time the process got a CPU (below 1 when
    other processes or the hypervisor took it), and the speed of a CPU
    second, the mean CPU time of its calibration kernels (or of `gauges`)
    over the kernel's nominal time.  The first factor is at least 1, so
    work the library spreads over several CPUs still shortens its times."""
    share = max(1.0, run["loop_s"] / run["cpu_s"])
    gauges = run["gauge_cpu_s"] if gauges is None else gauges
    return share * statistics.mean(gauges) / calibrate.NOMINAL_S


def scaled_ms(run: dict) -> list:
    """A pass's check times, each divided by the slowdown gauged by the
    calibration kernels just before and just after the check."""
    g = run["gauge_cpu_s"]
    return [r["ms"] / slowdown(run, g[i:i + 2])
            for i, r in enumerate(run["records"])]


def end_to_end(setups, passes, lines) -> dict:
    n = len(passes[0]["records"])
    scaled = [scaled_ms(p) for p in passes]
    per_check = [statistics.median(s[i] for s in scaled) for i in range(n)]
    p_tail = stats.tail_percentile(n)
    lines.append(f"passes: {len(passes)}, checks per pass: {n}; per-check time "
                 f"is the median over passes")
    lines.append("pass walls " + ", ".join(f"{p['wall_s']:.3f}" for p in passes)
                 + " s (checks only); with calibration kernels " + ", ".join(
                     f"{p['loop_s']:.3f}" for p in passes)
                 + " s, process CPU " + ", ".join(f"{p['cpu_s']:.3f}" for p in passes)
                 + " s; CPU steal during them " + ", ".join(
                     "n/a" if p["steal_s"] is None else f"{p['steal_s']:.2f}"
                     for p in passes) + " s")
    lines.append("slowdown against the reference machine " + ", ".join(
        f"{slowdown(p):.3f}" for p in passes) + f" (mean of {n + 1} calibration "
        f"kernels per pass); each check's time is divided by the slowdown "
        f"gauged just before and after it")
    lines.append(f"check_p50_ms and check_tail_ms are Harrell-Davis estimates; "
                 f"check_tail_ms is p{p_tail} of {n} checks "
                 f"({n - stats.rank(p_tail, n)} checks beyond its nearest rank)")
    lines.append("setup: import %.4f s, build %.4f s (raw medians of %d processes), "
                 "slowdowns %s; setup_s is divided by them" % (
        statistics.median(s["import_s"] for s in setups),
        statistics.median(s["build_s"] for s in setups), len(setups),
        ", ".join(f"{slowdown(s):.3f}" for s in setups)))
    records = [r for p in passes for r in p["records"]]
    return {
        "wall_s": statistics.median(sum(s) for s in scaled) / 1e3,
        "check_p50_ms": stats.harrell_davis(per_check, 0.5),
        "check_tail_ms": stats.harrell_davis(per_check, p_tail / 100),
        "fail_share": sum(not r["ok"] for r in records) / len(records),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median((s["import_s"] + s["build_s"]) / slowdown(s)
                                     for s in setups),
    }


def per_layer(args, setups, plains, traced, lines) -> tuple:
    """plains: the untraced passes run before and after the traced one."""
    problems = []
    for plain in plains:
        for a, b in zip(plain["records"], traced["records"]):
            if outcome(a) != outcome(b):
                problems.append(f"traced values differ: {a['kind']} "
                                f"{a['field']} {a['params']}")
    for name, n in traced["bindings"].items():
        if n < 1:
            problems.append(f"traced name {name} is bound nowhere")
    for name, workload in layers.EXERCISED_BY.items():
        if workload == args.workload and not traced["calls"].get(name):
            problems.append(f"traced name {name} recorded no call on {workload}")
    recs = traced["records"]
    plain_wall = statistics.mean(sum(scaled_ms(p)) for p in plains) / 1e3
    m = dict(traced["layers"])
    m.update({
        "checks.attempted": len(recs),
        "checks.failed": sum(not r["ok"] for r in recs),
        "checks.raised": sum(r["raised"] is not None for r in recs),
        "checks.worst_err_ratio": max((r["err_ratio"] for r in recs
                                       if r["err_ratio"] is not None
                                       and math.isfinite(r["err_ratio"])),
                                      default=0.0),
        "trace.overhead": sum(scaled_ms(traced)) / 1e3 / plain_wall - 1.0,
        "setup.import_s": statistics.median(s["import_s"] for s in setups),
        "setup.build_s": statistics.median(s["build_s"] for s in setups),
    })
    lines.append("untraced walls " + ", ".join(f"{p['wall_s']:.3f}" for p in plains)
                 + f" s; traced wall {traced['wall_s']:.3f} s")
    return m, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="heckeis benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "heckeis" / "__init__.py").is_file():
        print(f"error: no heckeis source tree at {SRC}; run inside a checkout "
              f"of the repository", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    lines = [f"heckeis benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    try:
        # the first set-up process warms the file cache and bytecode; it is
        # not measured
        setups = [run_child("setup", args, deadline)
                  for _ in range(SETUP_REPS + 1)][1:]
        env = dict(source_record(), **setups[0]["env"])
        lines.append("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            # untraced passes on both sides of the traced one, so drift of
            # the machine's speed during the run cancels in the overhead
            plains = [run_child("checks", args, deadline)]
            traced = run_child("traced", args, deadline)
            plains.append(run_child("checks", args, deadline))
            metrics, problems = per_layer(args, setups, plains, traced, lines)
            problems += check_problems(plains[0]["records"])
            names = layers.PER_LAYER
            runs, timed = plains + [traced], plains
        else:
            # passes until the next one would end past --seconds of
            # measuring (set-up not counted), at least one
            passes, measure_start = [], time.monotonic()
            while True:
                t0 = time.monotonic()
                passes.append(run_child("checks", args, deadline))
                last = time.monotonic() - t0
                if time.monotonic() - measure_start + last > args.seconds:
                    break
            metrics = end_to_end(setups, passes, lines)
            problems = check_problems(passes[0]["records"])
            first = [outcome(r) for r in passes[0]["records"]]
            if any([outcome(r) for r in p["records"]] != first for p in passes):
                problems.append("passes gave different values for the same inputs")
            names = END_TO_END
            runs = timed = passes
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = [r for run in runs for r in run["records"]]
    for i, r in enumerate(runs[0]["records"]):
        status = r["raised"] or "err/tol %.3g" % r["err_ratio"]
        if not r["ok"]:
            status = f"FAILED ({r['known_defect'] or 'unexpected'}): {status}"
        ms = statistics.median(run["records"][i]["ms"] for run in timed)
        lines.append(f"check {i:2d} {ms:9.1f} ms raw  {r['kind']} {r['field']} "
                     f"{json.dumps(r['params'])}  {status}")
    lines.extend(problems)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in names},
    }
    for name, unit in names:
        lines.append(f"{name} = {metrics[name]:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
