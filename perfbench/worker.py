"""One measured process of the benchmark.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

Times `import heckeis` and the build of the workload's inputs, then, unless
MODE is `setup`, runs the deck's checks one after another (closed loop, one
client), timing the workload's calibration kernel (calibrate.py) before the
first check and after each.  MODE `traced` wraps the traced layers first.
The last line of standard output is one JSON object with the results.  `heckeis` must be
importable (run.py puts the checkout's `src` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

import calibrate
import workloads

# calibration kernels a set-up process runs after its set-up
SETUP_GAUGES = 5


def environment(hk) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "heckeis": hk.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(numpy),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _openblas_threads(numpy):
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def steal_s():
    """CPU time the hypervisor gave to others, summed over this machine's
    CPUs (Linux /proc/stat), or None where it is not available."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_time() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def gauge(kernel) -> float:
    """CPU time of one run of a calibration kernel, in seconds."""
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0


def run_checks(deck, kernel) -> tuple:
    """Run the deck; return its records and the calibration kernel's CPU
    times before the first check and after each check."""
    records, gauges = [], [gauge(kernel)]
    for check in deck:
        rec = {"kind": check.kind, "field": check.field, "params": check.params,
               "tol": check.tol, "known_defect": check.known_defect,
               "raised": None, "err_ratio": None, "values": None}
        t0 = time.perf_counter()
        try:
            lhs, rhs = check.fn()
        except Exception as exc:  # a check that raises is a failed check
            rec["raised"] = f"{type(exc).__name__}: {exc}"
        rec["ms"] = (time.perf_counter() - t0) * 1e3
        if rec["raised"] is None:
            lhs, rhs = complex(lhs), complex(rhs)
            err = abs(lhs - rhs)
            rec["err_ratio"] = err / check.tol
            rec["values"] = [v.hex() for v in (lhs.real, lhs.imag,
                                                rhs.real, rhs.imag)]
        rec["ok"] = rec["err_ratio"] is not None and rec["err_ratio"] <= 1.0
        records.append(rec)
        gauges.append(gauge(kernel))
    return records, gauges


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "checks", "traced"))
    args = ap.parse_args(argv)

    t0, cpu0 = time.perf_counter(), cpu_time()
    import heckeis as hk
    import_s = time.perf_counter() - t0

    tracer = bindings = None
    if args.mode == "traced":
        import layers
        from tracer import Tracer
        tracer = Tracer()
        bindings = layers.install(tracer)

    t1 = time.perf_counter()
    deck = workloads.build_deck(hk, args.workload, args.seed)
    out = {"import_s": import_s, "build_s": time.perf_counter() - t1}
    kernel = calibrate.KERNELS[args.workload]
    if args.mode == "setup":
        # loop_s, cpu_s and gauge_cpu_s as for a pass (run.slowdown)
        out["loop_s"] = time.perf_counter() - t0
        out["cpu_s"] = cpu_time() - cpu0
        out["gauge_cpu_s"] = [gauge(kernel) for _ in range(SETUP_GAUGES)]
        out["env"] = environment(hk)
    else:
        steal0, cpu0, t2 = steal_s(), cpu_time(), time.perf_counter()
        out["records"], out["gauge_cpu_s"] = run_checks(deck, kernel)
        # loop_s and cpu_s cover checks and calibration kernels; wall_s
        # only the checks
        out["loop_s"] = time.perf_counter() - t2
        out["cpu_s"] = cpu_time() - cpu0
        out["wall_s"] = sum(r["ms"] for r in out["records"]) / 1e3
        steal1 = steal_s()
        out["steal_s"] = None if steal0 is None else steal1 - steal0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = layers.metrics(tracer, out["wall_s"])
            out["calls"] = layers.call_counts(tracer)
            out["bindings"] = bindings
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
