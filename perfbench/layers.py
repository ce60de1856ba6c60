"""The traced layers of heckeis: which public names the traced run wraps,
and the per-layer metrics derived from its spans and counters."""

from __future__ import annotations

from typing import Dict

from tracer import Tracer

# (metric name, unit), in report order; BENCHMARK.json lists the same names
PER_LAYER = [
    ("checks.attempted", "count"),
    ("checks.failed", "count"),
    ("checks.raised", "count"),
    ("checks.worst_err_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
    ("lattice.norm_chunks.calls", "count"),
    ("lattice.norm_chunks.points", "count"),
    ("lattice.norm_chunks.busy_s", "s"),
    ("lattice.norm_chunks.points_per_s", "1/s"),
    ("eisenstein.e_direct.calls", "count"),
    ("eisenstein.e_direct.busy_s", "s"),
    ("eisenstein.e_direct.self_s", "s"),
    ("direct_sum.wall_share", "ratio"),
    ("eisenstein.ehat_expansion.calls", "count"),
    ("eisenstein.ehat_expansion.busy_s", "s"),
    ("eisenstein.term3.calls", "count"),
    ("eisenstein.term3.busy_s", "s"),
    ("eisenstein.term3.self_s", "s"),
    ("eisenstein.ehat_lattice.calls", "count"),
    ("eisenstein.ehat_lattice.busy_s", "s"),
    ("eisenstein.ehat_lattice.self_s", "s"),
    ("specialfun.upper_incomplete_gamma.calls", "count"),
    ("specialfun.upper_incomplete_gamma.busy_s", "s"),
    ("specialfun.upper_incomplete_gamma.evals_per_s", "1/s"),
    ("specialfun.upper_incomplete_gamma.int_order_share", "ratio"),
    ("specialfun.upper_incomplete_gamma.wall_share", "ratio"),
    ("specialfun.bessel_k_batch.calls", "count"),
    ("specialfun.bessel_k_batch.args", "count"),
    ("specialfun.bessel_k_batch.busy_s", "s"),
    ("specialfun.bessel_k_batch.args_per_s", "1/s"),
    ("specialfun.bessel_k_batch.args_per_call", "count"),
    ("specialfun.bessel_k_batch.wall_share", "ratio"),
    ("heckeint.hecke_integral.calls", "count"),
    ("heckeint.hecke_integral.busy_s", "s"),
    ("heckeint.relative_klf_check.calls", "count"),
    ("heckeint.relative_klf_check.busy_s", "s"),
    ("heckeint.evaluator_at.calls", "count"),
    ("heckeint.evaluator_at.busy_s", "s"),
    ("heckeint.nodes_per_integral", "count"),
    ("zeta.completed_zeta.calls", "count"),
    ("zeta.completed_zeta.hit_ratio", "ratio"),
    ("zeta.CompletedZeta.value.calls", "count"),
    ("zeta.CompletedZeta.value.busy_s", "s"),
    ("zeta.partial_zeta_series.calls", "count"),
    ("zeta.partial_zeta_series.busy_s", "s"),
    ("work.peak_array_mb", "MB"),
]

IGAMMA = "specialfun.upper_incomplete_gamma"
BESSEL = "specialfun.bessel_k_batch"
NORM_CHUNKS = "lattice.norm_chunks"
COMPLETED_ZETA = "zeta.completed_zeta"

# the workload each wrapped name must record calls on
EXERCISED_BY = {
    NORM_CHUNKS: "direct-sums",
    "eisenstein.e_direct": "direct-sums",
    "zeta.partial_zeta_series": "direct-sums",
    "eisenstein.ehat_lattice": "continuation",
    IGAMMA: "continuation",
    "eisenstein.ehat_expansion": "continuation",
    "eisenstein.term3": "torus",
    BESSEL: "torus",
    "heckeint.hecke_integral": "torus",
    "heckeint.relative_klf_check": "torus",
    "heckeint.evaluator_at": "torus",
    COMPLETED_ZETA: "torus",
    "zeta.CompletedZeta.value": "torus",
}


def is_int_order(order) -> bool:
    """The integer orders <= 0 that upper_incomplete_gamma special-cases."""
    z = complex(order)
    r = round(z.real)
    return r <= 0 and abs(z - r) < 1e-12


def install(tracer: Tracer) -> Dict[str, int]:
    """Wrap the traced names.  Methods are replaced on their class;
    functions are re-bound in every heckeis module that imported them, and
    the number of bindings replaced per function is returned."""
    from heckeis import eisenstein, heckeint, lattice, specialfun, zeta

    def count_points(chunk):
        tracer.counts[NORM_CHUNKS + ".points"] += chunk.size
        tracer.note_array(chunk.nbytes)

    def count_args(args, out):
        tracer.counts[BESSEL + ".args"] += out.size
        tracer.note_array(out.nbytes)

    def note_zeta(args, out):
        tracer.note_identity(COMPLETED_ZETA, out)

    for cls, attr, name in [
            (eisenstein.EisensteinEvaluator, "e_direct", "eisenstein.e_direct"),
            (eisenstein.EisensteinEvaluator, "ehat_expansion",
             "eisenstein.ehat_expansion"),
            (eisenstein.EisensteinEvaluator, "term3", "eisenstein.term3"),
            (eisenstein.EisensteinEvaluator, "ehat_lattice",
             "eisenstein.ehat_lattice"),
            (zeta.CompletedZeta, "value", "zeta.CompletedZeta.value"),
            (heckeint.HeckeSetup, "evaluator_at", "heckeint.evaluator_at")]:
        tracer.patch_method(cls, attr, tracer.spanned(name, cls.__dict__[attr]))
    tracer.patch_method(
        lattice.OFLattice, "norm_chunks",
        tracer.spanned_generator(NORM_CHUNKS, lattice.OFLattice.norm_chunks,
                                 per_item=count_points))

    bindings = {}
    for fn, name, after in [
            (specialfun.bessel_k_batch, BESSEL, count_args),
            (zeta.completed_zeta, COMPLETED_ZETA, note_zeta),
            (zeta.partial_zeta_series, "zeta.partial_zeta_series", None),
            (heckeint.hecke_integral, "heckeint.hecke_integral", None),
            (heckeint.relative_klf_check, "heckeint.relative_klf_check", None)]:
        bindings[name] = tracer.rebind(fn, tracer.spanned(name, fn, after))
    fn = specialfun.upper_incomplete_gamma
    bindings[IGAMMA] = tracer.rebind(fn, tracer.counted(IGAMMA, fn))
    return bindings


def metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass whose checks took wall_s."""
    summary = tracer.summary()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out: Dict[str, float] = {"trace.wall_s": wall_s}

    def ratio(a, b):
        return a / b if b else 0.0

    for name in ("eisenstein.e_direct", "eisenstein.ehat_expansion",
                 "eisenstein.term3", "eisenstein.ehat_lattice",
                 "heckeint.hecke_integral", "heckeint.relative_klf_check",
                 "heckeint.evaluator_at", "zeta.CompletedZeta.value",
                 "zeta.partial_zeta_series", BESSEL, COMPLETED_ZETA):
        row = summary.get(name, zero)
        out[name + ".calls"] = row["calls"]
        out[name + ".busy_s"] = row["busy_s"]
        out[name + ".self_s"] = row["self_s"]

    chunks = summary.get(NORM_CHUNKS, zero)
    points = tracer.counts[NORM_CHUNKS + ".points"]
    out[NORM_CHUNKS + ".calls"] = tracer.counts[NORM_CHUNKS + ".calls"]
    out[NORM_CHUNKS + ".points"] = points
    out[NORM_CHUNKS + ".busy_s"] = chunks["busy_s"]
    out[NORM_CHUNKS + ".points_per_s"] = ratio(points, chunks["busy_s"])
    out["direct_sum.wall_share"] = ratio(
        chunks["busy_s"] + out["eisenstein.e_direct.self_s"], wall_s)

    orders = tracer.order_counts()
    calls = sum(orders.values())
    busy = tracer.counts[IGAMMA + ".busy_s"]
    out[IGAMMA + ".calls"] = calls
    out[IGAMMA + ".busy_s"] = busy
    out[IGAMMA + ".evals_per_s"] = ratio(calls, busy)
    out[IGAMMA + ".int_order_share"] = ratio(
        sum(n for o, n in orders.items() if is_int_order(o)), calls)
    out[IGAMMA + ".wall_share"] = ratio(busy, wall_s)

    args = tracer.counts[BESSEL + ".args"]
    out[BESSEL + ".args"] = args
    out[BESSEL + ".args_per_s"] = ratio(args, out[BESSEL + ".busy_s"])
    out[BESSEL + ".args_per_call"] = ratio(args, out[BESSEL + ".calls"])
    out[BESSEL + ".wall_share"] = ratio(out[BESSEL + ".busy_s"], wall_s)

    # node evaluations per torus check (each hecke_integral or
    # relative_klf_check call is one check)
    out["heckeint.nodes_per_integral"] = ratio(
        out["heckeint.evaluator_at.calls"],
        out["heckeint.hecke_integral.calls"]
        + out["heckeint.relative_klf_check.calls"])
    out[COMPLETED_ZETA + ".hit_ratio"] = ratio(
        tracer.counts[COMPLETED_ZETA + ".hits"], out[COMPLETED_ZETA + ".calls"])
    out["work.peak_array_mb"] = tracer.peak_array_bytes / 2**20
    return out


def call_counts(tracer: Tracer) -> Dict[str, float]:
    """Calls recorded per wrapped name (for the every-name-exercised check)."""
    summary = tracer.summary()
    out = {name: row["calls"] for name, row in summary.items()}
    out[NORM_CHUNKS] = tracer.counts[NORM_CHUNKS + ".calls"]
    out[IGAMMA] = sum(tracer.order_counts().values())
    return out
