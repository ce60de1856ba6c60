"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, union_length  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tail_percentile_has_ten_samples_beyond_it():
    for n in range(11, 400):
        p = stats.tail_percentile(n)
        assert n - stats.rank(p, n) >= 10, n
        # and it is the highest such percentile
        assert p == 99 or n - stats.rank(p + 1, n) < 10, n


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(10)


def test_harrell_davis_quantiles():
    assert stats.harrell_davis([3.0] * 26, 0.5) == pytest.approx(3.0)
    # symmetric weights: the median of 0..n-1 is (n-1)/2, in any input order
    assert stats.harrell_davis(list(range(40))[::-1], 0.5) == pytest.approx(19.5)
    values = [7, 40, 41, 250, 290, 400, 410, 1500, 2600, 3800] * 3
    qs = [stats.harrell_davis(values, p / 100) for p in (20, 50, 66)]
    assert qs == sorted(qs)
    with pytest.raises(ValueError):
        stats.harrell_davis(values, 0.99)


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    counted = tr.counted("igamma", lambda order: clock.__setattr__(
        "now", clock.now + 0.5))
    parent = tr.open("parent")
    clock.now = 1.0
    child = tr.open("child")
    clock.now = 3.0
    tr.close(child)
    counted(1.0)                        # 3.0 -> 3.5, credited to the parent
    clock.now = 4.0
    child = tr.open("child")
    clock.now = 5.0
    tr.close(child)
    clock.now = 10.0
    tr.close(parent)
    summary = tr.summary()
    assert summary["parent"]["busy_s"] == 10.0
    assert summary["parent"]["self_s"] == 10.0 - 2.0 - 1.0 - 0.5
    assert summary["child"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_nested_same_name_spans_count_busy_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    outer = tr.open("f")
    clock.now = 1.0
    inner = tr.open("f")
    clock.now = 2.0
    tr.close(inner)
    clock.now = 4.0
    tr.close(outer)
    assert tr.summary()["f"]["busy_s"] == 4.0


def test_hit_ratio_counts_by_object_identity():
    tr = Tracer()
    cache = {}

    def cached(key):
        return cache.setdefault(key, [key])

    def fresh(key):
        return [key]                    # equal each time, never the same object

    wrapped_cached = tr.spanned("c", cached, lambda a, out: tr.note_identity("c", out))
    wrapped_fresh = tr.spanned("f", fresh, lambda a, out: tr.note_identity("f", out))
    for key in (1, 1, 2, 1):
        wrapped_cached(key)
        wrapped_fresh(key)
    assert tr.counts["c.hits"] == 2
    assert tr.counts["f.hits"] == 0


def test_generator_spans_cover_only_resumes():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def gen():
        for i in range(3):
            clock.now += 1.0
            yield i

    items = []
    for item in tr.spanned_generator("g", gen)():
        clock.now += 10.0               # consumer work, outside the span
        items.append(item)
    assert items == [0, 1, 2]
    assert tr.counts["g.calls"] == 1
    assert tr.summary()["g"]["busy_s"] == 3.0


def test_rebind_reaches_every_module_and_uninstall_restores(monkeypatch):
    def target():
        return 1

    for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
        mod = types.ModuleType(name)
        mod.target = target
        monkeypatch.setitem(sys.modules, name, mod)
    sys.modules["fakepkg.b"].alias = target
    tr = Tracer()
    wrapped = tr.spanned("t", target)
    assert tr.rebind(target, wrapped, package="fakepkg") == 4
    assert sys.modules["fakepkg.b"].alias is wrapped
    tr.uninstall()
    assert all(sys.modules[n].target is target
               for n in ("fakepkg", "fakepkg.a", "fakepkg.b"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_new_seed_changes_inputs_not_check_count(workload):
    a, b = workloads.specs(workload, 1), workloads.specs(workload, 2)
    assert len(a) == len(b) > stats.TAIL_BEYOND
    assert a != b
    assert a == workloads.specs(workload, 1)
    assert [x["kind"] for x in a] == [x["kind"] for x in b]
    # every deck carries its known-defect checks, so fail_share is never 0
    assert any(x.get("known_defect") for x in a)


def test_jitter_keeps_the_class_of_s():
    for seed in range(20):
        for spec in workloads.specs("torus", seed):
            s = spec.get("s")
            if s is None or (s.imag == 0 and s.real == round(s.real)):
                continue
            base = min(workloads.TORUS_S, key=lambda t: abs(complex(t) - s))
            assert (s.imag == 0) == (complex(base).imag == 0)
            assert s.real != round(s.real)


def test_is_int_order_matches_the_special_case():
    assert layers.is_int_order(-1.0) and layers.is_int_order(0)
    assert layers.is_int_order(complex(-4, 0))
    assert not layers.is_int_order(2.0)
    assert not layers.is_int_order(-0.5)
    assert not layers.is_int_order(complex(-1, 0.9))


def test_slowdown_is_cpu_share_times_kernel_speed():
    nominal = calibrate.NOMINAL_S
    quiet = {"loop_s": 10.0, "cpu_s": 10.0, "gauge_cpu_s": [nominal] * 3}
    assert run.slowdown(quiet) == pytest.approx(1.0)
    # half the wall time went to other processes, and a CPU second does
    # a third less work
    busy = {"loop_s": 20.0, "cpu_s": 10.0,
            "gauge_cpu_s": [1.4 * nominal, 1.5 * nominal, 1.6 * nominal]}
    assert run.slowdown(busy) == pytest.approx(3.0)
    # work spread over two CPUs is not counted as a speed-up of the machine
    parallel = {"loop_s": 10.0, "cpu_s": 20.0, "gauge_cpu_s": [nominal]}
    assert run.slowdown(parallel) == pytest.approx(1.0)


def test_each_check_is_scaled_by_the_kernels_around_it():
    nominal = calibrate.NOMINAL_S
    p = {"loop_s": 12.0, "cpu_s": 6.0,
         "gauge_cpu_s": [nominal, nominal, 3 * nominal],
         "records": [{"ms": 100.0}, {"ms": 100.0}]}
    assert run.scaled_ms(p) == pytest.approx([50.0, 25.0])


def test_every_workload_has_a_calibration_kernel():
    assert set(calibrate.KERNELS) == set(workloads.WORKLOADS)
    for kernel in calibrate.KERNELS.values():
        first = kernel()
        assert complex(first) == kernel()      # fixed work, fixed result


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_traced_check_reproduces_untraced_values():
    import heckeis as hk
    spec = next(s for s in workloads.specs("continuation", 3)
                if s["lattice"]["d"] is None and not s.get("known_defect"))
    plain = workloads.build_check(hk, spec).fn()
    tr = Tracer()
    bindings = layers.install(tr)
    try:
        traced = workloads.build_check(hk, spec).fn()
    finally:
        tr.uninstall()
    # bound in specialfun, eisenstein, zeta and the package; all restored
    assert bindings[layers.IGAMMA] == 4
    assert hk.zeta.upper_incomplete_gamma is hk.specialfun.upper_incomplete_gamma

    def bits(values):
        return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]

    assert bits(traced) == bits(plain)
    calls = layers.call_counts(tr)
    assert calls["eisenstein.ehat_lattice"] == 1
    assert calls[layers.IGAMMA] > 0
