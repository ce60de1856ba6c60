"""The benchmark's workloads: seeded decks of certified identity checks run
through the public `heckeis` API.

A deck is a fixed-length list of check specs (plain data).  The seed draws
the lattices over Q afresh from the verify suite's ranges and moves every
non-integer s of the torus workload by up to JITTER.  The lattices over
imaginary quadratic fields, which carry most of the cost, are a fixed
design drawn once from the same distributions: the cost of `e_direct`
jumps fourfold with each extra doubling of its cutoff, and a 5% move of a
lattice's x or y is enough to add or remove one, so seeded lattices made
the direct-sums wall time range from 17 to 30 s over five seeds.  So a new
seed gives new inputs and the same number of checks, while the deck keeps
its mix of fields, covolumes and classes of s (integer, real, complex).

Known-defect checks are fixed inputs that fail at the time the benchmark was
written; they are in every deck, so `fail_share` is nonzero on purpose.
A failure anywhere else makes the run incorrect.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

WORKLOADS = ("direct-sums", "continuation", "torus")

# seeded move of a non-integer s of the torus workload, in each part
JITTER = 0.05
# the fixed design over imaginary quadratic fields comes from this seed
DESIGN_SEED = 7

IMAG_BASE_DS = (-1, -3, -2, -7, -11)
TORUS_DS = (2, 3, 5, 6, 7, 11, 13, 14, 21, 23)
TORUS_S = (2.0, 3.0, 1.5 + 0.5j, 0.3)
# node cost grows with the regulator: fields with regulator above 2.3
# (Q(sqrt d) for d = 7, 11, 14, 23) get two values of s and no limit-formula
# check, which keeps the deck near 25 s on a 2-core x86 box
SMALL_REGULATOR_DS = (2, 3, 5, 6, 13, 21)
TORUS_S_LARGE_REGULATOR = (2.0, 0.3)


@dataclass
class Check:
    """One certified identity: two routes and the tolerance they must meet."""

    kind: str
    field: str
    params: dict
    tol: float
    known_defect: Optional[str]
    fn: Callable[[], Tuple[complex, complex]]


# ---------------------------------------------------------------------------
# seeded inputs


def _jitter_s(rng: random.Random, s: complex) -> complex:
    """s moved by up to JITTER in each part.  Real s stays real and integer
    s stays put: integer and real orders take other code paths in the
    special functions, so jitter must not move s between those classes."""
    s = complex(s)
    if s.imag == 0 and s.real == round(s.real):
        return s
    re = s.real + rng.uniform(-1.0, 1.0) * JITTER
    im = s.imag + rng.uniform(-1.0, 1.0) * JITTER if s.imag else 0.0
    return complex(re, im)


def _draw_lattice(rng: random.Random, d: Optional[int]) -> dict:
    """One lattice from the verify suite's draw distribution."""
    if d is None:
        return {"d": None,
                "a": (rng.choice([1, 1, 1, 2, 3]), rng.choice([1, 1, 2])),
                "b": (rng.choice([1, 1, 1, 2]), rng.choice([1, 1, 2])),
                "x": rng.uniform(-1.0, 1.0),
                "y_abs": rng.uniform(0.6, 2.0), "y_arg": 0.0}
    return {"d": d,
            "a": (rng.choice([1, 1, 1, 2]), 1),
            "b": (rng.choice([1, 1, 1, 2]), 1),
            "x": complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
            "y_abs": rng.uniform(0.9, 1.4),
            "y_arg": rng.uniform(0.0, 2 * math.pi)}


def _lattices(rng: random.Random, d: Optional[int], count: int) -> List[dict]:
    """Seeded draws over Q; the fixed design over imaginary quadratic fields."""
    if d is not None:
        rng = random.Random(f"{DESIGN_SEED}:{d}")
    return [_draw_lattice(rng, d) for _ in range(count)]


def specs(workload: str, seed: int) -> List[dict]:
    """The deck of `workload` for `seed`: a list of check specs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    out: List[dict] = []
    if workload == "direct-sums":
        for d, count in [(None, 3)] + [(d, 1) for d in IMAG_BASE_DS]:
            for lat in _lattices(rng, d, count):
                for s in (2.5, 2.5 + 0.5j):
                    out.append({"kind": "direct-vs-expansion", "lattice": lat,
                                "s": complex(s), "tol": 1e-9})
        for d, hnf in ((-1, None), (-3, None), (-5, (2, 1, 1))):
            for s in (1.5, 2.0, 3.0):
                out.append({"kind": "partial-zeta-vs-direct", "d": d,
                            "hnf": hnf, "s": complex(s), "tol": 1e-6,
                            "cutoff": 8e5 if s == 1.5 else 2e5,
                            "direct_tol": 2e-7 if s == 1.5 else 1e-8})
        out.append({"kind": "direct-vs-expansion", "tol": 1e-9, "s": 2.5 + 0.5j,
                    "lattice": {"d": -11, "a": (2, 1), "b": (2, 1),
                                "x": 0.1 + 0.2j,
                                "y_abs": math.sqrt(222.0 / 176.0), "y_arg": 0.7},
                    "known_defect": "large covolume V=222: cancellation "
                                    "misses 1e-9"})
    elif workload == "continuation":
        for d in (None,) + IMAG_BASE_DS:
            for lat in _lattices(rng, d, 3):
                for s in (1.5, 0.3, 0.5 + 0.9j):
                    out.append({"kind": "functional-equation", "lattice": lat,
                                "s": complex(s), "tol": 1e-9})
        out.append({"kind": "functional-equation", "tol": 1e-9, "s": 2.5 + 0j,
                    "lattice": {"d": None, "a": (10, 1), "b": (10, 1),
                                "x": 0.3, "y_abs": 2.0, "y_arg": 0.0},
                    "known_defect": "large covolume V=200 at s=2.5: "
                                    "cancellation misses 1e-9"})
    else:
        for d in TORUS_DS:
            small = d in SMALL_REGULATOR_DS
            for s in TORUS_S if small else TORUS_S_LARGE_REGULATOR:
                out.append({"kind": "hecke-integral", "d": d,
                            "s": _jitter_s(rng, s), "tol": 1e-6})
            if small:
                out.append({"kind": "relative-klf", "d": d, "tol": 1e-5})
        for d in (19, 22):
            out.append({"kind": "hecke-integral", "d": d, "s": 3 + 0j, "tol": 1e-6,
                        "known_defect": "the Bessel pair sum raises "
                                        "ConvergenceError at s=3"})
    # a fixed shuffle spreads checks of similar cost over the pass, so a slow
    # stretch of the machine does not hit all the checks near one percentile
    random.Random(f"{DESIGN_SEED}:order:{workload}").shuffle(out)
    return out


# ---------------------------------------------------------------------------
# building inputs and checks


def _field(hk, d):
    return hk.make_field("Q") if d is None else hk.make_field(d)


def build_lattice(hk, lat: dict):
    F = _field(hk, lat["d"])
    if F.is_rational:
        a = hk.FracIdeal(F, gen=Fraction(*lat["a"]))
        b = hk.FracIdeal(F, gen=Fraction(*lat["b"]))
        z = hk.DNumber.from_xy(F, lat["x"], lat["y_abs"])
    else:
        a = hk.FracIdeal(F, gen=hk.QuadElement(F, Fraction(*lat["a"]), Fraction(0)))
        b = hk.FracIdeal(F, gen=hk.QuadElement(F, Fraction(*lat["b"]), Fraction(0)))
        y = cmath.rect(lat["y_abs"], lat["y_arg"])
        z = hk.DNumber(F, (hk.Quaternion(complex(lat["x"]), y),))
    return hk.OFLattice(F, a, z, b)


def _label(hk, spec: dict) -> str:
    d = spec["lattice"]["d"] if "lattice" in spec else spec["d"]
    return _field(hk, d).label


def _params(spec: dict, **extra) -> dict:
    out = {"s": [spec["s"].real, spec["s"].imag]} if "s" in spec else {}
    out.update(extra)
    return out


def build_check(hk, spec: dict) -> Check:
    """Construct the inputs of one spec (fields, lattices, HeckeSetups) and
    the closure that evaluates its two routes.  Evaluators are created inside
    the closure, so each check starts with its own cold pair cache."""
    kind = spec["kind"]
    s = spec.get("s")
    params = _params(spec)
    if kind == "direct-vs-expansion":
        lat = build_lattice(hk, spec["lattice"])
        F = lat.field
        params["volume"] = lat.covolume

        def fn():
            ev = hk.EisensteinEvaluator(lat)
            return (ev.ehat_expansion(s, 1e-11),
                    hk.gamma_F(F, 2 * s) * ev.e_direct(s, 4e-10))
    elif kind == "partial-zeta-vs-direct":
        K = hk.make_field(spec["d"])
        A = hk.FracIdeal.unit_ideal(K) if spec["hnf"] is None \
            else hk.FracIdeal.from_hnf(K, *spec["hnf"])
        setup = hk.HeckeSetup(K, A)
        dK = abs(K.discriminant)
        cutoff, direct_tol = spec["cutoff"], spec["direct_tol"]

        def fn():
            lhs, _ = hk.partial_zeta_series(K, A, s, cutoff)
            E = hk.EisensteinEvaluator(setup.base_lattice).e_direct(s, direct_tol)
            return lhs, (2.0 / K.w) * (math.sqrt(dK) / 2.0) ** (-s) * E
    elif kind == "functional-equation":
        lat = build_lattice(hk, spec["lattice"])
        params["volume"] = lat.covolume

        def fn():
            dual = hk.EisensteinEvaluator(lat.dual())
            return (hk.EisensteinEvaluator(lat).ehat_expansion(s, 1e-11),
                    dual.ehat_lattice(1 - s, 1e-11))
    elif kind == "hecke-integral":
        K = hk.make_field(spec["d"])
        setup = hk.HeckeSetup(K)

        def fn():
            return hk.hecke_integral(setup, s, 1e-8), hk.xi_K_oracle(K, s)
    elif kind == "relative-klf":
        setup = hk.HeckeSetup(hk.make_field(spec["d"]))

        def fn():
            out = hk.relative_klf_check(setup, 1e-8)
            return out["lhs"], out["rhs"]
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    return Check(kind, _label(hk, spec), params, spec["tol"],
                 spec.get("known_defect"), fn)


def build_deck(hk, workload: str, seed: int) -> List[Check]:
    return [build_check(hk, spec) for spec in specs(workload, seed)]
