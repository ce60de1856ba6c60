"""Verification suites: seeded, deterministic batteries of identity checks,
each producing a VerificationReport.

Suites: theta (Gaussian theta transformation, dual volumes, and the dual
at covolume 1 a turned copy of the lattice, as the theta split takes it),
fourier (expansion against the two lattice-sum routes), fe (functional
equation through the dual lattice, also at covolume 8.75e4 over
Q(sqrt-7)), klf (residue, limit-formula constants, h modularity, h over Q
against Dedekind's eta, the relative limit formula, also over the large
regulator of Q(sqrt193)), hecke (imaginary quadratic
partial zeta values against the direct Eisenstein sum at s = 1.5, 2, 3
and 2 + 0.5i, and the quadratic-extension integral formula at s = 2, 3
and 1.5 + 0.5i and over Q(sqrt193), each value against the
Dirichlet-series oracle itself), specialfun (gamma factor, Gamma's
duplication formula, Bessel, the K sum at real and complex orders against
the literal integral, and incomplete gamma checks), shells (one theta sum
through two splits of a ball into a ball and an annulus).

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
from .dalgebra import DNumber
from .eisenstein import EisensteinEvaluator
from .heckeint import (HeckeSetup, hecke_integral, relative_klf_check,
                       torus_measure_identity, xi_K_oracle)
from .lattice import OFLattice, ball_points
from .numerics import nested_trapezoid, neville_at_zero
from .reports import VerificationReport
# upper_incomplete_gamma through its module: the benchmark's tracer counts
# the modules that bind it by name
from . import specialfun
from .specialfun import bessel_k, gamma_F, gamma_F_integral
from .zeta import partial_zeta_series

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
    return OFLattice(F, a, DNumber.from_xy(F, x, y), b)


def _quaternion_matrix(x: complex, y: complex) -> np.ndarray:
    """The quaternion x + y j as the complex matrix [[x, y], [-conj y,
    conj x]]: matrix products are quaternion products (j c = conj(c) j), a
    complex scalar c is diag(c, conj c), and the determinant is
    |x|^2 + |y|^2 (Elstrodt, Grunewald and Mennicke, Groups Acting on
    Hyperbolic Space, 1998, ch. 1)."""
    x, y = complex(x), complex(y)
    return np.array([[x, y], [-y.conjugate(), x.conjugate()]])


def _field_of(d) -> FieldDescriptor:
    return make_field("Q") if d is None else make_field(d)


# ---------------------------------------------------------------------------
# theta suite


def checks_theta(seed: int = 7) -> List[Check]:
    rng = random.Random(seed)
    checks, turned = [], []
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
        turned.append(Check("dual-is-turned-lattice", F.label, {"draw": i},
                            1e-12, lambda lat=lat: (_turned_gap(lat), 0.0)))
    return checks + turned


def _unit_norms(lat: OFLattice, r: float) -> np.ndarray:
    """The sorted squared lengths of the points of lat rescaled to covolume
    1 with 0 < |l| <= r, one of each pair +-l; rescaled here, not by
    zeta._unit_covolume, the theta split's rescale that the check backs."""
    M = lat.M * lat.covolume ** (-1 / lat.dim)
    return np.sort(np.concatenate([np.zeros(0), *ball_points(M, r)]))


def _turned_gap(lat: OFLattice) -> float:
    """The largest relative gap between the sorted squared lengths of lat
    and of its dual, each rescaled to covolume 1, up to radius 3: 0 to
    rounding where the dual is a turned copy, as the theta split takes it.
    Points within 1e-9 of radius 3, whose partner may lie just past it, are
    left out; counts that differ give inf."""
    a, b = (n[n <= 9 * (1 - 1e-9)] for n in (_unit_norms(lat, 3.0),
                                              _unit_norms(lat.dual(), 3.0)))
    if a.size != b.size:
        return math.inf
    return float(np.max(np.abs(a - b) / a, initial=0.0))


# ---------------------------------------------------------------------------
# shells suite


def _theta_shell(lat: OFLattice, lo: float, hi: float) -> float:
    """Theta(1, Lambda) over the points with lo < ||lambda|| <= hi: the sum
    of exp(-n_v pi |lambda|^2) over both points of each +-pair."""
    total = 0.0
    for norms in lat.norm_chunks(hi, lo):
        if lat.field.is_rational:
            total += float(np.sum(np.exp(-math.pi * norms * norms)))
        else:
            total += float(np.sum(np.exp(-2.0 * math.pi * norms)))
    return 2.0 * total


def checks_shells(seed: int = 7) -> List[Check]:
    """Theta(1) over the ball ||lambda|| <= 4, as a ball and an annulus
    split at ||lambda|| = 2 and at 1.  ball_points keeps what it lists by
    basis and inner radius (and outer radius, for a listing of several
    blocks): each check asks for two annuli of one outer radius, every
    lattice of a base field for the same radii, and the ball of radius 1
    after that of radius 2, so that a ball of one block is served from the
    larger one, masked to its radius."""
    rng = random.Random(seed)
    checks = []
    for i in range(20):
        F = _field_of(SUPPORTED_BASE_DS[i % len(SUPPORTED_BASE_DS)])
        lat = _random_lattice(rng, F)
        checks.append(Check(
            "theta-annuli", F.label, {"draw": i, "volume": lat.covolume},
            1e-12, lambda lat=lat: tuple(_theta_shell(lat, 0.0, a)
                                         + _theta_shell(lat, a, 4.0)
                                         for a in (2.0, 1.0))))
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
    # a covolume of 8.75e4 over Q(sqrt-7), where |Ehat| is 11: the dual's
    # split sums it at covolume 1, so its lattice route stays cheap
    F, s = make_field(-7), 0.3 + 2j
    big = OFLattice(F, FracIdeal(F, gen=QuadElement(F, Fraction(100),
                                                    Fraction(0))),
                    DNumber.from_xy(F, 0.3 + 0.1j, 1.1 + 0.2j),
                    FracIdeal.unit_ideal(F))

    def fe_big():
        return (EisensteinEvaluator(big).ehat_expansion(s, 1e-11),
                EisensteinEvaluator(big.dual()).ehat_lattice(1 - s, 1e-11))

    checks.append(Check("functional-equation", F.label,
                        {"s": s, "volume": big.covolume}, 1e-9, fe_big))
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


def _eta(z: complex) -> complex:
    """Dedekind's eta(z) = q^(1/24) prod_(n >= 1) (1 - q^n), q = e^(2 pi i
    z), Im z > 0: the product up to the first |q^n| < 1e-18."""
    q = cmath.exp(2j * math.pi * z)
    eta, qn = cmath.exp(2j * math.pi * z / 24), q
    while abs(qn) >= 1e-18:
        eta *= 1 - qn
        qn *= q
    return eta


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

    # Kronecker's first limit formula over Q with a = b = Z: h(z) =
    # -4 log|eta(z)|, h at the check's tol, so that a pair sum stopped
    # short of its own tol shows; y down to 0.02 reaches far into the cusp
    eta_rng = random.Random(seed)
    for _ in range(12):
        y = math.exp(eta_rng.uniform(math.log(0.02), math.log(3.0)))
        z = complex(eta_rng.uniform(-0.5, 0.5), y)
        checks.append(Check("h-vs-eta", "Q", {"z": z}, 1e-10,
                            lambda z=z: (ev_of(z).h_value(1e-10),
                                         -4 * math.log(abs(_eta(z))))))

    Fi = make_field(-1)
    Oi = FracIdeal.unit_ideal(Fi)

    def h_quat(x: complex, y: complex) -> float:
        lat = OFLattice(Fi, Oi, DNumber.from_xy(Fi, x, y), Oi)
        return EisensteinEvaluator(lat).h_value(1e-11)

    def gl2_check():
        # w = (a z + b)(c z + d)^{-1} is the first row of N D^{-1}
        x, y = complex(0.2, -0.3), complex(1.1, 0.4)
        Z = _quaternion_matrix(x, y)
        a, b, c, d_ = (_quaternion_matrix(e, 0j)
                       for e in (1, 1, 1j, 1 + 1j))          # det = 1
        N, D = a @ Z + b, c @ Z + d_
        W = N @ np.linalg.inv(D)
        # |c z + d|^2 = det D
        return (h_quat(W[0, 0], W[0, 1]),
                h_quat(x, y) - 2 * math.log(np.linalg.det(D).real))

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

    # R = 15.1 and a unit of norm -1: rounding moves the nodes near
    # tau = +-R by up to 4.2e-10, and the value must still meet tol
    setup193 = HeckeSetup(make_field(193))

    def klf_large():
        out = relative_klf_check(setup193, 1e-8)
        return out["lhs"], out["rhs"]

    checks.append(Check("relative-klf-large-regulator", "Q(sqrt193)/Q",
                        {"ideal": "O"}, 1e-6, klf_large))
    return checks


# ---------------------------------------------------------------------------
# Hecke integral suite


def _imquad_zeta_check(K, A, s, ev, cutoff, direct_tol):
    """The partial zeta sum of the class of A at s, and the same value from
    e_direct of its base lattice."""
    def eq1():
        lhs, _ = partial_zeta_series(K, A, s, cutoff)
        E = ev.e_direct(s, direct_tol)
        dK = abs(K.discriminant)
        return lhs, (2.0 / K.w) * (math.sqrt(dK) / 2.0) ** (-s) * E
    return eq1


def checks_hecke(seed: int = 7) -> List[Check]:
    checks = []

    cases = [(make_field(-1), None), (make_field(-3), None),
             (make_field(-5), (2, 1, 1))]
    for K, hnf in cases:
        A = FracIdeal.unit_ideal(K) if hnf is None \
            else FracIdeal.from_hnf(K, *hnf)
        setup = HeckeSetup(K, A)
        ev = EisensteinEvaluator(setup.base_lattice)
        for s in (1.5, 2.0, 3.0):
            cutoff = 8e5 if s == 1.5 else 2e5
            direct_tol = 2e-7 if s == 1.5 else 1e-8
            checks.append(Check("imquad-zeta-vs-eisenstein", K.label,
                                {"s": s, "ideal": str(A), "cutoff": cutoff},
                                1e-6, _imquad_zeta_check(K, A, s, ev, cutoff,
                                                         direct_tol)))
        # at a complex s e_direct forms its phases with eisenstein._phase,
        # the partial sum with numpy's complex exp: the values agree to
        # 2.3e-9 (Q(sqrt-5)), and a relative 1e-7 on the phases moves them
        # by 5.5e-8 or more
        s = 2 + 0.5j
        checks.append(Check("imquad-zeta-vs-eisenstein-complex-s", K.label,
                            {"s": s, "ideal": str(A), "cutoff": 2e5}, 1e-8,
                            _imquad_zeta_check(K, A, s, ev, 2e5, 1e-9)))

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
        "hecke-integral-s3", "Q(sqrt5)/Q", {"s": 3.0}, 1e-8,
        lambda: (hecke_integral(setup5, 3.0, 1e-9), xi_K_oracle(K5r, 3.0))))
    K193 = make_field(193)
    setup193 = HeckeSetup(K193)
    checks.append(Check(
        "hecke-integral-large-regulator", "Q(sqrt193)/Q", {"s": 2.0}, 1e-6,
        lambda: (hecke_integral(setup193, 2.0, 1e-8), xi_K_oracle(K193, 2.0))))
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
            lambda x=x: (bessel_k(0.5, x),
                         math.sqrt(math.pi / x) * math.exp(-2 * x))))
    checks.append(Check(
        "bessel-order-symmetry", "-", {"s": 0.7 + 0.3j, "x": 2.0}, 1e-12,
        lambda: (bessel_k(0.7 + 0.3j, 2.0), bessel_k(-0.7 - 0.3j, 2.0))))
    return checks


def checks_gamma(seed: int = 7) -> List[Check]:
    """Legendre's duplication formula Gamma(s) Gamma(s + 1/2) = 2^(1-2s)
    sqrt(pi) Gamma(2s) at Re s >= 1/2, where all three values come from
    Lanczos's sum unreflected: a factor on the sum shows, since the left
    side takes it twice and the right once.  Both sides over |right side|;
    the specialfun suite runs these after checks_specialfun."""
    checks = []
    for s in (0.6 + 0.2j, 2.5 - 3.0j, 9.0 + 15.0j):
        def duplication(s=s):
            rhs = cmath.exp((1 - 2 * s) * math.log(2)) * math.sqrt(math.pi) \
                * specialfun.complex_gamma(2 * s)
            lhs = specialfun.complex_gamma(s) \
                * specialfun.complex_gamma(s + 0.5)
            return lhs / abs(rhs), rhs / abs(rhs)

        checks.append(Check("gamma-duplication", "-", {"s": s}, 1e-12,
                            duplication))
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

    # the same at 256 arguments in [4, 60], where both orders take the
    # continued fraction on arrays; each side over x^s e^-x (about 1 there),
    # the element farthest apart reported
    nu_array = 1 - 1.8j

    def recurrence_on_array():
        xs = np.geomspace(4.0, 60.0, 256)
        power = np.exp(nu_array * np.log(xs) - xs)
        lhs = specialfun.upper_incomplete_gamma(nu_array + 1, xs) / power
        rhs = nu_array * specialfun.upper_incomplete_gamma(nu_array, xs) \
            / power + 1.0
        worst = int(np.argmax(np.abs(lhs - rhs)))
        return lhs[worst], rhs[worst]

    checks.append(Check(
        "incgamma-recurrence-array", "-",
        {"s": nu_array, "x": "256 in [4, 60]"}, 1e-12, recurrence_on_array))
    # Gamma(1 - n, x) = -n Gamma(-n, x) + x^-n e^-x at the integer orders,
    # at 32 arguments in [0.05, 30]: the 15 below 1 take E_1's series and
    # the recurrence in n, the 17 above the continued fraction on arrays
    for n in (1, 2):
        def integer_recurrence(n=n):
            xs = np.geomspace(0.05, 30.0, 32)
            power = xs ** -float(n) * np.exp(-xs)
            lhs = specialfun.upper_incomplete_gamma(1 - n, xs) / power
            rhs = -n * specialfun.upper_incomplete_gamma(-n, xs) / power + 1.0
            worst = int(np.argmax(np.abs(lhs - rhs)))
            return lhs[worst], rhs[worst]

        checks.append(Check(
            "incgamma-integer-order-recurrence", "-",
            {"n": n, "x": "32 in [0.05, 30]"}, 1e-12, integer_recurrence))
    # Gamma(1/2, x) = sqrt(pi) erfc(sqrt x), both sides times e^x so that
    # the tolerance stays relative as the value decays
    for x in (0.5, 5.0, 30.0):
        checks.append(Check(
            "incgamma-half-order-erfc", "-", {"x": x}, 1e-12,
            lambda x=x: (
                specialfun.upper_incomplete_gamma(0.5, x) * math.exp(x),
                math.sqrt(math.pi) * math.erfc(math.sqrt(x)) * math.exp(x))))
    return checks


def _bessel_k_reference(nu: complex, x: float, tol: float) -> complex:
    """K_nu(x) as the literal integral int e^(-2x cosh t + nu t) dt over the
    real line, by nested trapezoid sums from step 1/2 to two levels within
    tol: the reference the fixed-step sum is held against.  The sum reaches
    the T where 2x cosh T - |Re nu| T = log(1/tol) + 8, plus 1/2."""
    L = math.log(1 / tol) + 8.0
    T, last = 1.0, 0.0
    while abs(T - last) >= 1e-3:
        T, last = math.acosh(max(1.0, (L + abs(nu.real) * T) / (2 * x))), T
    T += 0.5
    return nested_trapezoid(
        lambda t: np.exp(-2.0 * x * np.cosh(t) + nu * t),
        lambda h: np.arange(-math.floor(T / h), math.floor(T / h) + 1),
        0.5, tol, "K reference")


def checks_bessel_kv(seed: int = 7) -> List[Check]:
    """The fixed-step sum against the literal integral (_bessel_k_reference)
    at real orders and at the complex orders n_v (s - 1/2) of the benchmark
    decks, both sides over K_(|Re nu|)(x), the scale of the sum's error
    (K_(iT) has zeros for 2x < T); the specialfun suite runs them after
    checks_incgamma."""
    checks = []
    for nu in (-0.2, 0.5, 1.0, 2.5, 4.0, 0.9j, 1.8j, 1 + 0.5j, 2 + 0.5j,
               4 + 1j):
        for x in (0.3, 2.0, 15.0):
            def kv_vs_trapezoid(nu=nu, x=x):
                scale = bessel_k(abs(nu.real), x).real
                ref = _bessel_k_reference(complex(nu), x, 2.5e-15 * scale)
                return bessel_k(nu, x) / scale, ref / scale

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
                                  + checks_gamma(seed)
                                  + checks_incgamma(seed)
                                  + checks_bessel_kv(seed)),
    "shells": checks_shells,
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
