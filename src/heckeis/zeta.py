"""Partial and completed zeta functions.

Two independent routes are kept deliberately separate:

* Dirichlet-series evaluators (riemann_zeta, hurwitz_zeta, dirichlet_l,
  zeta_K), the oracles: one Euler-Maclaurin kernel, hurwitz_zeta over an
  array of shifts, that uses nothing of lattice, specialfun or the theta
  code; dirichlet_l is one call of it over the residues of chi_D.
* The globally continued completed zeta xi(s, a) of an ideal: theta_split,
  Hecke's theta split of the Gaussian Mellin integral with Poisson
  summation on the inner part, taken on the lattice rescaled to covolume
  1, where V V* = 1 and the dual L* is a turned copy of L: both halves sum
  over one listing.  Its exponentially convergent incomplete-gamma sums
  (gamma_lattice_sum, enumerated once to a cutoff its proven tail bound
  sets, DLMF §8.10) make xi valid for all s (simple poles at 0 and 1 with
  residues -C_F, +C_F) and the functional equation xi(s, a) = xi(1-s, a*)
  manifest.  xi is the split of an ideal (rank 1 over Q, 2 over an
  imaginary field); the lattice route of Ehat (eisenstein) is the split of
  an O_F-lattice (rank 2 or 4).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .basefield import FieldDescriptor, FracIdeal
from .errors import PoleError, UnsupportedFieldError
from .lattice import ball_points, ideal_embedding_matrix
from .specialfun import upper_incomplete_gamma

_EULER_GAMMA = 0.5772156649015328606

# B_2k/(2k)! for the Euler-Maclaurin corrections k = 1, ..., 11
_BERNOULLI_COEFFS = np.array([float(Fraction(b) / math.factorial(2 * k))
                              for k, b in enumerate("1/6 -1/30 1/42 -1/30 "
                              "5/66 -691/2730 7/6 -3617/510 43867/798 "
                              "-174611/330 854513/138".split(), start=1)])
# hurwitz_zeta sums N = _HURWITZ_TERMS terms (n+a)^-s directly, then the
# tail (N+a)^(e-s) at e = 1 (the pole term), 0 (the half term) and 1 - 2k.
# Per column of its array: the power e (0 on the direct terms) and the n of
# log(n + a); and the factors s + j, j <= 2k - 2, of s(s+1)...(s+2k-2)
_HURWITZ_TERMS = 28
_POWERS = np.concatenate((np.zeros(_HURWITZ_TERMS), [1.0, 0.0],
                          1.0 - 2 * np.arange(1, _BERNOULLI_COEFFS.size + 1)))
_LOG_STEPS = np.minimum(np.arange(_POWERS.size, dtype=float), _HURWITZ_TERMS)
_POCH_STEPS = np.arange(2.0 * _BERNOULLI_COEFFS.size - 1)
# Taylor coefficients at z = 0 of E(z) = (e^z - 1)/z, 1/(n+1)! at z^n for
# n = 0..9, and of E'(z), n/(n+1)! at z^(n-1)
_TAYLOR_POWERS = np.arange(10.0)
_E_TAYLOR = 1 / np.array([math.factorial(n + 1) for n in range(10)])
_DE_TAYLOR = _TAYLOR_POWERS[1:] * _E_TAYLOR[1:]


def c_F(F: FieldDescriptor) -> float:
    """The constant 2^r1 (2 pi)^r2 R_F / w_F (residue of xi at s = 1)."""
    return 2.0 ** F.r1 * (2 * math.pi) ** F.r2 * F.regulator / F.w


# ---------------------------------------------------------------------------
# Euler-Maclaurin evaluators (oracle route)


def _coefficients(s, minus_pole: bool, derivative: bool):
    """hurwitz_zeta's coefficient of each column: 1 on the direct terms,
    then 1/(s-1) (0 with minus_pole), 1/2 and B_2k/(2k)! s(s+1)...(s+2k-2);
    with derivative=True also their s-derivatives."""
    pole = 0.0 if minus_pole else 1 / (s - 1)
    factors = s + _POCH_STEPS
    cs = np.concatenate((np.ones(_HURWITZ_TERMS), (pole, 0.5),
                         _BERNOULLI_COEFFS * np.cumprod(factors)[::2]))
    if not derivative:
        return cs, None
    # the product rule: d/ds of the product of factors 0..j sums, over each
    # factor i <= j, the product of the others
    others = np.where(np.eye(factors.size, dtype=bool), 1.0, factors)
    dpoch = np.triu(np.cumprod(others, axis=1)).sum(axis=0)
    return cs, np.concatenate((np.zeros(_HURWITZ_TERMS), (-pole * pole, 0.0),
                               _BERNOULLI_COEFFS * dpoch[::2]))


def hurwitz_zeta(s: complex, a, derivative: bool = False,
                 minus_pole: bool = False):
    """zeta(s, a) = sum_{n >= 0} (n+a)^(-s), continued by Euler-Maclaurin,
    at a shift a in (0, 1] (a Python complex) or a 1-d array of shifts (a
    complex array): one array of the direct and tail powers of every shift,
    summed against _coefficients, real for a real s.  Value and derivative
    are within 5e-14 max(1, |value|) of 30-digit mpmath for a in [0.01, 1],
    0 <= Re s <= 4, |Im s| <= 8; at Re s = -1, -3 and -6 values are off by
    up to 3e-13, 2e-10 and 5e-6.  derivative=True returns (value, d/ds
    value), computing the derivative only then; minus_pole=True evaluates
    zeta(s, a) - 1/(s-1), entire in s."""
    s = complex(s)
    if not minus_pole and abs(s - 1) < 1e-12:
        raise PoleError("hurwitz zeta pole at s=1", location=1.0)
    t = s.real if s.imag == 0 else s
    logs = np.log(np.asarray(a, dtype=float).reshape(-1, 1) + _LOG_STEPS)
    terms = np.exp(logs * (_POWERS - t))
    cs, dcs = _coefficients(t, minus_pole, derivative)
    val = (terms * cs).sum(axis=1)
    if minus_pole:
        # (Na^(1-s) - 1)/(s-1) = -lnNa E(z), z = -(s-1) lnNa, Na = N + a: E
        # and E' by Taylor series while every |z| <= 0.1 (to 1e-17), or expm1
        lnNa = logs[:, -1]
        z = -(t - 1) * lnNa
        series = abs(t - 1) * math.log(_HURWITZ_TERMS + 1) <= 0.1
        zp, em1 = z[:, None] ** _TAYLOR_POWERS, np.expm1(z)
        val -= lnNa * ((zp * _E_TAYLOR).sum(axis=1) if series else em1 / z)
    out = [val]
    if derivative:
        dval = (terms * (dcs - logs * cs)).sum(axis=1)
        if minus_pole:
            dval += lnNa * lnNa * ((zp[:, :-1] * _DE_TAYLOR).sum(axis=1)
                                   if series else (z * em1 + z - em1) / (z * z))
        out.append(dval)
    out = [complex(v[0]) if np.ndim(a) == 0 else v + 0j for v in out]
    return tuple(out) if derivative else out[0]


def riemann_zeta(s: complex, derivative: bool = False):
    return hurwitz_zeta(s, 1.0, derivative=derivative)


def kronecker_symbol(a: int, n: int) -> int:
    if n == 0:
        return 1 if a in (1, -1) else 0
    out = 1
    if n < 0:
        n = -n
        if a < 0:
            out = -out
    while n % 2 == 0:
        n //= 2
        m = a % 8
        if m == 0 or m % 2 == 0:
            return 0
        if m in (3, 5):
            out = -out
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


@lru_cache(maxsize=None)
def _character_table(D: int) -> Tuple[np.ndarray, np.ndarray]:
    """The shifts a/|D| of the residues a = 1, ..., |D| with chi_D(a) != 0
    and the values chi_D(a), as read-only arrays; built once per D."""
    q = abs(D)
    chi = np.array([kronecker_symbol(D, a) for a in range(1, q + 1)], float)
    keep = np.flatnonzero(chi)
    shifts, chi = (keep + 1) / q, chi[keep]
    shifts.flags.writeable = chi.flags.writeable = False
    return shifts, chi


def dirichlet_l(s: complex, D: int, derivative: bool = False):
    """L(s, chi_D) for a fundamental discriminant D: one hurwitz_zeta call
    over the shifts of _character_table, weighted by the character values.
    For D != 1 the character sums kill the Hurwitz poles, so the pole-free
    Hurwitz variant is summed and the result is valid at s = 1 as well."""
    q = abs(D)
    if q == 1:
        return riemann_zeta(s, derivative=derivative)
    lnq = math.log(q)
    qs = cmath.exp(-complex(s) * lnq)
    shifts, chi = _character_table(D)
    rows = hurwitz_zeta(s, shifts, derivative=derivative, minus_pole=True)
    if not derivative:
        return qs * complex((chi * rows).sum())
    val = complex((chi * rows[0]).sum())
    return qs * val, qs * (complex((chi * rows[1]).sum()) - lnq * val)


@lru_cache(maxsize=None)
def class_number(K: FieldDescriptor) -> int:
    """Class number from the analytic class number formula (desk scale);
    computed once per field."""
    if K.kind != "quadratic":
        return 1
    D = K.discriminant
    L1 = dirichlet_l(1.0, D).real
    if D < 0:
        h = K.w * math.sqrt(-D) * L1 / (2 * math.pi)
    else:
        h = math.sqrt(D) * L1 / (2 * K.regulator)
    h_int = round(h)
    if abs(h - h_int) > 1e-6 or h_int < 1:
        raise ArithmeticError(f"class number formula gave {h} for {K.label}")
    return h_int


def zeta_K(K: FieldDescriptor, s: complex) -> complex:
    """The Dedekind zeta of a quadratic field: zeta(s) L(s, chi_D)."""
    return riemann_zeta(s) * dirichlet_l(s, K.discriminant)


def xi_K_laurent(K: FieldDescriptor) -> Tuple[float, float]:
    """(residue, constant term) of d^{s/2} Gamma_K(s) zeta_K(s) at s = 1.

    Requires class number one, so that the full Dedekind zeta agrees with
    the partial zeta of the unit class.
    """
    h = class_number(K)
    if h != 1:
        raise UnsupportedFieldError(
            f"xi_K Laurent data via the zeta(s) L(s) factorization needs class "
            f"number 1; {K.label} has h = {h}")
    D = K.discriminant
    L1, L1p = dirichlet_l(1.0, D, derivative=True)
    L1, L1p = L1.real, L1p.real
    A1 = math.sqrt(abs(D))
    if K.is_real_quadratic:
        dlogA = 0.5 * math.log(abs(D)) - (_EULER_GAMMA + math.log(4 * math.pi))
    else:
        dlogA = 0.5 * math.log(abs(D)) - math.log(2 * math.pi) - _EULER_GAMMA
    residue = A1 * L1
    ct = A1 * (_EULER_GAMMA * L1 + L1p) + A1 * dlogA * L1
    return residue, ct


def zeta_K_class(K: FieldDescriptor, ideal: Optional[FracIdeal], s: complex) -> complex:
    """Partial zeta of the class of ideal^{-1} (the class the inverse of the
    given lattice-defining ideal lies in), continued in s.

    Class number 1: the full Dedekind zeta.  Discriminant -20: the two
    classes are separated by the genus character decomposition
    zeta_K(s, A+-) = (zeta(s) L(s, chi_-20) +- L(s, chi_-4) L(s, chi_5)) / 2.
    """
    h = class_number(K)
    if h == 1:
        return zeta_K(K, s)
    if K.discriminant == -20:
        total = zeta_K(K, s)
        genus = dirichlet_l(s, -4) * dirichlet_l(s, 5)
        if ideal is None or ideal_generator(ideal) is not None:
            return (total + genus) / 2
        return (total - genus) / 2
    raise UnsupportedFieldError(
        f"per-class zeta values implemented for class number 1 and "
        f"discriminant -20 only, not {K.label}")


def ideal_generator(ideal: FracIdeal):
    """A generator of the ideal, or None if it is not principal: the stored
    one (always, over Q), else an element of least norm if that norm is
    N(ideal) (candidates located numerically, then certified exactly)."""
    if ideal.gen is not None:
        return ideal.gen
    n_ideal = ideal.absolute_norm()
    # Minkowski: some element has norm <= (2/pi) sqrt|D| N(ideal)
    bound = 0.65 * math.sqrt(abs(ideal.field.discriminant)) \
        * float(n_ideal) * 1.01
    g1, g2 = ideal.z_basis()
    best = min((int(c1) * g1 + int(c2) * g2
                for _, cs in ball_points(ideal_embedding_matrix(ideal),
                                         math.sqrt(bound), coeffs=True)
                for c1, c2 in cs.T), key=lambda g: abs(g.norm()))
    return best if abs(best.norm()) == n_ideal else None


# ---------------------------------------------------------------------------
# the raw partial zeta sum (Dirichlet / lattice oracle with cutoff)


def _power_sum(n: np.ndarray, s: complex) -> complex:
    """sum n^(-s) over an array of n > 0, in real arithmetic for real s."""
    if s.imag == 0:
        return complex(np.sum(np.power(n, -s.real)))
    return complex(np.sum(np.exp(-s * np.log(n))))


def partial_zeta_series(F: FieldDescriptor, ideal: FracIdeal, s: complex,
                        cutoff: float = 1e5):
    """N(a)^s * sum over orbit representatives with |N(alpha)| <= cutoff of
    |N(alpha)|^{-s}, plus an integral estimate of the truncated tail.

    Returns (value, tail_bound): the value includes the integral tail
    correction, tail_bound is the crude c * X^(1 - Re s) magnitude of the
    uncorrected tail.  Requires Re s > 1.1, a finite cutoff > 0 (>= 1 over
    Q), and F = Q or imaginary quadratic; any other field raises
    UnsupportedFieldError.
    """
    s = complex(s)
    if s.real <= 1.1:
        raise ValueError("partial zeta series needs Re s > 1.1")
    X = float(cutoff)
    # over Q the Euler-Maclaurin tail starts at floor(cutoff) >= 1
    if not (math.isfinite(X) and X > 0) or (F.is_rational and X < 1):
        raise ValueError(f"partial zeta series needs a finite cutoff > 0 "
                         f"(>= 1 over Q), got cutoff={cutoff!r}")
    if F.is_rational:
        # orbit representatives are positive rationals a*m; the value is
        # independent of the ideal.  ball_points yields m^2, chunked and
        # capped by ENUM_POINT_CAP
        val = sum((_power_sum(m2, s / 2)
                   for m2 in ball_points(np.ones((1, 1)), X)), 0j)
        # integral tail correction (Euler-Maclaurin through the 1/2 term)
        lnM = math.log(int(X))
        val += cmath.exp((1 - s) * lnM) / (s - 1) - 0.5 * cmath.exp(-s * lnM)
        tail = abs(X ** (1 - s.real) / (s.real - 1))
        return val, tail
    if F.is_imaginary_quadratic:
        n_ideal = float(ideal.absolute_norm())
        total = 0j
        # one alpha of each +-pair: w/2 of them per unit orbit
        for n2 in ball_points(ideal_embedding_matrix(ideal), math.sqrt(X)):
            total += _power_sum(n2, s)
        total *= 2 / F.w
        # integral tail: reps density ~ 2 pi / (w sqrt|D| N(ideal)) per unit norm
        dens = 2 * math.pi / (F.w * math.sqrt(abs(F.discriminant)) * n_ideal)
        corr = dens * cmath.exp((1 - s) * math.log(X)) / (s - 1)
        value = cmath.exp(s * math.log(n_ideal)) * (total + corr)
        tail = abs(cmath.exp(s * math.log(n_ideal)) * dens
                   * X ** (1 - s.real) / (s.real - 1))
        return value, tail
    raise UnsupportedFieldError(F.label)


# ---------------------------------------------------------------------------
# globally continued completed zeta


def _tail_cutoff(a: float, M: np.ndarray, c: float, tol: float,
                 scale: float) -> float:
    """gamma_lattice_sum's cutoff at Re nu = a: the least X >= max(b, d) + 2
    with scale * tail(X) <= tol/10, to within 1e-3."""
    d = M.shape[0]
    b = max(0.0, a - 1.0)
    rho = 0.5 * float(np.linalg.norm(M, axis=0).sum())
    K = math.pi ** (d / 2) / math.gamma(d / 2 + 1) \
        / (2 * abs(np.linalg.det(M)))
    log_scale = math.log(10 / tol) + math.log(max(scale, 1e-300))

    def log_need(X):
        # log(10 scale e^X tail(X) / tol): X suffices when this is <= X
        q = 1 / (X - b) + 1 / (X - b) ** 2
        return log_scale + math.log(q * K * sum(
            math.comb(d, j) * rho ** (d - j) * (X / c) ** (j / 2)
            / (1 - j / (2 * X)) for j in range(d + 1)))

    # log(e^X tail(X)) grows with slope < 1/2 here, so this climbs to the
    # least such X in a few steps
    X = max(b, d) + 2.0
    while (need := log_need(X)) > X:
        X = need + 1e-3
    return X


def gamma_lattice_sum(nus: Tuple[complex, ...], M: np.ndarray, c: float,
                      tol: float, scale: float) -> np.ndarray:
    """Sums of x^(-nu) Gamma(nu, x) over the parameters x = c |l|^2 of one
    point l of each +-pair of the lattice with basis columns M (dimension
    d), one for each order nu of nus: the Riemann-split Mellin sums
    S(nu; M) of theta_split, as a complex array.

    It lists the ball up to X once: each array ball_points yields takes
    log x once and one array call of upper_incomplete_gamma per order, and
    `scale` is the size of the caller's prefactors together.  X is the
    least cutoff with scale * tail(X) <= tol/10 at a = the largest Re nu,
    whose bound covers every smaller one, for a proven bound: with b =
    max(0, a - 1), |x^(-nu) Gamma(nu, x)| <= x^(-a) Gamma(a, x) <= h(x) =
    e^(-x)/(x - b) (DLMF §8.10); the cells l + M[-1/2, 1/2)^d are disjoint
    and lie within rho = sum ||b_i||/2 of l, so at most K (sqrt(x/c) +
    rho)^d of the points have parameter <= x, K = vol(B_1^d)/(2 |det M|);
    and summation by parts, with -h'(x) <= q(X) e^(-x) on x >= X for q(X) =
    1/(X - b) + 1/(X - b)^2, gives tail(X) <= q(X) K e^(-X) sum_j C(d, j)
    rho^(d-j) (X/c)^(j/2) / (1 - j/(2X)).
    Too large a ball raises EnumerationCapError from ball_points before
    anything is allocated."""
    totals = np.zeros(len(nus), dtype=complex)
    X = _tail_cutoff(max(nu.real for nu in nus), M, c, tol, scale)
    for r2 in ball_points(M, math.sqrt(X / c)):
        xs = c * r2
        logs = np.log(xs)
        for i, nu in enumerate(nus):
            gv = upper_incomplete_gamma(nu, xs, tol=1e-15)
            # a real order takes a real exp: the complex one costs ten
            # times as much
            power = np.exp(-nu.real * logs) if nu.imag == 0 \
                else np.exp(-nu * logs)
            totals[i] += np.sum(power * gv)
    return totals


_POLE_RADIUS = 1e-8


def _theta_constants(F: FieldDescriptor) -> Tuple[float, float]:
    """(A, c) = (C_F n_v, pi n_v); n_v is 1 over Q, 2 over imaginary F."""
    n_v = 1 if F.is_rational else 2
    return c_F(F) * n_v, math.pi * n_v


def _unit_covolume(M: np.ndarray, V: float) -> np.ndarray:
    """The basis mu M of the lattice of covolume V rescaled to covolume 1,
    mu = V^(-1/d)."""
    return math.exp(-math.log(V) / M.shape[0]) * M


def _theta_sums(F: FieldDescriptor, s: complex, M: np.ndarray,
                tol: float) -> complex:
    """A S(ds/2; M) + A S(d(1-s)/2; M) of a basis M of covolume 1, S the
    gamma_lattice_sum of the parameters x = c |l|^2: one listing for both
    halves, whose tail bound covers both prefactors A."""
    (A, c), d = _theta_constants(F), M.shape[0]
    sums = gamma_lattice_sum((d * s / 2, d * (1 - s) / 2), M, c, tol, 2 * A)
    return A * complex(sums.sum())


def theta_split(F: FieldDescriptor, s: complex, M: np.ndarray, V: float,
                tol: float) -> complex:
    """Hecke's theta split over F of an O_F-lattice or ideal L of rank d
    (basis columns M, covolume V): the Gaussian Mellin integral split at
    one point and its inner part Poisson-dualized onto the dual L*.  The
    integral is invariant under L -> mu L, and the split at |N t| = 1 of
    mu L is its split at |N t| = mu^(-2) of L, so the split point is free:
    it is taken on L rescaled to covolume 1 (_unit_covolume, mu =
    V^(-1/d)).  There V V* = 1, and L* is a turned copy of L: L* = c
    sigma(L) for the isometry sigma(u1, u2) = (-conj u2, conj u1) and a
    scalar c (the pairing maps L x L onto a principal ideal: class number
    one), an ideal's dual conj(a)/(N(a) delta) likewise.  So both halves
    sum over the norms of mu L, in one listing,

        A S(ds/2; mu M) + A S(d(1-s)/2; mu M) + (A/d) (1/(s-1) - 1/s),

    xi(s, a) of an ideal (d = 1, 2), Ehat(L, s) of an O_F-lattice (d = 2,
    4).  PoleError within _POLE_RADIUS of s = 0, 1, residues -A/d, A/d."""
    s, d, A = complex(s), M.shape[0], _theta_constants(F)[0]
    for pole, sign in ((0.0, -1), (1.0, 1)):
        if abs(s - pole) < _POLE_RADIUS:
            raise PoleError(f"simple pole at s = {pole:g}", location=pole,
                            residue=sign * A / d)
    return _theta_sums(F, s, _unit_covolume(M, V), tol) \
        + (A / d) * (1 / (s - 1) - 1 / s)


def theta_split_ct(F: FieldDescriptor, M: np.ndarray, V: float,
                   tol: float) -> float:
    """The constant term of theta_split at s = 1, on L rescaled to
    covolume 1: A S(d/2; mu M) + A S(0; mu M) - A/d."""
    return (_theta_sums(F, 1.0 + 0j, _unit_covolume(M, V), tol)
            - _theta_constants(F)[0] / M.shape[0]).real


# entries kept by each cache: of completed-zeta evaluators, of their values
# and of their constant terms
_CACHE_SIZE = 512


class CompletedZeta:
    """Evaluator for xi(s, a) = d^{s/2} Gamma_F(s) zeta_F(s, a), continued to
    all s via the theta splitting, with explicit pole data."""

    def __init__(self, F: FieldDescriptor, ideal: FracIdeal):
        if not (F.is_rational or F.is_imaginary_quadratic):
            raise UnsupportedFieldError(
                "xi is globally continued for Q and imaginary quadratic "
                "fields only (finite unit group)")
        self.F = F
        self.ideal = ideal
        self.V = math.sqrt(abs(F.discriminant)) * float(ideal.absolute_norm())
        self.M = ideal_embedding_matrix(ideal)

    @lru_cache(maxsize=_CACHE_SIZE)
    def value(self, s: complex, tol: float = 1e-12) -> complex:
        """xi(s, a); cached per (evaluator, s, tol)."""
        return theta_split(self.F, complex(s), self.M, self.V, tol)

    @lru_cache(maxsize=_CACHE_SIZE)
    def laurent_ct(self, tol: float = 1e-12) -> float:
        """Constant term of the Laurent expansion at s = 1; cached per
        (evaluator, tol)."""
        return theta_split_ct(self.F, self.M, self.V, tol)


@lru_cache(maxsize=_CACHE_SIZE)
def completed_zeta(F: FieldDescriptor, ideal: FracIdeal) -> CompletedZeta:
    """The evaluator of xi(s, a), one per field and ideal (equal ideals hash
    alike, however their generators are written)."""
    return CompletedZeta(F, ideal)
