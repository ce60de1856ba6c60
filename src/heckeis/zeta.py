"""Partial and completed zeta functions.

Two independent routes are kept deliberately separate:

* Dirichlet-series / Euler-Maclaurin evaluators (riemann_zeta, hurwitz_zeta,
  dirichlet_l, zeta_K) sharing no code with the lattice machinery; these act
  as oracles.
* The globally continued completed zeta xi(s, a) of an ideal: theta_split,
  Hecke's theta split of the Gaussian Mellin integral at |N t| = 1 with
  Poisson summation on the inner part.  Its exponentially convergent
  incomplete-gamma sums (gamma_lattice_sum, enumerated once to a cutoff
  its proven tail bound sets, DLMF §8.10) make xi valid for all s (simple
  poles at 0 and 1 with residues -C_F, +C_F) and the functional equation
  xi(s, a) = xi(1-s, a*) manifest.  xi is the split of an ideal (rank 1
  over Q, 2 over an imaginary field); the lattice route of Ehat
  (eisenstein) is the split of an O_F-lattice (rank 2 or 4).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .basefield import FieldDescriptor, FracIdeal, dual_ideal
from .errors import PoleError, UnsupportedFieldError
from .lattice import ball_points
from .specialfun import upper_incomplete_gamma

_EULER_GAMMA = 0.5772156649015328606

# B_2, B_4, ..., B_26
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
              Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
              Fraction(-174611, 330), Fraction(854513, 138),
              Fraction(-236364091, 2730), Fraction(8553103, 6)]
# hurwitz_zeta sums this many terms directly and then this many
# Euler-Maclaurin corrections
_HURWITZ_TERMS = 28
_HURWITZ_BERNOULLI_TERMS = 11


def _bernoulli_coeffs():
    """B_2k/(2k)! for k = 1, ..., _HURWITZ_BERNOULLI_TERMS as floats: the
    float B_2k over the running float (2k)!."""
    out, fact = [], 2.0
    for k in range(1, _HURWITZ_BERNOULLI_TERMS + 1):
        out.append(float(_BERNOULLI[k - 1]) / fact)
        fact *= (2 * k + 1) * (2 * k + 2)
    return tuple(out)


_BERNOULLI_COEFFS = _bernoulli_coeffs()


def c_F(F: FieldDescriptor) -> float:
    """The constant 2^r1 (2 pi)^r2 R_F / w_F (residue of xi at s = 1)."""
    return 2.0 ** F.r1 * (2 * math.pi) ** F.r2 * F.regulator / F.w


# ---------------------------------------------------------------------------
# Euler-Maclaurin evaluators (oracle route)


def _e_aux(z: complex):
    """(e^z - 1)/z and its derivative, stable near z = 0."""
    if abs(z) < 1e-4:
        E = 1 + z / 2 + z * z / 6 + z ** 3 / 24
        dE = 0.5 + z / 3 + z * z / 8 + z ** 3 / 30
        return E, dE
    ez = cmath.exp(z)
    return (ez - 1) / z, (ez * (z - 1) + 1) / (z * z)


def hurwitz_zeta(s: complex, a: float, derivative: bool = False,
                 minus_pole: bool = False):
    """zeta(s, a) = sum_{n >= 0} (n+a)^(-s), continued by Euler-Maclaurin.

    Accurate to near machine precision for moderate |s| (the intended use is
    |Im s| <= ~8, Re s >= -6).  With derivative=True returns
    (zeta(s,a), d/ds zeta(s,a)).  With minus_pole=True the function
    zeta(s, a) - 1/(s-1) (entire) is evaluated instead, valid at s = 1.
    """
    s = complex(s)
    if not minus_pole and abs(s - 1) < 1e-12:
        raise PoleError("hurwitz zeta pole at s=1", location=1.0)
    N = _HURWITZ_TERMS
    ln_na = np.log(np.arange(N) + a)
    pw = np.exp(-s * ln_na)
    val = complex(pw.sum())
    dval = complex(-(ln_na * pw).sum())
    Na = N + a
    lnNa = math.log(Na)
    if minus_pole:
        # (Na^(1-s) - 1)/(s-1) = -lnNa * E(-(s-1) lnNa), entire in s
        z = -(s - 1) * lnNa
        E, dE = _e_aux(z)
        val += -lnNa * E
        dval += lnNa * lnNa * dE
    else:
        t = cmath.exp((1 - s) * lnNa) / (s - 1)
        val += t
        dval += t * (-lnNa - 1.0 / (s - 1))
    t = 0.5 * cmath.exp(-s * lnNa)
    val += t
    dval += -lnNa * t
    # correction terms: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * Na^(-s-2k+1)
    poch = s
    dpoch = 1.0 + 0j          # derivative of the Pochhammer product
    for k, c in enumerate(_BERNOULLI_COEFFS, start=1):
        u = cmath.exp((-s - 2 * k + 1) * lnNa)
        val += c * poch * u
        dval += c * (dpoch - lnNa * poch) * u
        # extend the product by (s + 2k - 1)(s + 2k)
        for j in (2 * k - 1, 2 * k):
            dpoch = dpoch * (s + j) + poch
            poch = poch * (s + j)
    if derivative:
        return val, dval
    return val


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


def dirichlet_l(s: complex, D: int, derivative: bool = False):
    """L(s, chi_D) for a fundamental discriminant D, via Hurwitz zetas.

    For D != 1 the character sums kill the Hurwitz poles, so the pole-free
    Hurwitz variant is summed and the result is valid at s = 1 as well.
    """
    q = abs(D)
    if q == 1:
        return riemann_zeta(s, derivative=derivative)
    lnq = math.log(q)
    qs = cmath.exp(-complex(s) * lnq)
    val = 0j
    dval = 0j
    for a in range(1, q + 1):
        chi = kronecker_symbol(D, a)
        if chi == 0:
            continue
        h, dh = hurwitz_zeta(s, a / q, derivative=True, minus_pole=True)
        val += chi * h
        dval += chi * (dh - lnq * h)
    if derivative:
        return qs * val, qs * dval
    return qs * val


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
        if ideal is None or _is_principal_imag(ideal):
            return (total + genus) / 2
        return (total - genus) / 2
    raise UnsupportedFieldError(
        f"per-class zeta values implemented for class number 1 and "
        f"discriminant -20 only, not {K.label}")


def _ideal_embedding_matrix(ideal: FracIdeal) -> np.ndarray:
    """Real matrix of the embedded Z-basis columns ([[a]] for aZ over Q)."""
    K = ideal.field
    if K.is_rational:
        return np.array([[float(ideal.gen)]])
    g1, g2 = ideal.z_basis()
    if K.is_imaginary_quadratic:
        w1, w2 = K.embed(g1, 0), K.embed(g2, 0)
        return np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
    return np.array([[K.embed(g1, 0), K.embed(g2, 0)],
                     [K.embed(g1, 1), K.embed(g2, 1)]])


def _is_principal_imag(ideal: FracIdeal) -> bool:
    """Whether an imaginary quadratic ideal is principal: its minimal nonzero
    element norm equals the ideal norm (candidates located numerically, then
    certified exactly)."""
    K = ideal.field
    n_ideal = ideal.absolute_norm()
    # Minkowski: some element has norm <= (2/pi) sqrt|D| N(ideal)
    bound = 0.65 * math.sqrt(abs(K.discriminant)) * float(n_ideal) * 1.01
    g1, g2 = ideal.z_basis()
    best = min(abs((int(c1) * g1 + int(c2) * g2).norm())
               for _, cs in ball_points(_ideal_embedding_matrix(ideal),
                                        math.sqrt(bound), coeffs=True)
               for c1, c2 in cs.T)
    return best == n_ideal


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
    uncorrected tail.  Requires Re s > 1.1.
    """
    s = complex(s)
    if s.real <= 1.1:
        raise ValueError("partial zeta series needs Re s > 1.1")
    X = float(cutoff)
    if F.is_rational:
        # orbit representatives are positive rationals a*m; the value is
        # independent of the ideal
        m_max = int(X)
        m = np.arange(1, m_max + 1, dtype=float)
        val = _power_sum(m, s)
        # integral tail correction (Euler-Maclaurin through the 1/2 term)
        lnM = math.log(m_max)
        val += cmath.exp((1 - s) * lnM) / (s - 1) - 0.5 * cmath.exp(-s * lnM)
        tail = abs(X ** (1 - s.real) / (s.real - 1))
        return val, tail
    if F.is_imaginary_quadratic:
        n_ideal = float(ideal.absolute_norm())
        total = 0j
        # one alpha of each +-pair: w/2 of them per unit orbit
        for n2 in ball_points(_ideal_embedding_matrix(ideal), math.sqrt(X)):
            total += _power_sum(n2, s)
        total *= 2 / F.w
        # integral tail: reps density ~ 2 pi / (w sqrt|D| N(ideal)) per unit norm
        dens = 2 * math.pi / (F.w * math.sqrt(abs(F.discriminant)) * n_ideal)
        corr = dens * cmath.exp((1 - s) * math.log(X)) / (s - 1)
        value = cmath.exp(s * math.log(n_ideal)) * (total + corr)
        tail = abs(cmath.exp(s * math.log(n_ideal)) * dens
                   * X ** (1 - s.real) / (s.real - 1))
        return value, tail
    if F.is_real_quadratic:
        return _partial_zeta_real_quadratic(F, ideal, s, X)
    raise UnsupportedFieldError(F.label)


def _partial_zeta_real_quadratic(K: FieldDescriptor, ideal: FracIdeal,
                                 s: complex, X: float):
    """Fundamental-domain sum for a real quadratic field: representatives
    alpha, one of each +-pair as ball_points yields them, with
    eps^-1 <= |alpha_1/alpha_2| < eps, i.e.
    t = log|alpha_1/alpha_2| / (2R) in [-1/2, 1/2) (multiplying by eps moves
    t by 1).  t is snapped to the nearest half-integer within 1e-9, so the
    orbits on the edge (alpha/alpha' = +-eps when N(eps) = +1) count once.
    The domain lies inside the ball alpha_1^2 + alpha_2^2 <= 2 eps X."""
    M = _ideal_embedding_matrix(ideal)
    n_ideal = float(ideal.absolute_norm())
    total = 0j
    for _, cs in ball_points(M, math.sqrt(2 * math.exp(K.regulator) * X),
                             coeffs=True):
        c0, c1 = cs.astype(float)
        x1 = M[0, 0] * c0 + M[0, 1] * c1
        x2 = M[1, 0] * c0 + M[1, 1] * c1
        nrm = np.abs(x1 * x2)
        with np.errstate(divide="ignore"):
            t = np.log(np.abs(x1 / x2)) / (2 * K.regulator)
        half = np.round(2 * t) / 2
        t = np.where(np.abs(t - half) <= 1e-9, half, t)
        keep = (nrm > 0) & (nrm <= X * (1 + 1e-12)) & (t >= -0.5) & (t < 0.5)
        vals = nrm[keep]
        total += _power_sum(vals, s)
    dens = 2 * K.regulator / (math.sqrt(K.discriminant) * n_ideal)
    corr = dens * cmath.exp((1 - s) * math.log(X)) / (s - 1)
    value = cmath.exp(s * math.log(n_ideal)) * (total + corr)
    tail = abs(cmath.exp(s * math.log(n_ideal)) * dens
               * X ** (1 - s.real) / (s.real - 1))
    return value, tail


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
    while log_need(X) > X:
        X = log_need(X) + 1e-3
    return X


def gamma_lattice_sum(nu: complex, M: np.ndarray, c: float, tol: float,
                      scale: float) -> complex:
    """Sum of x^(-nu) Gamma(nu, x) over the parameters x = c |l|^2 of one
    point l of each +-pair of the lattice with basis columns M (dimension
    d): the Riemann-split Mellin sum S(nu; M) of theta_split.

    It sums the arrays ball_points yields up to X, one array call of
    upper_incomplete_gamma each, and `scale` is the size of the caller's
    prefactor.  X is the least cutoff with scale * tail(X) <= tol/10 for a
    proven bound: with a = Re nu and b = max(0, a - 1), |x^(-nu) Gamma(nu,
    x)| <= x^(-a) Gamma(a, x) <= h(x) = e^(-x)/(x - b) (DLMF §8.10); the
    cells l + M[-1/2, 1/2)^d are disjoint and lie within rho = sum ||b_i||/2
    of l, so at most K (sqrt(x/c) + rho)^d of the points have parameter
    <= x, K = vol(B_1^d)/(2 |det M|); and summation by parts, with
    -h'(x) <= q(X) e^(-x) on x >= X for q(X) = 1/(X - b) + 1/(X - b)^2, gives
    tail(X) <= q(X) K e^(-X) sum_j C(d, j) rho^(d-j) (X/c)^(j/2)
    / (1 - j/(2X)).
    Too large a ball raises EnumerationCapError from ball_points before
    anything is allocated."""
    total, X = 0j, _tail_cutoff(nu.real, M, c, tol, scale)
    for r2 in ball_points(M, math.sqrt(X / c)):
        xs = c * r2
        gv = upper_incomplete_gamma(nu, xs, tol=1e-15)
        total += complex(np.sum(np.exp(-nu * np.log(xs)) * gv))
    return total


_POLE_RADIUS = 1e-8


def _theta_constants(F: FieldDescriptor) -> Tuple[float, float]:
    """(A, c) = (C_F n_v, pi n_v); n_v is 1 over Q, 2 over imaginary F."""
    n_v = 1 if F.is_rational else 2
    return c_F(F) * n_v, math.pi * n_v


def _theta_sums(F: FieldDescriptor, s: complex, M: np.ndarray, V: float,
                M_dual: np.ndarray, V_dual: float, tol: float) -> complex:
    """A V^s S(ds/2; M) + A V_dual^(1-s) S(d(1-s)/2; M_dual), S the
    gamma_lattice_sum of the parameters x = c |l|^2."""
    (A, c), total = _theta_constants(F), 0j
    for t, L, W in ((s, M, V), (1 - s, M_dual, V_dual)):
        pref = A * cmath.exp(t * math.log(W))
        total += pref * gamma_lattice_sum(L.shape[0] * t / 2, L, c, tol,
                                          abs(pref))
    return total


def theta_split(F: FieldDescriptor, s: complex, M: np.ndarray, V: float,
                M_dual: np.ndarray, V_dual: float, tol: float) -> complex:
    """Hecke's theta split over F of a lattice of rank d (basis columns M,
    covolume V) and its dual (M_dual, V_dual): the Gaussian Mellin
    integral split at |N t| = 1, its inner part Poisson-dualized,

        A V^s S(ds/2; M) + A V_dual^(1-s) S(d(1-s)/2; M_dual)
            + (A/d) (V^(s-1)/(s-1) - V^s/s),

    xi(s, a) of an ideal (d = 1, 2), Ehat(L, s) of an O_F-lattice (d = 2,
    4).  PoleError within _POLE_RADIUS of s = 0, 1, residues -A/d, A/d."""
    s, d, A = complex(s), M.shape[0], _theta_constants(F)[0]
    for pole, sign in ((0.0, -1), (1.0, 1)):
        if abs(s - pole) < _POLE_RADIUS:
            raise PoleError(f"simple pole at s = {pole:g}", location=pole,
                            residue=sign * A / d)
    lnV = math.log(V)
    return _theta_sums(F, s, M, V, M_dual, V_dual, tol) + (A / d) * (
        cmath.exp((s - 1) * lnV) / (s - 1) - cmath.exp(s * lnV) / s)


def theta_split_ct(F: FieldDescriptor, M: np.ndarray, V: float,
                   M_dual: np.ndarray, V_dual: float, tol: float) -> float:
    """The constant term of theta_split at s = 1:
    A V S(d/2; M) + A S(0; M_dual) + (A/d)(log V - V)."""
    return (_theta_sums(F, 1.0 + 0j, M, V, M_dual, V_dual, tol)
            + (_theta_constants(F)[0] / M.shape[0]) * (math.log(V) - V)).real


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
        self.dual = dual_ideal(F, ideal)
        disc = abs(F.discriminant)
        self.V = math.sqrt(disc) * float(ideal.absolute_norm())
        self.Vdual = math.sqrt(disc) * float(self.dual.absolute_norm())
        self.M = _ideal_embedding_matrix(ideal)
        self.M_dual = _ideal_embedding_matrix(self.dual)

    @lru_cache(maxsize=_CACHE_SIZE)
    def value(self, s: complex, tol: float = 1e-12) -> complex:
        """xi(s, a); cached per (evaluator, s, tol)."""
        return theta_split(self.F, complex(s), self.M, self.V, self.M_dual,
                           self.Vdual, tol)

    @lru_cache(maxsize=_CACHE_SIZE)
    def laurent_ct(self, tol: float = 1e-12) -> float:
        """Constant term of the Laurent expansion at s = 1; cached per
        (evaluator, tol)."""
        return theta_split_ct(self.F, self.M, self.V, self.M_dual, self.Vdual,
                              tol)


@lru_cache(maxsize=_CACHE_SIZE)
def completed_zeta(F: FieldDescriptor, ideal: FracIdeal) -> CompletedZeta:
    """The evaluator of xi(s, a), one per field and ideal (equal ideals hash
    alike, however their generators are written)."""
    return CompletedZeta(F, ideal)
