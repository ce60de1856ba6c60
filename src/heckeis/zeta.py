"""Partial and completed zeta functions.

Two independent routes are kept deliberately separate:

* Dirichlet-series / Euler-Maclaurin evaluators (riemann_zeta, hurwitz_zeta,
  dirichlet_l, zeta_K) sharing no code with the lattice machinery; these act
  as oracles.
* The globally continued completed zeta xi(s, a) of an ideal, realized by
  splitting its Gaussian Mellin integral at |N t| = 1 and applying Poisson
  summation to the inner part.  The result

      xi(s, a) = Phi(s, a) + Phi(1-s, a*) + C_F (V^(s-1)/(s-1) - V^s / s)

  with exponentially convergent incomplete-gamma sums Phi is valid for all
  s (simple poles at 0 and 1 with residues -C_F, +C_F) and makes the
  functional equation xi(s, a) = xi(1-s, a*) manifest.  Phi is one call of
  gamma_lattice_sum, the shell-by-shell incomplete-gamma lattice sum that
  the lattice route of Ehat (eisenstein's Psi) shares.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .basefield import FieldDescriptor, FracIdeal, dual_ideal
from .errors import ConvergenceError, PoleError, UnsupportedFieldError
from .lattice import ball_points
from .precision import DEFAULT, PrecisionConfig
from .specialfun import upper_incomplete_gamma

_EULER_GAMMA = 0.5772156649015328606

# B_2, B_4, ..., B_26
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
              Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
              Fraction(-174611, 330), Fraction(854513, 138),
              Fraction(-236364091, 2730), Fraction(8553103, 6)]


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
                 minus_pole: bool = False,
                 terms: int = 28, bernoulli_terms: int = 11):
    """zeta(s, a) = sum_{n >= 0} (n+a)^(-s), continued by Euler-Maclaurin.

    Accurate to near machine precision for moderate |s| (the intended use is
    |Im s| <= ~8, Re s >= -6).  With derivative=True returns
    (zeta(s,a), d/ds zeta(s,a)).  With minus_pole=True the function
    zeta(s, a) - 1/(s-1) (entire) is evaluated instead, valid at s = 1.
    """
    s = complex(s)
    if not minus_pole and abs(s - 1) < 1e-12:
        raise PoleError("hurwitz zeta pole at s=1", location=1.0)
    N = terms
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
    fact = 2.0                # (2k)! running value
    for k in range(1, bernoulli_terms + 1):
        c = float(_BERNOULLI[k - 1]) / fact
        u = cmath.exp((-s - 2 * k + 1) * lnNa)
        val += c * poch * u
        dval += c * (dpoch - lnNa * poch) * u
        # extend the product by (s + 2k - 1)(s + 2k)
        for j in (2 * k - 1, 2 * k):
            dpoch = dpoch * (s + j) + poch
            poch = poch * (s + j)
        fact *= (2 * k + 1) * (2 * k + 2)
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


def class_number(K: FieldDescriptor) -> int:
    """Class number from the analytic class number formula (desk scale)."""
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
    """2x2 real matrix whose columns are the embedded Z-basis vectors."""
    K = ideal.field
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


def partial_zeta_series(F: FieldDescriptor, ideal: FracIdeal, s: complex,
                        cutoff: float = 1e5,
                        config: PrecisionConfig = DEFAULT):
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
        val = complex(np.sum(np.exp(-s * np.log(m))))
        # integral tail correction (Euler-Maclaurin through the 1/2 term)
        lnM = math.log(m_max)
        val += cmath.exp((1 - s) * lnM) / (s - 1) - 0.5 * cmath.exp(-s * lnM)
        tail = abs(X ** (1 - s.real) / (s.real - 1))
        return val, tail
    if F.is_imaginary_quadratic:
        n_ideal = float(ideal.absolute_norm())
        total = 0j
        for n2 in ball_points(_ideal_embedding_matrix(ideal), math.sqrt(X),
                              config.enum_point_cap):
            total += complex(np.sum(np.exp(-s * np.log(n2))))
        total /= F.w
        # integral tail: reps density ~ 2 pi / (w sqrt|D| N(ideal)) per unit norm
        dens = 2 * math.pi / (F.w * math.sqrt(abs(F.discriminant)) * n_ideal)
        corr = dens * cmath.exp((1 - s) * math.log(X)) / (s - 1)
        value = cmath.exp(s * math.log(n_ideal)) * (total + corr)
        tail = abs(cmath.exp(s * math.log(n_ideal)) * dens
                   * X ** (1 - s.real) / (s.real - 1))
        return value, tail
    if F.is_real_quadratic:
        return _partial_zeta_real_quadratic(F, ideal, s, X, config)
    raise UnsupportedFieldError(F.label)


def _partial_zeta_real_quadratic(K: FieldDescriptor, ideal: FracIdeal,
                                 s: complex, X: float,
                                 config: PrecisionConfig):
    """Fundamental-domain sum for a real quadratic field: representatives
    alpha with alpha_1 > 0 and eps^-1 <= |alpha_1/alpha_2| < eps, i.e.
    t = log|alpha_1/alpha_2| / (2R) in [-1/2, 1/2) (multiplying by eps moves
    t by 1).  t is snapped to the nearest half-integer within 1e-9, so the
    orbits on the edge (alpha/alpha' = +-eps when N(eps) = +1) count once.
    The domain lies inside the ball alpha_1^2 + alpha_2^2 <= 2 eps X."""
    M = _ideal_embedding_matrix(ideal)
    n_ideal = float(ideal.absolute_norm())
    total = 0j
    for _, cs in ball_points(M, math.sqrt(2 * math.exp(K.regulator) * X),
                             config.enum_point_cap, coeffs=True):
        c0, c1 = cs.astype(float)
        x1 = M[0, 0] * c0 + M[0, 1] * c1
        x2 = M[1, 0] * c0 + M[1, 1] * c1
        nrm = np.abs(x1 * x2)
        with np.errstate(divide="ignore"):
            t = np.log(np.abs(x1 / x2)) / (2 * K.regulator)
        half = np.round(2 * t) / 2
        t = np.where(np.abs(t - half) <= 1e-9, half, t)
        keep = (x1 > 0) & (nrm > 0) & (nrm <= X * (1 + 1e-12)) \
            & (t >= -0.5) & (t < 0.5)
        vals = nrm[keep]
        total += complex(np.sum(np.exp(-s * np.log(vals))))
    dens = 2 * K.regulator / (math.sqrt(K.discriminant) * n_ideal)
    corr = dens * cmath.exp((1 - s) * math.log(X)) / (s - 1)
    value = cmath.exp(s * math.log(n_ideal)) * (total + corr)
    tail = abs(cmath.exp(s * math.log(n_ideal)) * dens
               * X ** (1 - s.real) / (s.real - 1))
    return value, tail


# ---------------------------------------------------------------------------
# globally continued completed zeta


def ideal_theta(F: FieldDescriptor, ideal: FracIdeal, t, tol: float = 1e-13) -> float:
    """The Gaussian sum over an ideal in F_R (the lambda = 0 term included):
    sum over alpha of prod_v exp(-n_v pi |t alpha_v|^2).

    Satisfies the Poisson identity
    theta(t, a) = V(a)^{-1} |N t|^{-1} theta(1/t, dual(a))."""
    at = abs(t)
    L = math.log(1.0 / tol) + 10.0
    if F.is_rational:
        a = float(ideal.absolute_norm())
        m_max = int(math.sqrt(L / math.pi) / (a * at)) + 1
        m = np.arange(1, m_max + 1, dtype=float)
        return 1.0 + 2.0 * float(np.sum(np.exp(-math.pi * (at * a * m) ** 2)))
    if not F.is_imaginary_quadratic:
        raise UnsupportedFieldError("ideal theta needs Q or imaginary quadratic")
    r_max = math.sqrt(L / (2 * math.pi)) / at
    return 1.0 + sum(float(np.sum(np.exp(-2 * math.pi * at * at * n2)))
                     for n2 in ball_points(_ideal_embedding_matrix(ideal), r_max))


def gamma_lattice_sum(nu: complex, re_s: float,
                      params: Callable[[float], Iterable[np.ndarray]],
                      tol: float, scale: float, tail_margin: float) -> complex:
    """Sum of x^(-nu) Gamma(nu, x) over the Gaussian parameters x of a lattice:
    the Riemann-split Mellin sum behind both xi's Phi and Ehat's Psi.

    `params(cut)` yields arrays covering every parameter <= cut; `scale` is
    the magnitude of the caller's prefactor and `re_s` the real part of the
    caller's s, which sets the starting cutoff.  The cutoff grows by +6 until
    the new shell (cut, cut + 6] adds at most tol/10 after scaling; each step
    evaluates Gamma on that shell only."""

    def shell(lo: float, hi: float) -> complex:
        acc = 0j
        for xs in params(hi):
            xs = xs[(xs > lo) & (xs <= hi)]
            gv = np.array([upper_incomplete_gamma(nu, x, tol=1e-15)
                           for x in xs], dtype=complex)
            acc += complex(np.sum(np.exp(-nu * np.log(xs)) * gv))
        return acc

    cut = -math.log(min(tol, 0.5)) + tail_margin \
        + 4.0 * max(1.0, abs(re_s)) + 8.0
    total = shell(0.0, cut)
    for _ in range(24):
        last = shell(cut, cut + 6.0)
        total += last
        cut += 6.0
        if scale * abs(last) <= tol / 10.0:
            return total
    raise ConvergenceError(
        f"incomplete-gamma lattice sum at order {nu} did not stabilize: the "
        f"shell below cutoff {cut:g} added {scale * abs(last):.3g} "
        f"> tol/10 = {tol / 10.0:.3g}")


def _gaussian_params(F: FieldDescriptor, ideal: FracIdeal, cut: float,
                     cap: int) -> Iterable[np.ndarray]:
    """Gaussian parameters covering those <= cut of the nonzero elements of
    an ideal: pi alpha^2 (Q, alpha = a m > 0) or 2 pi N(alpha)."""
    if F.is_rational:
        a = float(ideal.absolute_norm())
        m = np.arange(1, int(math.sqrt(cut / math.pi) / a) + 2, dtype=float)
        return [math.pi * (a * m) ** 2]
    return (2 * math.pi * n2 for n2 in ball_points(
        _ideal_embedding_matrix(ideal), math.sqrt(cut / (2 * math.pi)), cap))


_POLE_RADIUS = 1e-8


class CompletedZeta:
    """Evaluator for xi(s, a) = d^{s/2} Gamma_F(s) zeta_F(s, a), continued to
    all s via the theta splitting, with explicit pole data."""

    def __init__(self, F: FieldDescriptor, ideal: FracIdeal,
                 config: PrecisionConfig = DEFAULT):
        if not (F.is_rational or F.is_imaginary_quadratic):
            raise UnsupportedFieldError(
                "xi is globally continued for Q and imaginary quadratic "
                "fields only (finite unit group)")
        self.F = F
        self.ideal = ideal
        self.dual = dual_ideal(F, ideal)
        self.config = config
        self.CF = c_F(F)
        disc = abs(F.discriminant)
        self.V = math.sqrt(disc) * float(ideal.absolute_norm())
        self.Vdual = math.sqrt(disc) * float(self.dual.absolute_norm())
        self._value_cache: dict = {}

    def phi(self, s: complex, side: str = "primal", tol: float = None) -> complex:
        """Phi(s, a) = V^s C_F sum_alpha' int_{|Nt|>=1} f(t alpha)|Nt|^s dt/t,
        an entire function of s with Gaussian-fast convergence."""
        tol = tol if tol is not None else self.config.target_abs_tol
        s = complex(s)
        ideal, V = (self.ideal, self.V) if side == "primal" \
            else (self.dual, self.Vdual)
        # over Q one alpha = a m > 0 per unit orbit, at order s/2
        rational = self.F.is_rational
        pref = cmath.exp(s * math.log(V)) \
            * (1.0 if rational else 2 * math.pi / self.F.w)
        cap = self.config.enum_point_cap
        return pref * gamma_lattice_sum(
            s / 2 if rational else s, s.real,
            lambda cut: _gaussian_params(self.F, ideal, cut, cap),
            tol, abs(pref), self.config.tail_margin)

    # -- public surface --------------------------------------------------------------

    def value(self, s: complex, tol: float = None) -> complex:
        s = complex(s)
        if abs(s) < _POLE_RADIUS:
            raise PoleError("xi has a simple pole at s = 0", location=0.0,
                            residue=-self.CF)
        if abs(s - 1) < _POLE_RADIUS:
            raise PoleError("xi has a simple pole at s = 1", location=1.0,
                            residue=self.CF)
        key = (s, tol)
        hit = self._value_cache.get(key)
        if hit is not None:
            return hit
        lnV = math.log(self.V)
        pole_part = self.CF * (cmath.exp((s - 1) * lnV) / (s - 1)
                               - cmath.exp(s * lnV) / s)
        out = self.phi(s, "primal", tol) + self.phi(1 - s, "dual", tol) + pole_part
        self._value_cache[key] = out
        return out

    def residue(self) -> float:
        """Residue at s = 1 (equal to C_F for every ideal)."""
        return self.CF

    def laurent_ct(self, tol: float = None) -> float:
        """Constant term of the Laurent expansion at s = 1."""
        lnV = math.log(self.V)
        out = self.phi(1.0, "primal", tol) + self.phi(0.0, "dual", tol) \
            + self.CF * (lnV - self.V)
        return out.real


_CZ_CACHE: dict = {}


def completed_zeta(F: FieldDescriptor, ideal: FracIdeal,
                   config: PrecisionConfig = DEFAULT) -> CompletedZeta:
    key = (F.label, ideal.key(), config)
    cz = _CZ_CACHE.get(key)
    if cz is None:
        cz = CompletedZeta(F, ideal, config)
        _CZ_CACHE[key] = cz
    return cz


def xi_global(F: FieldDescriptor, ideal: FracIdeal, s: complex,
              tol: float = None, config: PrecisionConfig = DEFAULT) -> complex:
    """xi(s, a) for all s away from the poles 0, 1."""
    return completed_zeta(F, ideal, config).value(s, tol)


def xi_laurent_ct(F: FieldDescriptor, ideal: FracIdeal,
                  config: PrecisionConfig = DEFAULT) -> float:
    """Constant term of xi(s, a) at s = 1."""
    return completed_zeta(F, ideal, config).laurent_ct()
