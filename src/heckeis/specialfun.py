"""Special functions: the Bessel-type integral K_s(x), the archimedean gamma
factor of a field, the two-sided Gaussian transform B_F, and the upper
incomplete gamma function of complex order.

K_s here is the integral

    K_s(x) = int_0^oo exp(-x(u + 1/u)) u^(s-1) du     (x > 0),

evaluated literally (it equals twice the conventional modified Bessel
function at doubled argument, but no conversion is ever performed).  After
u = e^t the integrand decays doubly exponentially, so trapezoid sums with
step halving converge at spectral rate.
"""

from __future__ import annotations

import cmath
import math
from typing import Union

import numpy as np
from scipy.special import exp1 as _exp1
from scipy.special import gamma as _scipy_gamma

from .basefield import FieldDescriptor
from .errors import ConvergenceError, PoleError
from .numerics import nested_trapezoid
from .precision import DEFAULT, PrecisionConfig

Complex = Union[complex, float]


def complex_gamma(s: Complex) -> complex:
    return complex(_scipy_gamma(complex(s)))


# ---------------------------------------------------------------------------
# upper incomplete gamma, complex order


def _gamma_int_nonpositive(n: int, x: float) -> float:
    """Gamma(-n, x) for integer n >= 0 via the exponential integral."""
    if n == 0:
        return float(_exp1(x))
    acc = 0.0
    term = 1.0 / x          # (k)! / x^(k+1) with alternating sign, k = 0
    sign = 1.0
    for k in range(n):
        acc += sign * term
        sign = -sign
        term *= (k + 1) / x
    val = float(_exp1(x)) - math.exp(-x) * acc
    return val * (-1.0) ** n / math.factorial(n)


def _gammainc_cf(s: complex, x: float, tol: float, max_iter: int = 500) -> complex:
    """Continued fraction for Gamma(s, x), reliable for x >= |s| + 1."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, max_iter):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return h * cmath.exp(-x + s * math.log(x))
    raise ConvergenceError("incomplete gamma continued fraction stalled")


def _gammainc_series(s: complex, x: float, tol: float,
                     max_terms: int = 10_000) -> complex:
    """Gamma(s) - gamma_lower(s, x); requires s away from the poles of Gamma."""
    term = 1.0 / s
    total = term
    n = 0
    while abs(term) > tol * max(1.0, abs(total)):
        n += 1
        term *= x / (s + n)
        total += term
        if n > max_terms:
            raise ConvergenceError("incomplete gamma series stalled")
    lower = total * cmath.exp(-x + s * math.log(x))
    return complex_gamma(s) - lower


def upper_incomplete_gamma(s: Complex, x: float, tol: float = 1e-14) -> complex:
    """Gamma(s, x) = int_x^oo e^(-u) u^(s-1) du for complex s and real x > 0."""
    if x <= 0:
        raise ValueError("x must be positive")
    s = complex(s)
    # entire in s; integer special cases avoid the spurious poles of the
    # series decomposition
    sr = round(s.real)
    if sr <= 0 and abs(s - sr) < 1e-12:
        return complex(_gamma_int_nonpositive(-sr, x))
    if x >= abs(s) + 1.0 or x >= 8.0:
        return _gammainc_cf(s, x, tol)
    dist = abs(s - round(s.real)) if s.real <= 0.5 else 1.0
    if s.real >= 0.5 and dist >= 0.5:
        return _gammainc_series(s, x, tol)
    # shift the order up until the series decomposition is safe, then descend
    m = max(1, math.ceil(1.0 - s.real))
    top = s + m
    val = _gammainc_series(top, x, tol) if x < abs(top) + 1.0 \
        else _gammainc_cf(top, x, tol)
    emx = math.exp(-x)
    for k in range(m, 0, -1):
        sk = s + (k - 1)
        val = (val - cmath.exp(sk * math.log(x)) * emx) / sk
    return val


# ---------------------------------------------------------------------------
# the Bessel-type integral


def _bessel_grid_halfwidth(max_abs_re_s: float, min_x: float, L: float) -> float:
    T = 1.0
    for _ in range(40):
        arg = (L + max_abs_re_s * T) / (2.0 * min_x)
        T_new = math.acosh(arg) if arg > 1.0 else 0.5
        if abs(T_new - T) < 1e-3:
            return T_new + 0.5
        T = T_new
    return T + 0.5


def bessel_k_batch(s: Complex, xs: np.ndarray, tol: float = None,
                   config: PrecisionConfig = DEFAULT) -> np.ndarray:
    """K_s at many positive arguments, shared trapezoid grid.

    Absolute accuracy ~tol on each entry.  Entries are processed in chunks to
    bound the (n_x, n_nodes) work matrix.
    """
    tol = tol if tol is not None else config.target_abs_tol
    s = complex(s)
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.zeros(0, dtype=complex)
    if np.any(xs <= 0):
        raise ValueError("arguments must be positive")
    out = np.empty(xs.shape, dtype=complex)
    order = np.argsort(xs)
    chunk = max(1, 4_000_000 // 1024)
    for start in range(0, xs.size, chunk):
        idx = order[start:start + chunk]
        out[idx] = _bessel_chunk(s, xs[idx], tol, config)
    return out


def _bessel_chunk(s: complex, xs: np.ndarray, tol: float,
                  config: PrecisionConfig) -> np.ndarray:
    L = math.log(4.0 / tol) + config.tail_margin
    T = _bessel_grid_halfwidth(abs(s.real), float(xs.min()), L)

    def integrand(taus: np.ndarray) -> np.ndarray:
        return np.exp(-2.0 * np.outer(xs, np.cosh(taus)) + s * taus[None, :])

    def grid(h: float) -> np.ndarray:
        n = math.floor(T / h)
        return np.arange(-n, n + 1)

    return nested_trapezoid(integrand, grid, 0.5, tol / 4.0,
                            config.quad_max_doublings, "bessel trapezoid")


def bessel_k(s: Complex, x: float, tol: float = None,
             config: PrecisionConfig = DEFAULT) -> complex:
    """K_s(x) = int_0^oo exp(-x(u+1/u)) u^(s-1) du."""
    if x <= 0:
        raise ValueError("x must be positive")
    return complex(bessel_k_batch(s, np.array([x]), tol, config)[0])


# ---------------------------------------------------------------------------
# gamma factor of a field


def _check_gamma_pole(z: complex, what: str):
    zr = round(z.real)
    if zr <= 0 and abs(z - zr) < 1e-12:
        raise PoleError(f"{what} hits a gamma pole at {z}", location=z)


def gamma_F(F: FieldDescriptor, s: Complex) -> complex:
    """The archimedean factor: [pi^(-s/2) Gamma(s/2)]^r1 *
    [(2 pi)^(1-s) Gamma(s)]^r2 (equal to the Gaussian Mellin integral over
    the idele norm for Re s > 0)."""
    s = complex(s)
    out = 1.0 + 0j
    if F.r1:
        _check_gamma_pole(s / 2, "gamma_F")
        out *= (cmath.exp(-(s / 2) * math.log(math.pi))
                * complex_gamma(s / 2)) ** F.r1
    if F.r2:
        _check_gamma_pole(s, "gamma_F")
        out *= (cmath.exp((1 - s) * math.log(2 * math.pi))
                * complex_gamma(s)) ** F.r2
    return out


def gamma_F_integral(F: FieldDescriptor, s: float, *, half_width: float = 9.0,
                     step: float = 1e-3) -> float:
    """Direct quadrature of the defining integral (real s > 0 only; test
    oracle).  Radial substitution t = e^u."""
    if s <= 0:
        raise ValueError("defining integral needs Re s > 0")
    drift = s if F.is_rational else 2.0 * s
    u = np.arange(-(32.0 / drift + 2.0), half_width, step)
    t = np.exp(u)
    if F.is_rational:
        # 2 * int_0^oo exp(-pi t^2) t^s dt/t
        vals = 2.0 * np.exp(-math.pi * t ** 2) * t ** s
    else:
        # 4 pi int_0^oo exp(-2 pi r^2) r^(2 s) dr / r
        vals = 4.0 * math.pi * np.exp(-2 * math.pi * t ** 2) * t ** (2 * s)
    return float(np.sum(vals) * step)


# ---------------------------------------------------------------------------
# the two-sided Gaussian transform


def b_F(F: FieldDescriptor, a, b, s: Complex, tol: float = None,
        config: PrecisionConfig = DEFAULT) -> complex:
    """B_F(a, b, s) = (2 pi)^r2 |N(b/a)|^s prod_v K_{n_v s}(n_v pi |a_v b_v|)
    for invertible a, b in F_R (one component for the supported fields)."""
    s = complex(s)
    if F.is_rational:
        aa, bb = abs(float(a)), abs(float(b))
        if aa == 0 or bb == 0:
            raise ValueError("components of a and b must be nonzero")
        ratio = cmath.exp(s * math.log(bb / aa))
        return ratio * bessel_k(s, math.pi * aa * bb, tol, config)
    aa, bb = abs(complex(a)), abs(complex(b))
    if aa == 0 or bb == 0:
        raise ValueError("components of a and b must be nonzero")
    ratio = cmath.exp(2 * s * math.log(bb / aa))
    return 2 * math.pi * ratio * bessel_k(2 * s, 2 * math.pi * aa * bb, tol, config)


def b_F_integral(F: FieldDescriptor, a, b, s: float, *, half_width: float = 10.0,
                 step: float = 5e-4) -> float:
    """Quadrature oracle for the defining integral of B_F (real s)."""
    u = np.arange(-half_width, half_width, step)
    t = np.exp(u)
    if F.is_rational:
        aa, bb = abs(float(a)), abs(float(b))
        vals = 2.0 * np.exp(-math.pi * (t ** 2 * aa ** 2 + bb ** 2 / t ** 2)) \
            * t ** (2 * s)
    else:
        aa, bb = abs(complex(a)), abs(complex(b))
        vals = 4.0 * math.pi * np.exp(-2 * math.pi * (t ** 2 * aa ** 2
                                                      + bb ** 2 / t ** 2)) \
            * t ** (4 * s)
    return float(np.sum(vals) * step)
