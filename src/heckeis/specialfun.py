"""Special functions: the Bessel-type integral K_s(x), the archimedean gamma
factor of a field, and the upper incomplete gamma function of complex order.

K_s here is the integral

    K_s(x) = int_0^oo exp(-x(u + 1/u)) u^(s-1) du     (x > 0),

which equals twice the conventional modified Bessel function at doubled
argument, 2 K_s^std(2x) (DLMF 10.32.9).  A real order takes that
conversion: scipy's kv (Amos's algorithm, ACM TOMS 644, 1986).  A complex
order takes the integral literally: after u = e^t the integrand decays
doubly exponentially, so trapezoid sums with step halving converge at
spectral rate.
"""

from __future__ import annotations

import cmath
import math
from typing import Union

import numpy as np
from scipy.special import expn as _expn
from scipy.special import gamma as _scipy_gamma
from scipy.special import gammaincc as _gammaincc
from scipy.special import kv as _kv

from . import numerics
from .basefield import FieldDescriptor
from .errors import ConvergenceError, PoleError
from .numerics import nested_trapezoid

Complex = Union[complex, float]


def complex_gamma(s: Complex) -> complex:
    return complex(_scipy_gamma(complex(s)))


# ---------------------------------------------------------------------------
# upper incomplete gamma, complex order, array-valued in x

# arguments evaluated per numpy pass: a multi-million-point array of
# Gaussian parameters never allocates more than a few MB per temporary
_BLOCK = 1 << 14
_CF_MAX_ITER = 500
_SERIES_MAX_TERMS = 10_000
# Gauss-Legendre rule per panel of the log-space integral; a panel of width w
# satisfies w * max|d/dt (s t - e^t)| <= _GL_SPAN (24 nodes stay exact to
# rounding up to a span of about 100, and lose digits from 150)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_SPAN = 20.0


def _incgamma_cf(s: complex, x: np.ndarray, tol: float) -> np.ndarray:
    """Legendre's continued fraction for Gamma(s, x) (DLMF 8.9) by the
    modified Lentz method, reliable for x >= min(8, |s| + 1).  Each element
    stops at its own |delta - 1| < tol and leaves the iteration."""
    tiny = 1e-300
    b = x + (1.0 - s)
    d = 1.0 / b         # b != 0: real s reaching here is <= 0
    c = np.full(x.shape, 1.0 / tiny, dtype=complex)
    h = d.copy()
    out = np.empty(x.shape, dtype=complex)
    idx = np.arange(x.size)
    i = 0
    while idx.size:
        if i == _CF_MAX_ITER:
            raise ConvergenceError(
                f"incomplete gamma continued fraction at order {s} did not "
                f"converge: {idx.size} of {x.size} arguments unconverged "
                f"after the cap of {_CF_MAX_ITER} iterations, worst "
                f"|delta-1| {miss.max():.3g} >= tol {tol:.3g}",
                cutoff=i, last_delta=float(miss.max()), tol=tol,
                points=idx.size)
        i += 1
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        miss = np.abs(delta - 1.0)
        done = miss < tol
        if done.any():
            out[idx[done]] = h[done]
            keep = ~done
            idx, b, c, d, h, miss = idx[keep], b[keep], c[keep], d[keep], \
                h[keep], miss[keep]
    return out * np.exp(-x + s * np.log(x))


def _incgamma_series(s: complex, x: np.ndarray, tol: float) -> np.ndarray:
    """Gamma(s) minus the power series of the lower function,
    gamma(s, x) = x^s e^-x sum_n x^n / (s (s+1) ... (s+n)) (DLMF 8.7.1);
    for small x, Re s > 0 and |s| >= 1/2, away from the poles of Gamma."""
    term = np.full(x.shape, 1.0 / s, dtype=complex)
    total = term.copy()
    out = np.empty(x.shape, dtype=complex)
    idx = np.arange(x.size)
    xs = x
    n = 0
    while True:
        done = np.abs(term) <= tol * np.maximum(1.0, np.abs(total))
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, xs, term, total = idx[keep], xs[keep], term[keep], \
                total[keep]
        if not idx.size:
            return complex_gamma(s) - out * np.exp(-x + s * np.log(x))
        if n == _SERIES_MAX_TERMS:
            raise ConvergenceError(
                f"incomplete gamma series at order {s} did not converge: "
                f"{idx.size} of {x.size} arguments unconverged after the cap "
                f"of {_SERIES_MAX_TERMS} terms, largest last term "
                f"{np.abs(term).max():.3g} > tol {tol:.3g}",
                cutoff=n, last_delta=float(np.abs(term).max()), tol=tol,
                points=idx.size)
        n += 1
        term = term * (xs / (s + n))
        total = total + term


def _incgamma_quad(s: complex, x: np.ndarray, edge: float) -> np.ndarray:
    """int_x^edge e^(-u) u^(s-1) du = int e^(s t - e^t) dt over
    t in [log x, log edge], by equal Gauss-Legendre panels per element."""
    a = np.log(x)
    top = math.log(edge)
    panels = max(1, math.ceil(float(np.max(top - a)) * (abs(s) + edge)
                              / _GL_SPAN))
    w = (top - a) / panels
    offsets = np.outer(0.5 * w, _GL_NODES + 1.0)
    total = np.zeros(x.shape, dtype=complex)
    for p in range(panels):
        t = (a + p * w)[:, None] + offsets
        total += np.exp(s * t - np.exp(t)) @ _GL_WEIGHTS
    return total * (0.5 * w)


def _incgamma_block(s: complex, x: np.ndarray, tol: float) -> np.ndarray:
    sr = round(s.real)
    if sr <= 0 and abs(s - sr) < 1e-12:
        # entire in s; Gamma(-n, x) = x^-n E_{n+1}(x) (DLMF 8.19.1)
        return (x ** sr * _expn(1 - sr, x)).astype(complex)
    if s.imag == 0 and s.real > 0:
        return (_gammaincc(s.real, x) * _scipy_gamma(s.real)).astype(complex)
    edge = min(8.0, abs(s) + 1.0)
    out = np.empty(x.shape, dtype=complex)
    big = x >= edge
    out[big] = _incgamma_cf(s, x[big], tol)
    small = ~big
    if not small.any():
        return out
    if s.real > 0 and abs(s) >= 0.5:
        out[small] = _incgamma_series(s, x[small], tol)
    else:
        # near a pole of Gamma the series cancels, and so does the recurrence
        # Gamma(s, x) = (Gamma(s+1, x) - x^s e^-x) / s that would shift the
        # order away from it; the log-space integral has no such cancellation
        # while Re s <= 0 (x^s/s keeps |Gamma(s, x)| from being small) or
        # |s| < 1/2 (its integrand hardly oscillates)
        out[small] = _incgamma_cf(s, np.array([edge]), tol)[0] \
            + _incgamma_quad(s, x[small], edge)
    return out


def upper_incomplete_gamma(s: Complex, x, tol: float = 1e-14):
    """Gamma(s, x) = int_x^oo e^(-u) u^(s-1) du for complex s and real x > 0.

    `x` is a scalar (the result is a Python complex) or an array of
    arguments for the one order s (the result is a complex array of its
    shape).  Each element takes one method:

    * integer s = -n <= 0 (within 1e-12): x^-n E_{n+1}(x) (DLMF 8.19.1);
    * real s > 0: the regularized Q(s, x) times Gamma(s) (scipy gammaincc);
    * x >= min(8, |s| + 1): the continued fraction (DLMF 8.9), each
      element to its own |delta - 1| < tol;
    * smaller x, Re s > 0 and |s| >= 1/2: Gamma(s) minus the lower series
      (DLMF 8.7.1);
    * smaller x otherwise: the continued fraction at the edge
      min(8, |s| + 1) plus the integral from x to the edge, taken in log u
      by Gauss-Legendre panels (accurate next to the poles of Gamma, where
      the series and the recurrence in s cancel).

    Arguments go through in blocks of _BLOCK.  Raises ValueError unless
    every x > 0, and ConvergenceError when the continued fraction or the
    series reaches its cap; its points are the arguments left unconverged.
    """
    s = complex(s)
    xa = np.asarray(x, dtype=float)
    if not np.all(xa > 0):
        raise ValueError("x must be positive")
    flat = xa.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for start in range(0, flat.size, _BLOCK):
        out[start:start + _BLOCK] = _incgamma_block(
            s, flat[start:start + _BLOCK], tol)
    if xa.ndim == 0 and not isinstance(x, np.ndarray):
        return complex(out[0])
    return out.reshape(xa.shape)


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


def bessel_k_batch(s: Complex, xs: np.ndarray,
                   tol: float = 1e-12) -> np.ndarray:
    """K_s at each entry of a 1-d array of positive arguments (complex).

    A real order, negative orders included, is 2 kv(s, 2x) for all
    arguments in one call, whatever tol asks: a few ulp relative for
    2x > 2, and up to 6e-14 relative for 2x <= 2, where Amos sums Temme's
    series (measured against mpmath at non-half-integer orders).  A complex
    order takes the trapezoid rule (_bessel_trapezoid) to absolute accuracy
    ~tol on each entry.  Raises ValueError unless every argument is
    positive (NaN included).
    """
    s = complex(s)
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs > 0):
        raise ValueError("arguments must be positive")
    if s.imag == 0:
        return (2.0 * _kv(s.real, 2.0 * xs)).astype(complex)
    return _bessel_trapezoid(s, xs, tol)


def _bessel_trapezoid(s: complex, xs: np.ndarray, tol: float) -> np.ndarray:
    """K_s by nested trapezoid sums of the defining integral, absolute
    accuracy ~tol on each entry: the route of complex orders, and the
    reference that tests and the specialfun suite hold kv against at real
    orders.  Sorted entries go through in chunks that bound the
    (n_x, n_nodes) work matrix, each chunk on one grid."""
    out = np.empty(xs.shape, dtype=complex)
    order = np.argsort(xs)
    chunk = max(1, 4_000_000 // 1024)
    for start in range(0, xs.size, chunk):
        idx = order[start:start + chunk]
        out[idx] = _bessel_chunk(s, xs[idx], tol)
    return out


def _bessel_chunk(s: complex, xs: np.ndarray, tol: float) -> np.ndarray:
    L = math.log(4.0 / tol) + numerics.TAIL_MARGIN
    T = _bessel_grid_halfwidth(abs(s.real), float(xs.min()), L)

    def integrand(taus: np.ndarray) -> np.ndarray:
        return np.exp(-2.0 * np.outer(xs, np.cosh(taus)) + s * taus[None, :])

    def grid(h: float) -> np.ndarray:
        n = math.floor(T / h)
        return np.arange(-n, n + 1)

    return nested_trapezoid(integrand, grid, 0.5, tol / 4.0, "bessel trapezoid")


def bessel_k(s: Complex, x: float, tol: float = 1e-12) -> complex:
    """K_s(x) = int_0^oo exp(-x(u+1/u)) u^(s-1) du."""
    if x <= 0:
        raise ValueError("x must be positive")
    return complex(bessel_k_batch(s, np.array([x]), tol)[0])


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


def gamma_F_integral(F: FieldDescriptor, s: float) -> float:
    """Direct quadrature of the defining integral (real s > 0 only; test
    oracle).  Radial substitution t = e^u, steps of 1e-3 up to u = 9."""
    if s <= 0:
        raise ValueError("defining integral needs Re s > 0")
    drift = s if F.is_rational else 2.0 * s
    step = 1e-3
    u = np.arange(-(32.0 / drift + 2.0), 9.0, step)
    t = np.exp(u)
    if F.is_rational:
        # 2 * int_0^oo exp(-pi t^2) t^s dt/t
        vals = 2.0 * np.exp(-math.pi * t ** 2) * t ** s
    else:
        # 4 pi int_0^oo exp(-2 pi r^2) r^(2 s) dr / r
        vals = 4.0 * math.pi * np.exp(-2 * math.pi * t ** 2) * t ** (2 * s)
    return float(np.sum(vals) * step)
