"""Special functions: the Bessel-type integral K_s(x), the archimedean gamma
factor of a field, the gamma function and the upper incomplete gamma
function of complex order.  Nothing here imports scipy.

K_s here is the integral

    K_s(x) = int_0^oo exp(-x(u + 1/u)) u^(s-1) du     (x > 0),

which equals twice the conventional modified Bessel function at doubled
argument, 2 K_s^std(2x) (DLMF 10.32.9).  After u = e^t the integrand decays
doubly exponentially, so trapezoid sums converge at spectral rate
(Trefethen and Weideman, SIAM Rev. 56, 2014).  Every order takes one
fixed-step sum of e^(2x) K_s(x) = int e^(-4x sinh^2(t/2)) cosh(s t) dt,
its step and reach set a priori from x, |Re s| and |Im s|
(_bessel_k_scaled): within 2.5e-15 relative of mpmath at a real order
with |s| <= 9.3 and 2x in [1e-3, 200], and at a complex order within
3e-15 K_(|Re s|)(x) in absolute terms over most of the range that
bessel_k_batch states.

Gamma(s) is Lanczos's sum (SIAM J. Numer. Anal. B 1, 1964) with Godfrey's
coefficients (g = 607/128, 15 terms), reflected for Re s < 1/2: within
8 eps (1 + |s log s|) relative of mpmath, the condition number of Gamma,
for Re s in [-5.5, 30] and |Im s| <= 60.  A real order takes math.gamma.

The incomplete gamma's continued fraction runs the modified Lentz method
as a loop over Python scalars, each argument to its own stop rule.  That
loop serves calls with few arguments (the xi sums of the torus quadrature
pass one or two) and, on arrays, scans the depth of each run of sorted
arguments; the array then takes that fixed-depth approximant evaluated
backward, a few numpy operations per level for the whole run (Gil, Segura
and Temme, Numerical Methods for Special Functions, SIAM 2007, ch. 6).  A
real order takes real arithmetic throughout.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Union

import numpy as np

from .basefield import FieldDescriptor
from .errors import ConvergenceError, PoleError

Complex = Union[complex, float]


# ---------------------------------------------------------------------------
# the gamma function

# Lanczos's g and Godfrey's coefficients of the partial-fraction sum
_LANCZOS_G = 607 / 128
_LANCZOS = (
    0.99999999999999709182, 57.156235665862923517, -59.597960355475491248,
    14.136097974741747174, -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5)
_LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _check_gamma_pole(z: complex, what: str):
    zr = round(z.real)
    if zr <= 0 and abs(z - zr) < 1e-12:
        raise PoleError(f"{what} hits a gamma pole at {z}", location=z)


def _log_gamma_lanczos(z: complex) -> complex:
    """A logarithm of Gamma(z) for Re z >= 1/2: log sqrt(2 pi) + (z - 1/2)
    log t - t + log A(z), t = z + g - 1/2, A the partial-fraction sum."""
    z -= 1
    a = _LANCZOS[0]
    for k in range(1, len(_LANCZOS)):
        a += _LANCZOS[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (z + 0.5) * cmath.log(t) - t + cmath.log(a)


def complex_gamma(s: Complex) -> complex:
    """Gamma(s) by Lanczos's sum, reflected for Re s < 1/2 (Gamma(s) =
    pi/(sin(pi s) Gamma(1 - s))).  Raises PoleError within 1e-12 of a
    non-positive integer; where |Gamma(s)| passes the largest double it
    returns an infinity of the value's phase (an exact zero in a part whose
    phase factor is zero), where it falls below the least, zero."""
    s = complex(s)
    _check_gamma_pole(s, "complex_gamma")
    if s.real >= 0.5:
        log_g = _log_gamma_lanczos(s)
    else:
        # sin(pi s) = (-1)^n sin(pi (s - n)): s - n is exact, where the
        # product pi s would lose the digits of the distance to the pole
        n = round(s.real)
        w = math.pi * (s - n)
        if abs(w.imag) < 20:
            log_sine = cmath.log(cmath.sin(w))
        else:
            # sin w = e^(-i w sign) i sign/2 to rounding, where |sin w| can
            # pass the largest double though Gamma(s) does not underflow
            sign = math.copysign(1.0, w.imag)
            log_sine = -1j * sign * (w - math.pi / 2) - math.log(2)
        log_g = math.log(math.pi) - log_sine - 1j * math.pi * n \
            - _log_gamma_lanczos(1 - s)
    try:
        return cmath.exp(log_g)
    except OverflowError:
        return complex(*(math.copysign(math.inf, c) if c else 0.0
                         for c in (math.cos(log_g.imag),
                                   math.sin(log_g.imag))))


def _gamma(s: Complex) -> Complex:
    """Gamma(s): math.gamma at a real order, complex_gamma otherwise."""
    return math.gamma(s) if isinstance(s, float) else complex_gamma(s)


# ---------------------------------------------------------------------------
# upper incomplete gamma, complex order, array-valued in x

# arguments evaluated per numpy pass: a multi-million-point array of
# Gaussian parameters never allocates more than a few MB per temporary
_BLOCK = 1 << 14
_CF_MAX_ITER = 500
# at most this many arguments take the continued fraction as a loop over
# Python scalars: a level of the backward evaluation costs ~2 us whatever
# its size, and its depth scan two scalar loops.  On random subsets of the
# continued-fraction calls of the benchmark decks (seed 1, a 2-core x86-64
# VM) the scalar loop took 0.58 of the backward evaluation's time at 6
# arguments, 0.92 at 10, 1.05 at 12, 1.29 at 16 and 2.36 at 32 (complex
# orders; at a real order it took 0.76 at 16 and 1.0 at 20)
_CF_SCALAR_MAX = 11
# sorted arguments per run of one depth in the backward evaluation: over the
# continuation deck's array calls (seed 1, 76 k arguments) runs of 256,
# 1,024 and 4,096 took 20.9, 18.6 and 20.4 ms (deeper runs against more
# depth scans)
_CF_RUN = 1024
_SERIES_MAX_TERMS = 10_000
# at most this many arguments take the lower series as a loop over Python
# scalars, more take it on arrays, their stop rule tested every
# _SERIES_STRIDE terms (a test costs five numpy operations, a term three,
# and a test passed late only adds terms below tol).  On 1 to 64 arguments
# in [0.3, 2.4] at s = 2.5, 0.7 and 1 - 1.8i (tol 1e-15, a 2-core x86-64
# VM) the scalar loop took 0.06-0.07 of the arrays' time at 1 argument,
# 0.7-0.9 at 8 and 1.4-2.0 at 16
_SERIES_SCALAR_MAX = 8
_SERIES_STRIDE = 8
# Gauss-Legendre rule per panel of the log-space integral; a panel of width w
# satisfies w * max|d/dt (s t - e^t)| <= _GL_SPAN (24 nodes stay exact to
# rounding up to a span of about 100, and lose digits from 150)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_SPAN = 20.0
# the modified Lentz method's stand-in for a zero denominator
_TINY = 1e-300


def _cf_unconverged(s: complex, n: int, size: int, worst: float, tol: float):
    return ConvergenceError(
        f"incomplete gamma continued fraction at order {complex(s)} did not "
        f"converge: {n} of {size} arguments unconverged after the cap of "
        f"{_CF_MAX_ITER} iterations, worst |delta-1| {worst:.3g} >= tol "
        f"{tol:.3g}",
        cutoff=_CF_MAX_ITER, last_delta=worst, tol=tol, points=n)


def _power_decay(s: Complex, x: np.ndarray) -> np.ndarray:
    """x^s e^-x; at a real order as a product, whose factors round on their
    own, where the exponent -x + s log x would carry |x| ulp of rounding
    (1e-14 relative at x = 200)."""
    if isinstance(s, float):
        return x ** s * np.exp(-x)
    return np.exp(-x + s * np.log(x))


def _incgamma_cf(s: complex, x: np.ndarray, tol: float) -> np.ndarray:
    """Legendre's continued fraction for Gamma(s, x) (DLMF 8.9), reliable for
    x >= min(8, |s| + 1) and x > Re s.  Up to _CF_SCALAR_MAX arguments run
    the modified Lentz method one by one (_lentz_scalar), each to its own
    |delta - 1| < tol; more take a fixed-depth approximant per run of sorted
    arguments, evaluated backward (_cf_backward).  A real order takes real
    arithmetic.  Both raise ConvergenceError when a Lentz loop reaches
    _CF_MAX_ITER: its points are the arguments left unconverged, on arrays
    every argument of a run whose depth scan failed."""
    if s.imag == 0:
        s = s.real
    cf = _lentz_scalar if x.size <= _CF_SCALAR_MAX else _cf_backward
    return cf(s, x, tol) * _power_decay(s, x)


def _lentz(s: Complex, x: float, tol: float):
    """The continued fraction at one argument by the modified Lentz method:
    (value, iterations taken, last |delta - 1|), the last >= tol (or NaN)
    when the loop reached _CF_MAX_ITER unconverged."""
    tiny = _TINY
    b = x + (1.0 - s)
    d = 1.0 / b
    c = 1.0 / tiny
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
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
        miss = abs(delta - 1.0)
        if miss < tol:
            break
    return h, i, miss


def _lentz_scalar(s: Complex, x: np.ndarray, tol: float) -> np.ndarray:
    out = np.empty(x.shape, dtype=np.result_type(s))
    misses = []
    for j, xj in enumerate(x.tolist()):
        out[j], _, miss = _lentz(s, xj, tol)
        if not miss < tol:
            misses.append(miss)
    if misses:
        raise _cf_unconverged(s, len(misses), x.size, max(misses), tol)
    return out


def _cf_depths(s: Complex, xs: np.ndarray, tol: float) -> np.ndarray:
    """The depth of each run of _CF_RUN arguments of the sorted xs: the
    larger of the Lentz counts at the run's least and greatest argument,
    plus 2 (the count is not monotone in x: at some orders it steps up by
    one between neighbouring arguments), raised to be non-increasing along
    xs.  A scan that reaches _CF_MAX_ITER raises ConvergenceError, with the
    arguments of the runs whose scan failed as its points."""
    depths, failed, misses = [], 0, []
    for lo in range(0, xs.size, _CF_RUN):
        hi = min(lo + _CF_RUN, xs.size)
        scans = [_lentz(s, float(xs[e]), tol) for e in {lo, hi - 1}]
        run_misses = [miss for _, _, miss in scans if not miss < tol]
        if run_misses:
            failed += hi - lo
            misses += run_misses
        depths.append(max(i for _, i, _ in scans) + 2)
    if failed:
        raise _cf_unconverged(s, failed, xs.size, max(misses), tol)
    return np.maximum.accumulate(depths[::-1])[::-1]


def _cf_backward(s: Complex, x: np.ndarray, tol: float) -> np.ndarray:
    """The fraction 1/(b_0 + a_1/(b_1 + a_2/(b_2 + ...))), a_k = -k(k - s),
    b_k = x + 2k + 1 - s, at the depth N that _cf_depths gives each run of
    sorted arguments: t <- a_k/(b_k + t) for k = N .. 1 from t = 0, then
    1/(b_0 + t).  The depths do not increase along the sorted arguments, so
    the runs taking part at a level are a prefix of them."""
    order = np.argsort(x)
    xs = x[order]
    depths = _cf_depths(s, xs, tol)
    b0 = xs + (1.0 - s)
    t = np.zeros_like(b0)
    if depths.size == 1:
        # one run: every level spans all arguments, so the b_k = b_0 + 2k of
        # all levels come from one outer sum, and a level takes two numpy
        # operations, not three (on a few dozen arguments the cost of a
        # level is that of its operations, whatever their size)
        bk = np.add.outer(2.0 * np.arange(int(depths[0]) + 1), b0)
        for k in range(int(depths[0]), 0, -1):
            t += bk[k]
            np.divide(-k * (k - s), t, out=t)
    else:
        runs = 0
        for k in range(int(depths[0]), 0, -1):
            while runs < depths.size and depths[runs] >= k:
                runs += 1
            u = t[:runs * _CF_RUN]
            u += b0[:u.size]
            u += 2.0 * k
            np.divide(-k * (k - s), u, out=u)
    t += b0
    out = np.empty_like(t)
    out[order] = 1.0 / t
    return out


def _series_unconverged(s: Complex, n: int, size: int, worst: float,
                        tol: float):
    return ConvergenceError(
        f"incomplete gamma series at order {s} did not converge: {n} of "
        f"{size} arguments unconverged after the cap of {_SERIES_MAX_TERMS} "
        f"terms, largest last term {worst:.3g} > tol {tol:.3g}",
        cutoff=_SERIES_MAX_TERMS, last_delta=worst, tol=tol, points=n)


def _incgamma_series(s: Complex, x: np.ndarray, tol: float,
                     floor: float = 1.0) -> np.ndarray:
    """Gamma(s) minus the power series of the lower function,
    gamma(s, x) = x^s e^-x sum_n x^n / (s (s+1) ... (s+n)) (DLMF 8.7.1);
    for small x, Re s > 0 and |s| >= 1/2, away from the poles of Gamma, and
    for x <= Re s.  Up to _SERIES_SCALAR_MAX arguments sum one by one in
    Python scalars, each to the first term with |term| <= tol max(floor,
    |sum|); more sum on arrays, tested every _SERIES_STRIDE terms, each
    argument stopping at the first test that finds the same.  A real order
    takes real arithmetic.  Both raise ConvergenceError at
    _SERIES_MAX_TERMS terms, with the arguments left unconverged as its
    points."""
    series = _series_scalar if x.size <= _SERIES_SCALAR_MAX \
        else _series_array
    return _gamma(s) - series(s, x, tol, floor) * _power_decay(s, x)


def _series_scalar(s: Complex, x: np.ndarray, tol: float,
                   floor: float) -> np.ndarray:
    out = np.empty(x.shape, dtype=np.result_type(s))
    misses = []
    for j, xj in enumerate(x.tolist()):
        term = total = 1.0 / s
        n = 0
        while abs(term) > tol * max(floor, abs(total)):
            if n == _SERIES_MAX_TERMS:
                misses.append(abs(term))
                break
            n += 1
            term *= xj / (s + n)
            total += term
        out[j] = total
    if misses:
        raise _series_unconverged(s, len(misses), x.size, max(misses), tol)
    return out


def _series_array(s: Complex, x: np.ndarray, tol: float,
                  floor: float) -> np.ndarray:
    term = np.full(x.shape, 1.0 / s)
    total = term.copy()
    out = np.empty_like(term)
    idx = np.arange(x.size)
    xs = x
    n = 0
    while True:
        done = np.abs(term) <= tol * np.maximum(floor, np.abs(total))
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, xs, term, total = idx[keep], xs[keep], term[keep], \
                total[keep]
        if not idx.size:
            return out
        if n == _SERIES_MAX_TERMS:
            raise _series_unconverged(s, idx.size, x.size,
                                      float(np.abs(term).max()), tol)
        for _ in range(min(_SERIES_STRIDE, _SERIES_MAX_TERMS - n)):
            n += 1
            term *= xs
            term /= s + n
            total += term


def _incgamma_quad(s: Complex, x: np.ndarray, edge: float) -> np.ndarray:
    """int_x^edge e^(-u) u^(s-1) du = int e^(s t - e^t) dt over
    t in [log x, log edge], by equal Gauss-Legendre panels per element."""
    a = np.log(x)
    top = math.log(edge)
    panels = max(1, math.ceil(float(np.max(top - a)) * (abs(s) + edge)
                              / _GL_SPAN))
    w = (top - a) / panels
    offsets = np.outer(0.5 * w, _GL_NODES + 1.0)
    total = np.zeros(x.shape, dtype=np.result_type(s))
    for p in range(panels):
        t = (a + p * w)[:, None] + offsets
        total += np.exp(s * t - np.exp(t)) @ _GL_WEIGHTS
    return total * (0.5 * w)


# E_1's series at x < 1: x^k/(k k!) < 2^-53/5 from k = 18 (DLMF 6.6.2)
_E1_SERIES = np.array([0.0] + [(-1) ** (k + 1) / (k * math.factorial(k))
                               for k in range(1, 18)])


def _incgamma_int_series(n: int, x: np.ndarray) -> np.ndarray:
    """Gamma(-n, x) = x^-n E_(n+1)(x) (DLMF 8.19.1) for 0 < x < 1, in real
    arithmetic: E_1(x) = -gamma - log x + sum_k (-1)^(k+1) x^k/(k k!), then
    p E_(p+1)(x) = e^-x - x E_p(x) (DLMF 8.19.12) up to p = n.  At x < 1 the
    recurrence shrinks the error it carries, and the series cancels by at
    most a factor 9 = (gamma + 1.32)/E_1(1)."""
    e = np.polynomial.polynomial.polyval(x, _E1_SERIES) - np.euler_gamma \
        - np.log(x)
    decay = np.exp(-x)
    for p in range(1, n + 1):
        e = (decay - x * e) / p
    return e * x ** -float(n)


def _incgamma_block(s: complex, x: np.ndarray, tol: float) -> np.ndarray:
    sr = round(s.real)
    if sr <= 0 and abs(s - sr) < 1e-12:
        # entire in s: the continued fraction from x = 1 (its Lentz loop
        # takes 58 to 83 steps there at orders 0 to -8), E_1's series and
        # the recurrence in n below
        small = x < 1.0
        if not small.any():
            return _incgamma_cf(float(sr), x, tol)
        out = np.empty(x.shape)
        out[small] = _incgamma_int_series(-sr, x[small])
        out[~small] = _incgamma_cf(float(sr), x[~small], tol)
        return out
    if s.imag == 0:
        s = s.real
    edge = min(8.0, abs(s) + 1.0)
    small = x < edge
    if s.real < edge and not small.any():
        return _incgamma_cf(s, x, tol)
    out = np.empty(x.shape, dtype=np.result_type(s))
    big = ~small
    # at edge <= x <= Re s the fraction's approximants can stagnate before
    # they converge (Lentz's |delta - 1| < tol while the value is still off:
    # 7.1e-7 at s = 25 + 40i, x = 8.03).  There the series' ratios x/|s + n|
    # stay below 1; it stops relative to its sum, which can lie well below 1
    # (about 1/43 at s = 25 + 40i, x = 8)
    right = big & (x <= s.real)
    if right.any():
        big &= ~right
        out[right] = _incgamma_series(s, x[right], tol, floor=0.0)
    out[big] = _incgamma_cf(s, x[big], tol)
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

    * integer s = -n <= 0 (within 1e-12): for x >= 1 the continued
      fraction below; for x < 1 x^-n E_{n+1}(x) (DLMF 8.19.1), from E_1's
      series and the recurrence in n (_incgamma_int_series);
    * x >= min(8, |s| + 1) and x > Re s: the continued fraction (DLMF 8.9),
      for a few arguments each to its own |delta - 1| < tol, for more at
      the depth where the ends of each run of sorted arguments meet it,
      plus 2;
    * min(8, |s| + 1) <= x <= Re s: Gamma(s) minus the lower series
      (DLMF 8.7.1), each to its own |term| <= tol |sum|.  There the
      fraction's Lentz loop can stop on a stagnating approximant: at
      s = 25 + 40i, x = 8.03 it was 7.1e-7 off;
    * smaller x, Re s > 0 and |s| >= 1/2: the same series, each to its own
      |term| <= tol max(1, |sum|);
    * smaller x otherwise: the continued fraction at the edge
      min(8, |s| + 1) plus the integral from x to the edge, taken in log u
      by Gauss-Legendre panels (accurate next to the poles of Gamma, where
      the series and the recurrence in s cancel).

    A real order takes real arithmetic throughout.  At the library's tol
    1e-15 the integer orders 0 to -4 and the real orders in (0, 6] lie
    within 1e-14 relative of mpmath for x in [1e-3, 200].

    Arguments go through in blocks of _BLOCK.  Raises ValueError unless
    every x > 0, and ConvergenceError when the continued fraction or the
    series reaches its cap; its points are the arguments left unconverged
    (of the continued fraction on arrays, the runs whose scan failed).
    """
    s = complex(s)
    xa = np.asarray(x, dtype=float)
    if not (xa > 0).all():
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


# nats by which the sum's discretisation and truncation errors lie below
# K_(|Re nu|): log(2/eps) and a margin of 2 (without the margin the sum
# stays within 4e-15 relative of mpmath over the real orders bessel_k_batch
# states)
_K_NATS = math.log(2 / np.finfo(float).eps) + 2.0
# the grids of _k_nodes round 2x out to quarters of an octave: the K calls
# of one seed-1 pass of the benchmark decks, replayed with caches cold, took
# 1.9 ms on torus for eighths against 1.7 for quarters, halves and octaves
# 1.6 (fewer grids to build against more nodes), and on continuation 3.6,
# 3.5, 3.6 and 4.3 (medians of 15 replays on a noisy 2-core x86-64 VM)
_K_PARTS = 4


@functools.lru_cache(maxsize=256)
def _k_nodes(z_hi: int, z_lo: int, m4: int, n4: int):
    """The nodes t_j = j h, -4 sinh^2(t_j/2) and the trapezoid weights of the
    sum of _bessel_k_scaled for 2x in [2^(z_lo/_K_PARTS),
    2^(z_hi/_K_PARTS)], |Re nu| <= m4/4 and |Im nu| <= n4/4, as read-only
    arrays.

    If f(t) = e^(-2x (cosh t - 1)) cosh(nu t) is analytic and bounded by
    M(a) in the strip |Im t| < a, the trapezoid sum with step h is off by
    at most 2 M(a)/(e^(2 pi a/h) - 1) (Trefethen and Weideman, Thm 5.1);
    over K_(Re nu), M(a) is at most about e^(z (1 - cos a)) (cos
    a)^-(|Re nu| + 1/2) e^(|Im nu| a) at z = 2x (|cosh w| <= cosh Re w),
    so h = 2 pi a/(L + z (1 - cos a) - (|Re nu| + 1/2) log cos a + |Im nu|
    a), L = _K_NATS, at the largest z.  The a that maximises it to second
    order in a, sqrt(2 L/(z + |Re nu| + 1/2)) held to [0.05, 1.5] (the
    |Im nu| term cancels out of that optimum), gives an h within 9% of the
    largest (at |nu| = 10; within 0.6% at |nu| <= 2), never above it.  As
    |f(t)| <= e^(-2x (cosh t - 1)) cosh(Re nu t), the sum reaches the T
    where 2 z sinh^2(T/2) - |Re nu| T = L + log(1 + z)/2 at the least z,
    past which f lies e^-L below K_(Re nu)."""
    m, n = m4 / 4, n4 / 4
    z = 2.0 ** (z_hi / _K_PARTS)
    a = min(1.5, max(0.05, math.sqrt(2 * _K_NATS / (z + m + 0.5))))
    h = 2 * math.pi * a / (_K_NATS + z * (1 - math.cos(a))
                           - (m + 0.5) * math.log(math.cos(a)) + n * a)
    z = 2.0 ** (z_lo / _K_PARTS)
    need = _K_NATS + 0.5 * math.log1p(z)
    # a fixed-point iteration, monotone from T = 1 and converged within 11
    # steps to 1e-9 for 2x in [1e-3, 400] and |nu| <= 10
    T, last = 1.0, 0.0
    while abs(T - last) > 1e-9 * T:
        T, last = 2 * math.asinh(math.sqrt((need + m * T) / (2 * z))), T
    t = h * np.arange(math.ceil(T / h) + 1)
    weights = np.full(t.size, 2 * h)
    weights[0] = h
    nodes = (t, -4 * np.sinh(t / 2) ** 2, weights)
    for a in nodes:
        a.setflags(write=False)
    return nodes


@functools.lru_cache(maxsize=1024)
def _k_weights(z_hi: int, z_lo: int, nu):
    """The exponents -4 sinh^2(t_j/2) of _k_nodes for the order nu, and the
    weights w_j cosh(nu t_j) as one real column, or at a complex order two,
    Re and Im side by side (read-only)."""
    t, exponents, w = _k_nodes(z_hi, z_lo, math.ceil(4 * abs(nu.real)),
                               math.ceil(4 * abs(nu.imag)))
    weights = (np.cosh(nu * t) * w)[:, None].view(float)
    weights.setflags(write=False)
    return exponents, weights


def _bessel_k_scaled(nu, xs: np.ndarray) -> np.ndarray:
    """e^(2x) K_nu(x) at the order nu and positive arguments x, real at a
    real order and complex otherwise: the trapezoid sum of
    int e^(-2x (cosh t - 1)) cosh(nu t) dt over the real line, cosh t - 1
    formed as 2 sinh^2(t/2).  Every argument shares one grid (_k_nodes,
    from the least and the largest 2x rounded out to quarters of an octave
    and |Re nu| and |Im nu| up to a quarter) and so one real matrix of
    exponentials, which one real matrix product takes to the sums."""
    if not xs.size:
        return np.empty(0, dtype=np.result_type(nu))
    exponents, weights = _k_weights(
        math.ceil(_K_PARTS * math.log2(2.0 * np.maximum.reduce(xs))),
        math.floor(_K_PARTS * math.log2(2.0 * np.minimum.reduce(xs))), nu)
    powers = np.multiply.outer(xs, exponents)
    sums = np.exp(powers, out=powers) @ weights
    return (sums if sums.shape[1] == 1 else sums.view(complex))[:, 0]


def bessel_k_batch(s: Complex, xs: np.ndarray) -> np.ndarray:
    """K_s at each entry of a 1-d array of positive arguments (complex).

    Every order, real, negative or complex, is e^(-2x) times the fixed-step
    trapezoid sum of _bessel_k_scaled, for all arguments in one call.  At a
    real order it lies within 2.5e-15 relative of mpmath for |s| <= 9.3 and
    2x in [1e-3, 200].  At a complex order with Re s in [-3, 6] it lies
    within 3e-15 K_(|Re s|)(x) of mpmath for |Im s| <= 8 and 2x in [1e-3,
    200], and for |Im s| <= 60 and 2x in [0.1, 200]; below 2x = 0.1 the
    rounded phases |Im s| t of the far nodes raise it to 1.3e-14 (at |Im
    s| = 45, 2x = 1e-3).  That bound is absolute: |K_s| can lie
    e^(-pi |Im s|/2) below K_(|Re s|), and K_(iT) has zeros for 2x < T.
    Raises ValueError unless every argument is positive (NaN included).
    """
    s = complex(s)
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs > 0):
        raise ValueError("arguments must be positive")
    nu = s.real if s.imag == 0 else s
    return (_bessel_k_scaled(nu, xs) * np.exp(-2.0 * xs)).astype(complex)


def bessel_k(s: Complex, x: float) -> complex:
    """K_s(x) = int_0^oo exp(-x(u+1/u)) u^(s-1) du."""
    if x <= 0:
        raise ValueError("x must be positive")
    return complex(bessel_k_batch(s, np.array([x]))[0])


# ---------------------------------------------------------------------------
# gamma factor of a field


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
