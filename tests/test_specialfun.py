import cmath
import functools
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0

from heckeis import specialfun, verify
from heckeis.basefield import make_field
from heckeis.errors import ConvergenceError, PoleError
from heckeis.numerics import nested_trapezoid
from heckeis.specialfun import (bessel_k, bessel_k_batch, gamma_F,
                                gamma_F_integral, upper_incomplete_gamma)
from heckeis.verify import run_suite

Q = make_field("Q")
Fi = make_field(-1)
F3 = make_field(-3)


def bessel_riemann_oracle(s, x):
    """Independent Riemann sum for int_0^oo exp(-x(u+1/u)) u^(s-1) du."""
    t = np.arange(-14.0, 14.0, 2e-4)
    u = np.exp(t)
    vals = np.exp(-x * (u + 1.0 / u)) * np.exp(complex(s) * t)
    return complex(np.sum(vals) * 2e-4)


# ---------------------------------------------------------------------------
# K_s


@pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
def test_bessel_half_order_closed_form(x):
    closed = math.sqrt(math.pi / x) * math.exp(-2 * x)
    assert abs(bessel_k(0.5, x) - closed) < 1e-12
    assert abs(bessel_riemann_oracle(0.5, x) - closed) < 1e-10


def test_bessel_order_symmetry():
    s = 0.7 + 0.3j
    assert abs(bessel_k(s, 2.0) - bessel_k(-s, 2.0)) < 1e-12


def test_bessel_monotone_in_x():
    assert bessel_k(2.0, 10.0).real < bessel_k(2.0, 1.0).real


def test_bessel_recurrence_against_oracle():
    # K_{s+1}(x) - K_{s-1}(x) = (s/x) K_s(x): the constant is re-derived from
    # the quadrature oracle before being asserted for the implementation
    for s, x in [(1.0, 1.0), (1.5, 3.0)]:
        o_lhs = bessel_riemann_oracle(s + 1, x) - bessel_riemann_oracle(s - 1, x)
        o_rhs = (s / x) * bessel_riemann_oracle(s, x)
        assert abs(o_lhs - o_rhs) < 1e-8
        lhs = bessel_k(s + 1, x) - bessel_k(s - 1, x)
        rhs = (s / x) * bessel_k(s, x)
        assert abs(lhs - rhs) < 1e-12


def test_bessel_vs_riemann_oracle_complex_order():
    for s, x in [(0.25 + 1.2j, 0.8), (2.0 - 0.7j, 3.0)]:
        assert abs(bessel_k(s, x) - bessel_riemann_oracle(s, x)) < 1e-9


def test_bessel_batch_matches_scalar():
    xs = np.array([0.3, 1.0, 2.7, 9.0])
    batch = bessel_k_batch(1.25, xs)
    for x, v in zip(xs, batch):
        assert abs(v - bessel_k(1.25, x)) < 1e-12


def _first_two_levels(f, grid, h):
    """The first two levels of a nested trapezoid sum as two calls of f:
    the sum over grid(h), and the halved step's sum from it and the new
    odd nodes."""
    coarse = h * f(grid(h) * h).sum(axis=-1)
    k = grid(h / 2)
    return coarse / 2 + (h / 2) * f(k[k % 2 != 0] * (h / 2)).sum(axis=-1)


@pytest.mark.parametrize("rows", [None, [0.25, 0.5, 1.0]])
def test_nested_trapezoid_evaluates_the_first_two_levels_in_one_call(rows):
    # exp(c cos t) over its period 2 pi: the rule with 8 nodes is off by
    # 1.3e-6 at c = 1 and with 16 to rounding, so the first comparison accepts
    # at tol 1e-5.  The one call of f holds the 8 nodes followed by
    # the 8 new ones, its values give both levels, and the value is the
    # two-call one bit for bit; on a matrix of values (the Bessel
    # trapezoid's) each row is its own integral
    cs = np.array(1.0 if rows is None else rows)
    calls = []

    def f(taus):
        calls.append(taus)
        return np.exp(np.multiply.outer(cs, np.cos(taus)))

    def grid(h):
        return np.arange(round(2 * math.pi / h))

    got = nested_trapezoid(f, grid, 2 * math.pi / 8, 1e-5, "test")
    assert len(calls) == 1
    nodes = calls[0]
    assert nodes.size == len(set(nodes.tolist())) == 16
    assert np.array_equal(nodes[:8], grid(math.pi / 4) * (math.pi / 4))
    calls.clear()
    want = _first_two_levels(f, grid, 2 * math.pi / 8)
    assert np.array_equal(np.concatenate(calls), nodes)
    assert got.shape == cs.shape and np.array_equal(got, want)
    np.testing.assert_allclose(got, 2 * math.pi * i0(cs), rtol=1e-14)


def test_nested_trapezoid_raises_below_its_rounding_floor():
    # 1e6 exp(cos t) over its period integrates to 2 pi i0(1) 1e6 = 8.0e6,
    # so eps h sum |f| is about 1.8e-9: at tol 1e-10 the first comparison
    # raises, after the 16 nodes of the first call, where halving on would
    # only chase rounding; at tol 1e-8 the sum converges
    def f(taus):
        return 1e6 * np.exp(np.cos(taus))

    def grid(h):
        return np.arange(round(2 * math.pi / h))

    with pytest.raises(ConvergenceError,
                       match=r"test lies below its rounding floor: "
                             r"eps\*h\*sum\|f\| = 1\.77e-09 > tol 1e-10 at "
                             r"step 0\.393, nodes 16") as info:
        nested_trapezoid(f, grid, 2 * math.pi / 8, 1e-10, "test")
    err = info.value
    assert (err.cutoff, err.tol, err.points) == (math.pi / 8, 1e-10, 16)
    assert err.last_delta > err.tol
    got = nested_trapezoid(f, grid, 2 * math.pi / 8, 1e-8, "test")
    assert abs(got - 2e6 * math.pi * i0(1.0)) < 1e-8


def test_bessel_rejects_nonpositive():
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)


@pytest.mark.parametrize("s", [1.0, -0.2, 0.5 + 0.1j])
@pytest.mark.parametrize("bad", [[1.0, np.nan], [np.nan], [2.0, -1.0]])
def test_bessel_batch_rejects_nan_and_nonpositive(s, bad):
    # NaN compares false with 0, so it must be rejected explicitly: kv
    # returns NaN for it, and the trapezoid cannot converge on it
    with pytest.raises(ValueError, match="positive"):
        bessel_k_batch(s, np.array(bad))


def _mp_bessel(nu, x):
    """2 K_nu^std(2x) (DLMF 10.32.9) at 30 digits."""
    with mp.workdps(30):
        return complex(2 * mp.besselk(mp.mpc(nu), 2 * mp.mpf(x)))


@pytest.mark.parametrize("nu", [-3.7, -1.0, -0.2, 0.0, 0.5, 1.0, 2.5, 4.0,
                                9.3])
def test_bessel_real_order_vs_mpmath(nu):
    # scipy's kv (Amos) was up to 6e-14 relative off for 2x <= 2 at
    # non-half-integer orders, where it sums Temme's series; the fixed-step
    # sum is a few ulp off everywhere
    xs = np.array([0.05, 0.3, 0.7, 1.0, 2.0, 15.0, 60.0])
    got = bessel_k_batch(nu, xs)
    assert got.dtype == complex and np.all(got.imag == 0)
    want = np.array([_mp_bessel(nu, x) for x in xs])
    rel = np.abs(got - want) / np.abs(want)
    assert np.all(rel < 4e-15)


# Re s and |Im s| of the complex-order grid, and four orders off it (one
# with Im s < 0); 2x from 1e-3 to 200
_K_COMPLEX_ORDERS = [complex(re, im)
                     for re in (-3.0, -0.5, 0.0, 0.25, 1.0, 2.0, 4.0, 6.0)
                     for im in (0.1, 0.9, 1.8, 4.0, 8.0, 30.0, 60.0)] \
    + [0.25 + 1.2j, 2.0 - 0.7j, -1.5 + 0.3j, 0.5 + 4.0j]
_K_COMPLEX_Z = np.geomspace(1e-3, 200.0, 11)


@functools.lru_cache(maxsize=None)
def _mp_k_real_order(nu):
    """K_nu at the arguments x = z/2 of _K_COMPLEX_Z, by _mp_bessel."""
    return np.array([_mp_bessel(nu, z / 2).real for z in _K_COMPLEX_Z])


@pytest.mark.parametrize("s", _K_COMPLEX_ORDERS)
def test_bessel_complex_order_trapezoid_vs_mpmath(s):
    # the fixed-step sum at a complex order is off by a few eps
    # K_(|Re s|)(x), an absolute bound: |K_s| can lie e^(-pi |Im s|/2) below
    # it, and K_(iT) has zeros for 2x < T
    xs = _K_COMPLEX_Z / 2
    got = bessel_k_batch(s, xs)
    want = np.array([_mp_bessel(s, x) for x in xs])
    assert np.all(np.abs(got - want) <= 1e-14 * _mp_k_real_order(abs(s.real)))


@pytest.mark.parametrize("nu", [-0.2, 0.5, 1.0, 2.5, 4.0])
def test_bessel_kv_matches_trapezoid_at_real_orders(nu):
    # 1,600 arguments in [0.5, 30]: the fixed-step sum and the verify
    # suite's literal-integral reference agree to 1e-14 max(1, |K|) where
    # 2x > 2, and to 2e-14 below
    xs = np.linspace(0.5, 30.0, 1600)
    kv = bessel_k_batch(nu, xs)
    ref = np.array([verify._bessel_k_reference(complex(nu), x,
                                               2.5e-15 * max(1.0, abs(k)))
                    for x, k in zip(xs.tolist(), kv)])
    err = np.abs(kv - ref) / np.maximum(1.0, np.abs(ref))
    assert np.all(err[xs > 1.0] < 1e-14)
    assert np.all(err < 2e-14)


def test_every_order_takes_the_fixed_step_sum(monkeypatch):
    # one kernel for every order: a real order (1.5 + 0j included) as a
    # real float, so that its sum stays in real arithmetic, a complex one
    # as it is
    calls = []
    kernel = specialfun._bessel_k_scaled

    def counted(nu, xs):
        calls.append(nu)
        return kernel(nu, xs)

    monkeypatch.setattr(specialfun, "_bessel_k_scaled", counted)
    xs = np.array([0.2, 1.0, 7.5])
    orders = (-2.5, -0.2, 0.0, 1.0, 3.3, 1.5 + 0j, 0.5 + 0.1j, -2.0 - 30j)
    want = []
    for nu in orders:
        bessel_k_batch(nu, xs)
        bessel_k(nu, 0.8)
        nu = complex(nu)
        want += [nu.real if nu.imag == 0 else nu] * 2
    assert calls == want
    assert [type(o) for o in calls] == [float] * 12 + [complex] * 4


# orders with |nu| <= 6 on a step of 1/4 and off it, and 2x from 1e-3 to 200
_K_PIN_ORDERS = np.arange(-5.0, 6.01, 0.25).tolist() + [-4.3, -0.2, 0.37,
                                                         2.71, 5.9]
_K_PIN_Z = np.geomspace(1e-3, 200.0, 25)


@pytest.mark.parametrize("nu", _K_PIN_ORDERS)
def test_bessel_real_order_pins_mpmath(nu):
    # K and e^(2x) K to 1e-14 relative over 2x in [1e-3, 200], for the
    # arguments in one call (one grid for all of them) and one by one; no
    # arguments give an empty array
    xs = _K_PIN_Z / 2
    with mp.workdps(30):
        want = [(2 * mp.besselk(nu, z), 2 * mp.besselk(nu, z) * mp.exp(z))
                for z in _K_PIN_Z.tolist()]
    k, scaled = (np.array([float(w[i]) for w in want]) for i in (0, 1))
    got = bessel_k_batch(nu, xs)
    assert np.all(np.abs(got - k) <= 1e-14 * k)
    got = specialfun._bessel_k_scaled(nu, xs)
    assert np.all(np.abs(got - scaled) <= 1e-14 * scaled)
    single = np.array([specialfun._bessel_k_scaled(nu, xs[i:i + 1])[0]
                       for i in range(xs.size)])
    assert np.all(np.abs(single - scaled) <= 1e-14 * scaled)
    assert specialfun._bessel_k_scaled(nu, np.zeros(0)).shape == (0,)


# ---------------------------------------------------------------------------
# incomplete gamma


def test_incgamma_exponential_case():
    assert abs(upper_incomplete_gamma(1.0, 2.0) - math.exp(-2)) < 1e-14


def test_incgamma_small_x_limit():
    assert abs(upper_incomplete_gamma(2.0, 1e-9) - 1.0) < 1e-8


def test_incgamma_recurrence():
    s, x = 1.5 + 0.5j, 3.0
    lhs = upper_incomplete_gamma(s + 1, x)
    rhs = s * upper_incomplete_gamma(s, x) + cmath.exp(s * math.log(x)) \
        * math.exp(-x)
    assert abs(lhs - rhs) < 1e-13


@pytest.mark.parametrize("s", [0.3, 2.5, -0.7 + 0.2j, -2.0, 0.0, -1.0,
                               1.5 + 2.0j, -3.3 - 0.4j])
@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 30.0])
def test_incgamma_vs_mpmath(s, x):
    with mp.workdps(30):
        want = complex(mp.gammainc(mp.mpc(s), a=x, b=mp.inf))
    got = upper_incomplete_gamma(s, x)
    assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def _mp_incgamma(s, x):
    with mp.workdps(40):
        return complex(mp.gammainc(mp.mpc(s), a=mp.mpf(x), b=mp.inf))


@pytest.mark.parametrize("s", [-3, -1, 0, 0.3, 1.4, -0.5, -1.5, 1 - 1.8j,
                               -0.7 + 0.2j, -3.3 - 0.4j])
def test_incgamma_array_matches_scalar_and_mpmath(s):
    # both sides of the continued-fraction edge min(8, |s|+1) and of 8
    xs = np.array([0.05, abs(s) + 1 - 1e-9, abs(s) + 1 + 1e-9, 8 - 1e-9,
                   8 + 1e-9, 70.0])
    got = upper_incomplete_gamma(s, xs)
    assert got.shape == xs.shape and got.dtype == complex
    one_by_one = np.array([upper_incomplete_gamma(s, x) for x in xs])
    np.testing.assert_allclose(got, one_by_one, rtol=1e-14, atol=0)
    # arrays wholly below and wholly above the edges
    for part in (slice(0, 2), slice(4, 6)):
        np.testing.assert_allclose(upper_incomplete_gamma(s, xs[part]),
                                   got[part], rtol=1e-14, atol=0)
    want = np.array([_mp_incgamma(s, x) for x in xs])
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)


@pytest.mark.parametrize("s", [-1 + 2e-12, -2 + 1e-9 + 1e-9j, 1e-9j,
                               1e-9 + 1e-9j])
@pytest.mark.parametrize("x", [0.05, 0.5, 3.0])
def test_incgamma_near_nonpositive_integer_orders(s, x):
    # the recurrence in s loses digits as s + k -> 0; the result must keep
    # 1e-12 relative accuracy all the same
    want = _mp_incgamma(s, x)
    assert abs(upper_incomplete_gamma(s, x) - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("s,x", [(-0.5 + 6j, 1e-5), (-2.5 + 4j, 1e-8),
                                 (-6.9 + 0.1j, 1e-8), (0.2 - 7j, 1e-8)])
def test_incgamma_tiny_arguments(s, x):
    # long log-space ranges and many oscillations of x^s
    want = _mp_incgamma(s, x)
    assert abs(upper_incomplete_gamma(s, x) - want) < 1e-12 * abs(want)


# more arguments than the continued fraction's scalar loop takes
_CF_ARRAY_XS = np.linspace(10.0, 30.0, specialfun._CF_SCALAR_MAX + 1).tolist()


@pytest.mark.parametrize("cap,xs", [("_CF_MAX_ITER", [10.0, 20.0, 30.0]),
                                     ("_SERIES_MAX_TERMS", [0.5, 1.0]),
                                     ("_CF_MAX_ITER", _CF_ARRAY_XS)])
def test_incgamma_reports_how_far_it_got(cap, xs, monkeypatch):
    # the continued fraction runs at x >= |s| + 1 (the scalar loop for 3
    # arguments; for _CF_SCALAR_MAX + 1 the backward evaluation, whose depth
    # scan fails), the series below it; with the cap at 2 no argument
    # converges
    monkeypatch.setattr(specialfun, cap, 2)
    with pytest.raises(ConvergenceError) as info:
        upper_incomplete_gamma(1.5 + 0.5j, np.array(xs), tol=1e-14)
    err = info.value
    assert (err.cutoff, err.tol, err.points) == (2, 1e-14, len(xs))
    assert f"{len(xs)} of {len(xs)} arguments unconverged" in str(err)
    assert err.last_delta > 1e-14
    assert f"{err.last_delta:.3g}" in str(err)


def test_incgamma_empty_and_zero_d_inputs():
    empty = upper_incomplete_gamma(1 - 1.8j, np.zeros(0))
    assert empty.shape == (0,) and empty.dtype == complex
    zero_d = upper_incomplete_gamma(-0.5, np.array(2.0))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    scalar = upper_incomplete_gamma(-0.5, 2.0)
    assert type(scalar) is complex and scalar == complex(zero_d)
    grid = upper_incomplete_gamma(0.3, np.full((2, 3), 1.5))
    assert grid.shape == (2, 3)
    for bad in ([1.0, 0.0], [2.0, -1.0], [np.nan]):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(1.4, np.array(bad))


@given(st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                          allow_infinity=False),
       st.lists(st.floats(0.01, 60.0), min_size=1, max_size=8))
def test_incgamma_recurrence_on_arrays(s, xs):
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x across every method boundary
    xs = np.array(xs)
    power = np.exp(s * np.log(xs) - xs)
    lhs = upper_incomplete_gamma(s + 1, xs)
    rhs = s * upper_incomplete_gamma(s, xs)
    scale = np.abs(rhs) + np.abs(power)
    assert np.all(np.abs(lhs - rhs - power) <= 1e-12 * scale)


def test_incgamma_continued_fraction_reports_how_far_it_got(monkeypatch):
    # 3 arguments take the scalar loop, _CF_SCALAR_MAX + 1 the backward
    # evaluation, whose one run's depth scan fails at both ends
    monkeypatch.setattr(specialfun, "_CF_MAX_ITER", 3)
    for xs in ([9.0, 20.0, 400.0],
               np.geomspace(9.0, 400.0, specialfun._CF_SCALAR_MAX + 1)):
        n = len(xs)
        with pytest.raises(ConvergenceError) as info:
            upper_incomplete_gamma(1 - 1.8j, np.array(xs), 1e-14)
        m = re.fullmatch(
            r"incomplete gamma continued fraction at order \(1-1\.8j\) did "
            rf"not converge: {n} of {n} arguments unconverged after the cap "
            r"of 3 iterations, worst \|delta-1\| (\S+) >= tol 1e-14",
            str(info.value))
        assert m, str(info.value)
        assert float(m[1]) >= 1e-14


@pytest.mark.parametrize("s", [-0.5, -2.5, -0.3, -3.7, 0.7 + 0.3j,
                               -3.3 - 0.4j, 1.5 + 2.0j])
@pytest.mark.parametrize("size", [1, specialfun._CF_SCALAR_MAX,
                                  specialfun._CF_SCALAR_MAX + 1, 64, 65])
def test_incgamma_continued_fraction_paths_agree(s, size, monkeypatch):
    # the scalar loop and the backward evaluation compute the same fraction
    # on the same arguments, from the continued fraction's edge
    # min(8, |s| + 1) up, to rounding, not bit for bit: the scalar loop's
    # running product takes a rounding or two at each of its steps (some
    # 60 next to the edge), the backward evaluation a few in all
    s = complex(s)
    xs = np.geomspace(min(8.0, abs(s) + 1.0), 80.0, size)
    scalar_by_default = size <= specialfun._CF_SCALAR_MAX
    taken = []
    for name in ("_lentz_scalar", "_cf_backward"):
        loop = getattr(specialfun, name)
        monkeypatch.setattr(specialfun, name,
                            lambda *a, name=name, loop=loop:
                            taken.append(name) or loop(*a))
    default = specialfun._incgamma_cf(s, xs, 1e-15)
    monkeypatch.setattr(specialfun, "_CF_SCALAR_MAX", xs.size)
    scalar = specialfun._incgamma_cf(s, xs, 1e-15)
    monkeypatch.setattr(specialfun, "_CF_SCALAR_MAX", xs.size - 1)
    array = specialfun._incgamma_cf(s, xs, 1e-15)
    assert taken[1:] == ["_lentz_scalar", "_cf_backward"]
    assert taken[0] == ("_lentz_scalar" if scalar_by_default
                        else "_cf_backward")
    assert np.array_equal(default, scalar if scalar_by_default else array)
    np.testing.assert_allclose(scalar, array, rtol=1e-14, atol=0)


def test_incgamma_backward_reports_the_runs_that_failed(monkeypatch):
    # runs of 4 of 12 sorted arguments; the scalar loop needs 14 and 8
    # steps at the ends of the first run, 7 and 5 at those of the second
    # and 4 beyond: with the cap at 7 only the first run fails, and its
    # arguments are the points, its worse end's last change the last delta
    s, xs = 1 - 1.8j, np.geomspace(9.0, 400.0, 12)
    monkeypatch.setattr(specialfun, "_CF_RUN", 4)
    monkeypatch.setattr(specialfun, "_CF_MAX_ITER", 7)
    counts = [specialfun._lentz(s, x, 1e-14)[1] for x in xs.tolist()]
    assert counts[:8] == [7, 7, 7, 7, 7, 6, 5, 5]
    worst = max(specialfun._lentz(s, x, 1e-14)[2]
                for x in xs[[0, 3]].tolist())
    with pytest.raises(ConvergenceError) as info:
        upper_incomplete_gamma(s, xs[::-1].copy(), 1e-14)
    err = info.value
    assert (err.cutoff, err.tol, err.points) == (7, 1e-14, 4)
    assert err.last_delta == worst >= 1e-14
    assert f"4 of 12 arguments unconverged after the cap of 7 iterations, " \
           f"worst |delta-1| {worst:.3g} >= tol 1e-14" in str(err)


# the orders of the benchmark decks, and orders far up the imaginary axis
_CF_ORDERS = [1 + 1.8j, 1 - 1.8j, -1.5, -0.5, -0.25, 0.5 + 0.9j,
              -3.3 - 0.4j, 60j, 0.5 + 60j, 0.5 - 60j]


def _cf_grid(nu):
    """400 log-spaced arguments from the continued fraction's edge to 200."""
    return np.geomspace(min(8.0, abs(nu) + 1.0), 200.0, 400)


def _mp_fraction(nu, x):
    """(Gamma(nu, x), Gamma(nu, x) x^-nu e^x) at 30 digits."""
    with mp.workdps(30):
        g = mp.gammainc(mp.mpc(nu), a=mp.mpf(x), b=mp.inf)
        return complex(g), complex(g * mp.exp(x) * mp.power(x, -mp.mpc(nu)))


def _assert_backward_matches_scalar_and_mpmath(nu, xs, mp_every):
    s = nu.real if nu.imag == 0 else nu     # as _incgamma_cf passes it on
    frac = specialfun._cf_backward(s, xs, 1e-15)
    scans = [specialfun._lentz(s, x, 1e-15) for x in xs.tolist()]
    scalar = np.array([h for h, _, _ in scans])
    # the scalar loop's product gathers up to about one ulp a step (0.7 n
    # ulp measured): at 50 steps, next to the edge of the real orders, it
    # is itself 6e-15 off the value
    steps = np.array([n for _, n, _ in scans])
    bound = np.maximum(4e-15, steps * 2.0 ** -52)
    assert np.all(np.abs(frac - scalar) <= bound * np.abs(scalar))
    got = upper_incomplete_gamma(nu, xs, 1e-15)
    pick = slice(0, None, mp_every)
    want = np.array([_mp_fraction(nu, x) for x in xs[pick]])
    np.testing.assert_allclose(frac[pick], want[:, 1], rtol=4e-15, atol=0)
    np.testing.assert_allclose(got[pick], want[:, 0], rtol=1e-13, atol=0)


@pytest.mark.parametrize("nu", _CF_ORDERS)
def test_incgamma_backward_matches_scalar_loop_and_mpmath(nu):
    # the fraction alone against the scalar loop at every argument; the
    # fraction and the value (whose factor x^nu e^-x rounds at up to
    # (x + |nu log x|) ulp) against mpmath at every fourth
    _assert_backward_matches_scalar_and_mpmath(complex(nu), _cf_grid(nu), 4)


@settings(max_examples=25)
@given(st.floats(-4.0, 2.0), st.floats(-60.0, 60.0),
       st.lists(st.floats(0.0, 1.0), min_size=specialfun._CF_SCALAR_MAX + 1,
                max_size=24))
def test_incgamma_backward_property(re, im, us):
    nu = complex(re, im)
    edge = min(8.0, abs(nu) + 1.0)
    xs = edge * (200.0 / edge) ** np.array(us)
    _assert_backward_matches_scalar_and_mpmath(nu, xs, 1)


@pytest.mark.parametrize("run", [4, 32, specialfun._CF_RUN])
@pytest.mark.parametrize("nu", _CF_ORDERS)
def test_incgamma_backward_depth_covers_every_argument(nu, run,
                                                       monkeypatch):
    # the scalar loop's count is not monotone in x; within runs of 4 or 32
    # of these arguments an inner count passes both ends' by one at
    # -1.5, -0.25 and 0.5 +- 60i, which the margin of 2 covers
    monkeypatch.setattr(specialfun, "_CF_RUN", run)
    nu = complex(nu)
    s = nu.real if nu.imag == 0 else nu
    xs = _cf_grid(nu)
    depths = np.repeat(specialfun._cf_depths(s, xs, 1e-15), run)[:xs.size]
    counts = [specialfun._lentz(s, x, 1e-15)[1] for x in xs.tolist()]
    assert np.all(counts <= depths)


# orders whose real part lies well right of the continued fraction's edge 8:
# for x <= Re s its Lentz loop stopped on a stagnating approximant, 7.1e-7
# off at 25 + 40i, x = 8.03 (tol 1e-14), 4.1e-8 at x = 9 and wholly wrong at
# 40 + i; its backward form over [8.03, 10] was 2.7e-11 off.  Now the series
# takes x <= Re s, and the fraction x = 60
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("nu", [25 + 40j, 25 - 40j, 40 + 1j])
def test_incgamma_large_real_part_meets_tol_or_raises(nu, tol):
    xs = [8.0, 8.03, 8.5, 9.0, 10.0, 12.0, 20.0, nu.real - 0.1, nu.real, 60.0]
    for x in xs + [np.linspace(8.03, 10.0, 16)]:
        try:
            got = upper_incomplete_gamma(nu, x, tol)
        except ConvergenceError:
            continue
        want = np.array([_mp_incgamma(nu, v)
                         for v in np.atleast_1d(x).tolist()])
        assert np.all(np.abs(got - want) <= tol * np.abs(want)), (nu, tol, x)


def _series_cap_error(size, monkeypatch):
    monkeypatch.setattr(specialfun, "_SERIES_MAX_TERMS", 2)
    with pytest.raises(ConvergenceError) as info:
        upper_incomplete_gamma(1 - 1.8j, np.linspace(0.5, 2.0, size), 1e-14)
    m = re.fullmatch(
        r"incomplete gamma series at order \(1-1\.8j\) did not converge: "
        rf"{size} of {size} arguments unconverged after the cap of 2 terms, "
        r"largest last term (\S+) > tol 1e-14", str(info.value))
    assert m, str(info.value)
    assert float(m[1]) > 1e-14
    assert (info.value.cutoff, info.value.points) == (2, size)


def test_incgamma_series_reports_how_far_it_got(monkeypatch):
    # three arguments: the scalar loop
    _series_cap_error(3, monkeypatch)


def test_incgamma_series_on_arrays_reports_how_far_it_got(monkeypatch):
    # one argument more than the scalar loop takes: the arrays
    _series_cap_error(specialfun._SERIES_SCALAR_MAX + 1, monkeypatch)


@pytest.mark.parametrize("s", [2.5, 0.7, 1 - 1.8j, 25 + 40j])
@pytest.mark.parametrize("floor", [0.0, 1.0])
def test_incgamma_series_paths_agree(s, floor):
    # the scalar loop and the arrays sum the same series on the same
    # arguments; the arrays test every _SERIES_STRIDE terms, so they may
    # add a few terms more, each below tol
    xs = np.linspace(0.05, 8.0, 40)
    scalar = np.concatenate([specialfun._series_scalar(s, xs[i:i + 8], 1e-15,
                                                       floor)
                             for i in range(0, xs.size, 8)])
    array = specialfun._series_array(s, xs, 1e-15, floor)
    np.testing.assert_allclose(array, scalar, rtol=1e-14, atol=0)


def test_specialfun_suite_runs_the_incgamma_checks():
    reports = run_suite("specialfun")
    got = [r.command for r in reports if r.command.startswith("incgamma")]
    assert got == ["incgamma-recurrence", "incgamma-recurrence-array"] \
        + ["incgamma-integer-order-recurrence"] * 2 \
        + ["incgamma-half-order-erfc"] * 3
    assert all(r.passed for r in reports)


def test_specialfun_suite_holds_kv_against_the_trapezoid():
    reports = run_suite("specialfun")
    kv = [r for r in reports if r.command == "bessel-kv-vs-trapezoid"]
    assert [(r.parameters["s"], r.parameters["x"]) for r in kv] \
        == [(s, x) for s in (-0.2, 0.5, 1.0, 2.5, 4.0, 0.9j, 1.8j, 1 + 0.5j,
                             2 + 0.5j, 4 + 1j) for x in (0.3, 2.0, 15.0)]
    assert all(r.passed for r in reports)


# the integer orders and real orders in (0, 6], x from 1e-3 to 200
_INCGAMMA_PIN_ORDERS = [0, -1, -2, -3, -4, 1e-3, 0.05, 0.16, 0.3, 0.5, 0.7,
                        1.0, 1.4, 2.5, 3.7, 6.0]
_INCGAMMA_PIN_X = np.geomspace(1e-3, 200.0, 37)


@pytest.mark.parametrize("nu", _INCGAMMA_PIN_ORDERS)
def test_incgamma_real_orders_pin_mpmath(nu):
    # at the library's tol 1e-15, in one array call and one by one: 1e-14
    # relative, on both sides of the method edges (1, min(8, nu + 1), nu)
    with mp.workdps(30):
        want = np.array([float(mp.gammainc(nu, x))
                         for x in _INCGAMMA_PIN_X.tolist()])
    got = upper_incomplete_gamma(nu, _INCGAMMA_PIN_X, 1e-15)
    assert np.all(got.imag == 0)
    assert np.all(np.abs(got.real - want) <= 1e-14 * want)
    one_by_one = np.array([upper_incomplete_gamma(nu, x, 1e-15).real
                           for x in _INCGAMMA_PIN_X.tolist()])
    assert np.all(np.abs(one_by_one - want) <= 1e-14 * want)


# ---------------------------------------------------------------------------
# Gamma


def _gamma_pin_points():
    rng = np.random.default_rng(11)
    wide = rng.uniform(-5.5, 30.0, 300) + 1j * rng.uniform(-60.0, 60.0, 300)
    near = rng.uniform(-5.5, 30.0, 100) + 1j * rng.uniform(-2.0, 2.0, 100)
    real = rng.uniform(-5.5, 30.0, 40)
    # within 1e-6 of each pole 0, -1, ..., -5, off the real line and on it
    dist = 10.0 ** rng.uniform(-11.5, -6.0, 60) * rng.choice([-1, 1], 60)
    poles = -np.repeat(np.arange(6), 10) + dist \
        + 1j * np.where(np.arange(60) % 2, dist, 0.0)
    return np.concatenate([wide, near, real, poles]).tolist()


def test_complex_gamma_pins_mpmath():
    # the condition number of Gamma at s is about |s psi(s)| ~ |s log s|
    # (the rounding of s moves the value by that many ulp): Lanczos's sum
    # stays within 16 ulp of it
    for s in _gamma_pin_points():
        with mp.workdps(40):
            want = complex(mp.gamma(mp.mpc(s)))
        got = specialfun.complex_gamma(s)
        cond = 1 + abs(s * cmath.log(s))
        assert abs(got - want) <= 16 * 2.0 ** -52 * cond * abs(want), s


@pytest.mark.parametrize("s", [0, -3, -2 + 5e-13, -1 + 9e-13j, 2e-13 - 1e-13j])
def test_complex_gamma_raises_at_its_poles(s):
    with pytest.raises(PoleError):
        specialfun.complex_gamma(s)


def test_complex_gamma_next_to_a_pole_is_finite():
    s = -2 + 2e-12
    with mp.workdps(40):
        want = complex(mp.gamma(mp.mpf(s)))
    assert abs(specialfun.complex_gamma(s) - want) < 1e-11 * abs(want)


def test_complex_gamma_overflow_and_underflow():
    # past the largest double an infinity of the value's phase (zero where
    # the phase factor is), as scipy.special.gamma gives; below the least,
    # zero; far up the imaginary axis, where the reflection's sine passes the
    # largest double, the value itself
    assert specialfun.complex_gamma(200) == complex(math.inf, 0)
    with mp.workdps(30):
        phase = mp.gamma(mp.mpc(172, 3))
    got = specialfun.complex_gamma(172 + 3j)
    assert (got.real, got.imag) == (math.copysign(math.inf, phase.real),
                                    math.copysign(math.inf, phase.imag))
    assert specialfun.complex_gamma(-200.5) == 0
    assert specialfun.complex_gamma(0.3 + 500j) == 0
    for s in (-3.5 - 400j, -0.5 + 300j):
        with mp.workdps(40):
            want = complex(mp.gamma(mp.mpc(s)))
        assert abs(specialfun.complex_gamma(s) - want) < 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# gamma factor


@pytest.mark.parametrize("F", [Q, Fi, F3])
@pytest.mark.parametrize("s", [0.8, 1.0, 2.5])
def test_gamma_factor_vs_integral(F, s):
    assert abs(gamma_F(F, s) - gamma_F_integral(F, s)) < 1e-10


def test_gamma_factor_values():
    assert abs(gamma_F(Q, 1.0) - 1.0) < 1e-13
    assert abs(gamma_F(Fi, 1.0) - 1.0) < 1e-13


def test_gamma_factor_pole():
    with pytest.raises(PoleError):
        gamma_F(Q, 0.0)
    with pytest.raises(PoleError):
        gamma_F(Fi, -1.0)


# ---------------------------------------------------------------------------
# B_F, the two-sided Gaussian transform that term3 sums in Bessel form


def b_F(F, a, b, s):
    """B_F(a, b, s) = (2 pi)^r2 |N(b/a)|^s K_{n_v s}(n_v pi |a b|), the form
    EisensteinEvaluator.term3 inlines (real a, b over Q, complex over Q(i))."""
    n_v = 1 if F.is_rational else 2
    ratio = (abs(b) / abs(a)) ** (n_v * s)
    return (2 * math.pi) ** (n_v - 1) * ratio \
        * bessel_k(n_v * s, n_v * math.pi * abs(a) * abs(b))


def b_F_integral(F, a, b, s):
    """Quadrature of the defining integral of B_F (real s), t = e^u."""
    step = 5e-4
    t = np.exp(np.arange(-10.0, 10.0, step))
    n_v = 1 if F.is_rational else 2
    vals = 2.0 * n_v * math.pi ** (n_v - 1) * t ** (2 * n_v * s) * np.exp(
        -n_v * math.pi * (t ** 2 * abs(a) ** 2 + abs(b) ** 2 / t ** 2))
    return float(np.sum(vals) * step)


def test_b_f_closed_form_rational():
    # B(1, 1, 1/2) = K_{1/2}(pi) = e^{-2 pi}
    assert abs(b_F(Q, 1.0, 1.0, 0.5) - math.exp(-2 * math.pi)) < 1e-14


@pytest.mark.parametrize("F,a,b", [(Q, 1.0, 1.0), (Q, 0.6, 1.4),
                                   (Fi, 1.0, 1.0), (Fi, 0.9, 1.1)])
def test_b_f_vs_quadrature(F, a, b):
    for s in (0.5, 1.25):
        assert abs(b_F(F, a, b, s) - b_F_integral(F, a, b, s)) < 1e-8


# ---------------------------------------------------------------------------
# analyticity (Cauchy-Riemann finite differences)


@pytest.mark.parametrize("fn,pt", [
    (lambda s: bessel_k(s, 1.7), 1.1 + 0.4j),
    (lambda s: bessel_k(s, 0.9), -0.3 + 0.8j),
    (lambda s: upper_incomplete_gamma(s, 2.3), 0.7 + 0.2j),
    (lambda s: upper_incomplete_gamma(s, 0.6), -1.4 + 0.9j),
    (lambda s: gamma_F(Q, s), 1.3 + 0.5j),
    (lambda s: gamma_F(Fi, s), 2.1 - 0.7j),
])
def test_cauchy_riemann(fn, pt):
    h = 1e-5
    d_re = (fn(pt + h) - fn(pt - h)) / (2 * h)
    d_im = (fn(pt + 1j * h) - fn(pt - 1j * h)) / (2j * h)
    assert abs(d_re - d_im) < 1e-6 * max(1.0, abs(d_re))
