import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heckeis import numerics, specialfun
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
    assert abs(bessel_k(0.5, x, 1e-14) - closed) < 1e-12
    assert abs(bessel_riemann_oracle(0.5, x) - closed) < 1e-10


def test_bessel_order_symmetry():
    s = 0.7 + 0.3j
    assert abs(bessel_k(s, 2.0, 1e-14) - bessel_k(-s, 2.0, 1e-14)) < 1e-12


def test_bessel_monotone_in_x():
    assert bessel_k(2.0, 10.0).real < bessel_k(2.0, 1.0).real


def test_bessel_recurrence_against_oracle():
    # K_{s+1}(x) - K_{s-1}(x) = (s/x) K_s(x): the constant is re-derived from
    # the quadrature oracle before being asserted for the implementation
    for s, x in [(1.0, 1.0), (1.5, 3.0)]:
        o_lhs = bessel_riemann_oracle(s + 1, x) - bessel_riemann_oracle(s - 1, x)
        o_rhs = (s / x) * bessel_riemann_oracle(s, x)
        assert abs(o_lhs - o_rhs) < 1e-8
        lhs = bessel_k(s + 1, x, 1e-14) - bessel_k(s - 1, x, 1e-14)
        rhs = (s / x) * bessel_k(s, x, 1e-14)
        assert abs(lhs - rhs) < 1e-12


def test_bessel_vs_riemann_oracle_complex_order():
    for s, x in [(0.25 + 1.2j, 0.8), (2.0 - 0.7j, 3.0)]:
        assert abs(bessel_k(s, x, 1e-13) - bessel_riemann_oracle(s, x)) < 1e-9


def test_bessel_batch_matches_scalar():
    xs = np.array([0.3, 1.0, 2.7, 9.0])
    batch = bessel_k_batch(1.25, xs, 1e-13)
    for x, v in zip(xs, batch):
        assert abs(v - bessel_k(1.25, x, 1e-13)) < 1e-12


def test_bessel_raises_when_unconverged(monkeypatch):
    # one halving from step 0.5 cannot reach 1e-14 at x = 1; the message says
    # how far the trapezoid got (a complex order: real orders take kv)
    monkeypatch.setattr(numerics, "MAX_REFINEMENTS", 1)
    with pytest.raises(ConvergenceError) as info:
        bessel_k(0.5 + 0.1j, 1.0, 1e-14)
    m = re.fullmatch(r"bessel trapezoid did not converge: halvings 1, "
                     r"nodes (\d+), last change (\S+) > tol (\S+)",
                     str(info.value))
    assert m, str(info.value)
    nodes, change, tol = int(m[1]), float(m[2]), float(m[3])
    assert nodes % 2 == 1 and nodes > 1
    assert tol == 1e-14 / 4 and change > tol
    err = info.value
    assert (err.cutoff, err.tol, err.points) == (0.25, 1e-14 / 4, nodes)
    assert err.last_delta > err.tol


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
    # kv's worst error is its Temme series for 2x <= 2 at non-half-integer
    # orders (measured up to 6e-14 relative); elsewhere a few ulp
    xs = np.array([0.05, 0.3, 0.7, 1.0, 2.0, 15.0, 60.0])
    got = bessel_k_batch(nu, xs)
    assert got.dtype == complex and np.all(got.imag == 0)
    want = np.array([_mp_bessel(nu, x) for x in xs])
    rel = np.abs(got - want) / np.abs(want)
    assert np.all(rel[xs <= 1.0] < 1e-13)
    assert np.all(rel[xs > 1.0] < 2e-15)


@pytest.mark.parametrize("s", [0.25 + 1.2j, 2.0 - 0.7j, -1.5 + 0.3j,
                               0.5 + 4.0j])
def test_bessel_complex_order_trapezoid_vs_mpmath(s):
    xs = np.array([0.3, 1.0, 2.7, 9.0])
    got = bessel_k_batch(s, xs, 1e-14)
    want = np.array([_mp_bessel(s, x) for x in xs])
    assert np.all(np.abs(got - want) < 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("nu", [-0.2, 0.5, 1.0, 2.5, 4.0])
def test_bessel_kv_matches_trapezoid_at_real_orders(nu):
    # 1,600 arguments in [0.5, 30]: kv and the trapezoid reference agree
    # to 1e-14 max(1, |K|) where 2x > 2; below, kv's Temme series is off by
    # up to 6e-14 relative (test_bessel_real_order_vs_mpmath)
    xs = np.linspace(0.5, 30.0, 1600)
    kv = bessel_k_batch(nu, xs)
    ref = specialfun._bessel_trapezoid(complex(nu), xs, 1e-14)
    err = np.abs(kv - ref) / np.maximum(1.0, np.abs(ref))
    assert np.all(err[xs > 1.0] < 1e-14)
    assert np.all(err < 2e-14)


def test_real_orders_never_enter_the_trapezoid(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return nested_trapezoid(*args, **kwargs)

    monkeypatch.setattr(specialfun, "nested_trapezoid", counted)
    xs = np.array([0.2, 1.0, 7.5])
    for nu in (-2.5, -0.2, 0.0, 1.0, 3.3, 1.5 + 0j):
        bessel_k_batch(nu, xs, 1e-14)
        bessel_k(nu, 0.8, 1e-14)
    assert calls == []
    bessel_k_batch(0.5 + 0.1j, xs, 1e-14)
    assert calls == ["bessel trapezoid"]


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


@pytest.mark.parametrize("cap,xs", [("_CF_MAX_ITER", [10.0, 20.0, 30.0]),
                                     ("_SERIES_MAX_TERMS", [0.5, 1.0])])
def test_incgamma_reports_how_far_it_got(cap, xs, monkeypatch):
    # the continued fraction runs at x >= |s| + 1, the series below it; with
    # the cap at 2 no argument converges
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
    monkeypatch.setattr(specialfun, "_CF_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as info:
        upper_incomplete_gamma(1 - 1.8j, np.array([9.0, 20.0, 400.0]), 1e-14)
    m = re.fullmatch(
        r"incomplete gamma continued fraction at order \(1-1\.8j\) did not "
        r"converge: 3 of 3 arguments unconverged after the cap of 3 "
        r"iterations, worst \|delta-1\| (\S+) >= tol 1e-14", str(info.value))
    assert m, str(info.value)
    assert float(m[1]) >= 1e-14


def test_incgamma_series_reports_how_far_it_got(monkeypatch):
    monkeypatch.setattr(specialfun, "_SERIES_MAX_TERMS", 2)
    with pytest.raises(ConvergenceError) as info:
        upper_incomplete_gamma(1 - 1.8j, np.array([0.5, 1.0, 2.0]), 1e-14)
    m = re.fullmatch(
        r"incomplete gamma series at order \(1-1\.8j\) did not converge: "
        r"3 of 3 arguments unconverged after the cap of 2 terms, largest "
        r"last term (\S+) > tol 1e-14", str(info.value))
    assert m, str(info.value)
    assert float(m[1]) > 1e-14


def test_specialfun_suite_runs_the_incgamma_checks():
    reports = run_suite("specialfun")
    got = [r.command for r in reports if r.command.startswith("incgamma")]
    assert got == ["incgamma-recurrence"] + ["incgamma-half-order-erfc"] * 3
    assert all(r.passed for r in reports)


def test_specialfun_suite_holds_kv_against_the_trapezoid():
    reports = run_suite("specialfun")
    kv = [r for r in reports if r.command == "bessel-kv-vs-trapezoid"]
    assert sorted((r.parameters["s"], r.parameters["x"]) for r in kv) \
        == [(s, x) for s in (-0.2, 0.5, 1.0, 2.5, 4.0) for x in (0.3, 2.0, 15.0)]
    assert all(r.passed for r in reports)


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
        * bessel_k(n_v * s, n_v * math.pi * abs(a) * abs(b), 1e-14)


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
    (lambda s: bessel_k(s, 1.7, 1e-14), 1.1 + 0.4j),
    (lambda s: bessel_k(s, 0.9, 1e-14), -0.3 + 0.8j),
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
