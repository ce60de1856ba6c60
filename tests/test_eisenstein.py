import cmath
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc, kv

from heckeis import eisenstein, numerics, verify
from heckeis.basefield import FracIdeal, QuadElement, make_field
from heckeis.dalgebra import DNumber, Quaternion
from heckeis.eisenstein import EisensteinEvaluator
from heckeis.errors import (ConvergenceError, DegenerateLatticeError,
                            EnumerationCapError, PoleError)
from heckeis.lattice import OFLattice, ball_points
from heckeis.numerics import neville_at_zero
from heckeis.specialfun import bessel_k_batch, gamma_F
from heckeis.zeta import _ideal_embedding_matrix

Q = make_field("Q")
Fi = make_field(-1)
ZZ = FracIdeal.unit_ideal(Q)

# 2 zeta(2) L(2, chi_-4), frozen from the Dirichlet-series oracle
E_SQUARE_LATTICE_AT_2 = 3.0134060198459700

SNAPPED_HS = [(1.0 + 10.0 ** (-k)) - 1.0 for k in range(2, 6)]


def lat_q(x, y, a=1, b=1):
    return OFLattice(Q, FracIdeal(Q, gen=Fraction(a)),
                     DNumber.from_xy(Q, x, y), FracIdeal(Q, gen=Fraction(b)))


def lat_quat(F, x, y):
    O = FracIdeal.unit_ideal(F)
    return OFLattice(F, O, DNumber(F, (Quaternion(x, y),)), O)


def test_direct_square_lattice_value():
    ev = EisensteinEvaluator(lat_q(0.0, 1.0))
    assert abs(ev.e_direct(2.0, 1e-9) - E_SQUARE_LATTICE_AT_2) < 2e-9


def test_square_lattice_value_via_point_count_oracle():
    # independent oracle: E = (1/2) sum r2(n) n^{-2} over n <= N plus integral
    # tail, r2 = number of representations as a sum of two squares
    N = 4000
    r2 = [0] * (N + 1)
    m = 0
    while m * m <= N:
        n = 0 if m else 1          # avoid double counting (0,0)
        while m * m + n * n <= N:
            if n or m:
                k = m * m + n * n
                r2[k] += 4 if (m and n) else 2
            n += 1
        m += 1
    acc = sum(r2[n] / n ** 2 for n in range(1, N + 1)) / 2
    acc += math.pi * N ** (-1.0) / 2          # tail of (1/2) * 2 pi /u^2
    assert abs(acc - E_SQUARE_LATTICE_AT_2) < 1e-3


def test_direct_requires_convergent_region():
    ev = EisensteinEvaluator(lat_q(0.0, 1.0))
    with pytest.raises(ConvergenceError):
        ev.e_direct(1.02, 1e-6)


def test_modularity_of_direct_sum():
    # E(z Lambda, s) = E(Lambda, s)
    lat = lat_q(0.3, 1.1)
    z = DNumber.from_xy(Q, 1.0, 2.0)
    ev1 = EisensteinEvaluator(lat)
    ev2 = EisensteinEvaluator(lat.left_mul(z))
    assert abs(ev1.e_direct(2.5, 1e-10) - ev2.e_direct(2.5, 1e-10)) < 1e-9


def test_expansion_vs_direct_generic():
    ev = EisensteinEvaluator(lat_q(0.3, 1.7))
    got = ev.ehat_expansion(2.5, 1e-11)
    want = gamma_F(Q, 5.0) * ev.e_direct(2.5, 1e-10)
    assert abs(got - want) < 1e-9


def test_expansion_vs_lattice_path():
    for lat in (lat_q(0.3, 1.7), lat_q(-0.6, 0.8, a=2, b=1),
                lat_quat(Fi, 0j, 1 + 0j),                  # O j + O
                lat_quat(Fi, 0.3 + 0.2j, 1.1 - 0.4j),
                lat_quat(make_field(-7), 0.25 - 0.1j, 0.9 + 0.3j)):
        ev = EisensteinEvaluator(lat)
        for s in (1.5, 2.5, 0.25):
            a = ev.ehat_expansion(s, 1e-11)
            b = ev.ehat_lattice(s, 1e-11)
            assert abs(a - b) < 1e-10, (lat, s)


_NORMS = st.sampled_from([1, 2, Fraction(3, 2), 10])
# s at least 0.05 away from the poles 0, 1 of Ehat and from 1/2, where
# the expansion's two xi terms have cancelling poles
_OFF_POLE_S = st.one_of(
    st.floats(-1.5, 3.0), st.builds(complex, st.floats(-1.0, 3.0),
                                    st.floats(-3.0, 3.0))).filter(
    lambda s: min(abs(s - p) for p in (0.0, 0.5, 1.0)) >= 0.05)


def _assert_routes_agree(ev, s):
    # the lattice route has no rounding floor: its terms grow like the pole
    # part's V^s and V^(s-1) and cancel down to Ehat, so its rounding error
    # is allowed to grow with them
    a = ev.ehat_expansion(s, 1e-12)
    b = ev.ehat_lattice(s, 1e-12)
    V, re_s = ev.lattice.covolume, complex(s).real
    tol = 1e-11 * max(1.0, abs(b)) + 1e-14 * max(V ** re_s, V ** (re_s - 1))
    assert abs(a - b) <= tol, (a, b)
    assert abs(ev.ct(1e-12) - ev.ct_lattice(1e-12)) <= 1e-10


@settings(max_examples=25)
@given(st.floats(-3.0, 3.0), st.floats(0.02, 5.0), _NORMS, _NORMS, _OFF_POLE_S)
@example(0.3, 0.04, 10, 1, 2.5)
@example(-2.7, 0.02, Fraction(3, 2), 2, 0.3 + 2.0j)
def test_expansion_on_the_reduced_presentation_over_q(x, y, ia, ib, s):
    # the expansion runs on the SL2(Z)-reduced scaled copy, the lattice
    # route and ct_lattice on the given lattice
    _assert_routes_agree(EisensteinEvaluator(lat_q(x, y, ia, ib)), s)


@settings(max_examples=15)
@given(st.sampled_from([-1, -2, -3, -7, -11]),
       st.sampled_from([2, Fraction(3, 2), "1+w"]),
       st.complex_numbers(max_magnitude=1.0), st.floats(0.7, 1.4),
       st.floats(0.0, 2 * math.pi), _OFF_POLE_S)
def test_expansion_with_equal_ideals_over_imaginary_fields(d, gen, x, ay,
                                                           ang, s):
    # a = b != O: the expansion runs on O z + O
    F = make_field(d)
    if gen == "1+w":
        gen = QuadElement(F, Fraction(1), Fraction(1))
    a = FracIdeal(F, gen=gen)
    lat = OFLattice(F, a, DNumber(F, (Quaternion(x, ay * cmath.exp(1j * ang)),)), a)
    ev = EisensteinEvaluator(lat)
    assert ev.ideal_a == FracIdeal.unit_ideal(F) != a
    _assert_routes_agree(ev, s)


def test_completion_factor_consistency():
    # Gamma_F(2s) E(direct) equals the completed series from the Mellin path
    ev = EisensteinEvaluator(lat_q(0.2, 1.3))
    s = 2.2
    lhs = gamma_F(Q, 2 * s) * ev.e_direct(s, 1e-10)
    rhs = ev.ehat_lattice(s, 1e-12)
    assert abs(lhs - rhs) < 1e-9
    evq = EisensteinEvaluator(lat_quat(Fi, 0.1 + 0.3j, 1.0 + 0.2j))
    lhsq = gamma_F(Fi, 2 * s) * evq.e_direct(s, 4e-9)
    rhsq = evq.ehat_lattice(s, 1e-12)
    assert abs(lhsq - rhsq) < 1e-7


def test_functional_equation_self_dual():
    lat = lat_q(0.0, 1.0)                     # self-dual square lattice
    ev = EisensteinEvaluator(lat)
    assert abs(ev.ehat_expansion(0.3, 1e-12)
               - ev.ehat_expansion(0.7, 1e-12)) < 1e-10
    s = 0.5 + 0.9j
    assert abs(ev.ehat_expansion(s, 1e-12)
               - ev.ehat_expansion(1 - s, 1e-12)) < 1e-9


def test_functional_equation_generic_dual():
    lat = lat_q(0.3, 1.7)
    ev = EisensteinEvaluator(lat)
    dual = lat.dual()
    dual_ev = EisensteinEvaluator(dual)
    for s in (1.8, 0.25):
        lhs = ev.ehat_expansion(s, 1e-11)
        rhs = dual_ev.ehat_lattice(1 - s, 1e-11)
        assert abs(lhs - rhs) < 1e-9
    # over Q the dual's pseudo-basis can be recovered and fed back through
    # the expansion
    zq, w2 = dual.pseudo_normal_form()
    red = OFLattice(Q, ZZ, DNumber.from_xy(Q, zq.real, zq.imag), ZZ)
    red_ev = EisensteinEvaluator(red)
    s = 1.8
    lhs = ev.ehat_expansion(s, 1e-11)
    rhs = red_ev.ehat_expansion(1 - s, 1e-11) \
        * cmath.exp(2 * (1 - s) * math.log(abs(w2)))
    # Ehat(dual, 1-s) = Ehat(reduced, 1-s) by modularity (the scale w2 drops)
    rhs = red_ev.ehat_expansion(1 - s, 1e-11)
    assert abs(lhs - rhs) < 1e-9


def test_functional_equation_check_op():
    # a check of the fe suite: Ehat(L, s) against Ehat(L*, 1-s) by the
    # lattice route, as a report
    rep = verify.checks_fe(7)[0].run()
    assert rep.passed and rep.command == "functional-equation"
    d = rep.to_json_dict()
    assert d["pass"] and d["tolerance"] == 1e-9


def test_expansion_large_y_reduces_to_constant_terms():
    lat = lat_q(0.25, 20.0)
    ev = EisensteinEvaluator(lat)
    s = 0.8
    full = ev.ehat_expansion(s, 1e-13)
    consts = ev.term1(s) + ev.term2(s)
    assert abs(full - consts) < 1e-15


def test_expansion_pole_errors():
    ev = EisensteinEvaluator(lat_q(0.3, 1.7))
    with pytest.raises(PoleError):
        ev.ehat_expansion(0.5)
    with pytest.raises(PoleError):
        ev.ehat_expansion(1.0)
    with pytest.raises(PoleError):
        ev.ehat_lattice(1.0)


def test_degenerate_y_rejected():
    # over an imaginary field y is not reduced, so a tiny |N(y)| still makes
    # the expansion ill-conditioned
    lat = lat_quat(Fi, 0.3 + 0.2j, 1.1 - 0.4j)
    tiny = lat_quat(Fi, 0.3 + 0.2j, 1e-6 + 0j)
    with pytest.raises(DegenerateLatticeError):
        EisensteinEvaluator(tiny)
    assert EisensteinEvaluator(lat) is not None


@pytest.mark.parametrize("field,z,a,b,moved", [
    (Q, (0.3, 1.1), 2, 3, [(-0.45, 0.02), (0.7, -1.3), (5.1, -0.8)]),
    (Fi, (0.3 + 0.2j, 1.1 - 0.4j), 1, 1, [(0.1 - 0.4j, 0.9 + 0.5j)]),
])
def test_at_point_matches_an_evaluator_of_the_moved_lattice(field, z, a, b,
                                                            moved):
    # at_point shares the z-independent data and builds no lattice; its
    # expansion values equal those of an evaluator built on a z' + b, with
    # z' taken with y > 0 over Q as OFLattice does
    def ev_at(x, y):
        if field.is_rational:
            return EisensteinEvaluator(lat_q(x, y, a, b))
        return EisensteinEvaluator(lat_quat(field, x, y))

    ev = ev_at(*z)
    for x, y in moved:
        got, want = ev.at_point(x, y), ev_at(x, y)
        assert got.lattice is None and got.bstar is ev.bstar
        assert (got.x, got.y, got.x_red, got.y_red) \
            == (want.x, want.y, want.x_red, want.y_red)
        for s_ in (2.5, 0.3, 0.5 + 0.9j):
            assert got.ehat_expansion(s_, 1e-11) \
                == want.ehat_expansion(s_, 1e-11)
        assert got.h_value(1e-11) == want.h_value(1e-11)
        assert got.ct(1e-11) == want.ct(1e-11)


def _sl2z_reduce_loop(x, y):
    """The scalar SL2(Z) reduction that the array reduction replaced: the
    reference it must match bit for bit."""
    for _ in range(eisenstein._REDUCTION_STEPS):
        x -= round(x)
        n = x * x + y * y
        if n >= 1 - 1e-12:
            return x, y
        x, y = -x / n, y / n
    raise ConvergenceError("SL2(Z) reduction did not end")


@settings(max_examples=40)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-300.0, 1.0)),
                min_size=1, max_size=12))
@example([(0.5, 0.0), (-0.5, -12.0), (2.5, -200.0), (0.0, 1.0)])
@example([(0.3, -100.0), (-0.5, -300.0)])
def test_array_sl2z_reduction_matches_the_scalar_loop(points):
    x = np.array([p[0] for p in points])
    y = 10.0 ** np.array([p[1] for p in points])
    try:
        want = np.array([_sl2z_reduce_loop(float(a), float(b))
                         for a, b in zip(x, y)])
    except ZeroDivisionError:
        # a translated x of 0 with y^2 below the smallest float: the loop
        # divided by 0, the array reduction names the degenerate point
        with pytest.raises(DegenerateLatticeError, match="underflows"):
            eisenstein._sl2z_reduce(x, y)
        return
    # hostile points overflow |z|^2 to inf, as the loop does, silently
    with np.errstate(over="ignore"):
        got_x, got_y = eisenstein._sl2z_reduce(x, y)
    np.testing.assert_array_equal(got_x.view(np.int64),
                                  want[:, 0].view(np.int64))
    np.testing.assert_array_equal(got_y.view(np.int64),
                                  want[:, 1].view(np.int64))
    # the inputs are left as they were
    assert np.array_equal(x, [p[0] for p in points])


def test_sl2z_reduction_raises_at_its_step_cap(monkeypatch):
    # from y = 1e-300, x = sqrt 2 - 1 the reduction takes 205 steps; one
    # point that needs more than the cap raises for the whole array
    monkeypatch.setattr(eisenstein, "_REDUCTION_STEPS", 100)
    with pytest.raises(ConvergenceError, match="did not end in 100 steps"):
        eisenstein._sl2z_reduce(np.array([0.3, math.sqrt(2) - 1]),
                                np.array([1.1, 1e-300]))
    x, y = eisenstein._sl2z_reduce(np.array([0.3]), np.array([1e-20]))
    assert y[0] >= math.sqrt(3) / 2 - 1e-12


def test_at_point_keeps_the_lattice_guards():
    ev = EisensteinEvaluator(lat_q(0.3, 1.1))
    with pytest.raises(DegenerateLatticeError):
        ev.at_point(0.3, 0.0)
    evi = EisensteinEvaluator(lat_quat(Fi, 0.3 + 0.2j, 1.1 - 0.4j))
    with pytest.raises(DegenerateLatticeError):
        evi.at_point(0.3 + 0.2j, 1e-6 + 0j)
    with pytest.raises(DegenerateLatticeError):
        EisensteinEvaluator(lat_q(0.3, 1.1).dual()).at_point(0.3, 1.1)


@pytest.mark.parametrize("s", [2.5, 0.3, 0.5 + 0.9j])
def test_tiny_y_over_q_matches_the_large_y_closed_form(s):
    # Z 1e-11 i + Z is Z 1e11 i + Z up to scaling, whose pair sum is below
    # e^(-2 pi 1e11): Ehat = Y^s xi(2s) + Y^(1-s) xi(2s-1) at Y = 1e11
    ev = EisensteinEvaluator(OFLattice(Q, ZZ, DNumber.from_xy(Q, 0.0, 1e-11), ZZ))
    with mpmath.workdps(30):
        s_mp, Y = mpmath.mpc(s), mpmath.mpf(10) ** 11

        def xi(u):
            return mpmath.pi ** (-u / 2) * mpmath.gamma(u / 2) * mpmath.zeta(u)

        want = complex(Y ** s_mp * xi(2 * s_mp)
                       + Y ** (1 - s_mp) * xi(2 * s_mp - 1))
    got = ev.ehat_expansion(s, 1e-12)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_residue_and_ct_closed_forms():
    for lat, tol in ((lat_q(0.3, 1.7), 5e-11),
                     (lat_quat(Fi, 0.3 + 0.2j, 1.1 - 0.4j), 5e-10)):
        ev = EisensteinEvaluator(lat)
        # residue via Richardson from the expansion
        vals = [h * ev.ehat_expansion(1 + h, 1e-12) for h in SNAPPED_HS]
        assert abs(neville_at_zero(SNAPPED_HS, vals) - ev.residue()) < 1e-9
        # CT: closed form vs the independent lattice-path bookkeeping
        assert abs(ev.ct(1e-13) - ev.ct_lattice(1e-13)) < tol
        # CT vs the numerical Laurent limit
        cts = [ev.ehat_expansion(1 + h, 1e-13) - ev.residue() / h
               for h in SNAPPED_HS]
        assert abs(neville_at_zero(SNAPPED_HS, cts) - ev.ct(1e-13)) < 1e-8


def test_pole_structure_contour_scan():
    # the expansion's only pole in Re s > 1/2 + 1e-3 is at s = 1, simple,
    # residue C_F/2: contour integrals (trapezoid on small circles) vanish
    # away from 1 and give the residue at 1
    lat = lat_q(0.3, 1.4)
    ev = EisensteinEvaluator(lat)
    n, r = 16, 0.04
    for center, want in ((1.0, ev.residue()), (0.75, 0.0), (1.3, 0.0),
                         (1.0 + 0.3j, 0.0)):
        acc = 0j
        for k in range(n):
            ang = 2 * math.pi * k / n
            z = center + r * cmath.exp(1j * ang)
            acc += ev.ehat_expansion(z, 1e-11) * r * cmath.exp(1j * ang)
        residue = acc / n
        assert abs(residue - want) < 1e-6, center


def test_ct_scale_invariance():
    # scaling both ideals by c in F^x leaves Ehat, hence CT, unchanged
    lat1 = lat_q(0.3, 1.7)
    lat2 = lat_q(0.3, 1.7, a=3, b=3)
    ev1, ev2 = EisensteinEvaluator(lat1), EisensteinEvaluator(lat2)
    assert abs(ev1.ct(1e-13) - ev2.ct(1e-13)) < 1e-11
    assert abs(ev1.ehat_expansion(2.0, 1e-13)
               - ev2.ehat_expansion(2.0, 1e-13)) < 1e-12


def test_h_reality_random():
    # the pair sum at s = 1 is real to 1e-10: conjugate pairs cancel
    rng = random.Random(4)
    for _ in range(10):
        lat = lat_q(rng.uniform(-1, 1), rng.uniform(0.7, 1.8))
        ev = EisensteinEvaluator(lat)
        assert abs(ev.term3(1.0, 1e-12).imag) < 1e-10
        assert isinstance(ev.h_value(1e-11), float)
    latq = lat_quat(Fi, 0.3 + 0.2j, 1.1 - 0.4j)
    assert abs(EisensteinEvaluator(latq).term3(1.0, 1e-12).imag) < 1e-10


def test_h_translation_and_inversion():
    # z + 1 and -1/z reduce to the point z reduces to, so the right side
    # comes from the lattice route on the given lattice of z
    def h_of(z):
        lat = OFLattice(Q, ZZ, DNumber.from_xy(Q, z.real, z.imag), ZZ)
        return EisensteinEvaluator(lat).h_value(1e-11)

    z = complex(0.3, 1.7)
    h_lat = EisensteinEvaluator(lat_q(z.real, z.imag)).h_lattice(1e-11)
    assert abs(h_of(z + 1) - h_lat) < 1e-10
    assert abs(h_of(-1 / z) - (h_lat - 2 * math.log(abs(z)))) < 1e-8


def test_h_lattice_matches_h_value():
    for lat in (lat_q(0.3, 1.7), lat_q(1.3, 0.05, a=Fraction(3, 2), b=10),
                lat_quat(Fi, 0.3 + 0.2j, 1.1 - 0.4j)):
        ev = EisensteinEvaluator(lat)
        assert abs(ev.h_lattice(1e-12) - ev.h_value(1e-12)) < 1e-10


def test_h_gl2_random_matrices_with_ideal_conditions():
    # h((az+b)(cz+d)^{-1}, a_id, b_id) = h(z, a_id, b_id) - 2 log ||cz+d||
    # for integral unimodular matrices whose off-diagonal entries satisfy
    # a_id * b <= b_id and b_id * c <= a_id (exactly the conditions under
    # which a_id (az+b) + b_id (cz+d) = a_id z + b_id; the set-level
    # identity is asserted alongside)
    rng = random.Random(12)
    cases = [(1, 1), (2, 3), (1, 2), (3, 1), (2, 1)]
    for na, nb in cases:
        ia = FracIdeal(Q, gen=Fraction(na))
        ib = FracIdeal(Q, gen=Fraction(nb))
        # multiples of nb resp. na form a sound subfamily of
        # (a_id^{-1} b_id) resp. (a_id b_id^{-1}) intersected with Z
        found = None
        while found is None:
            b = nb * rng.randint(-3, 3)
            c = na * rng.randint(-3, 3)
            for a in range(1, 30):
                if (1 + b * c) % a == 0:
                    found = (a, b, c, (1 + b * c) // a)
                    break
        a, b, c, d = found
        assert a * d - b * c == 1
        z = complex(rng.uniform(-1, 1), rng.uniform(0.7, 1.6))
        w = (a * z + b) / (c * z + d)

        def lat_of(zz):
            return OFLattice(Q, ia, DNumber.from_xy(Q, zz.real, zz.imag), ib)

        czd = c * z + d
        moved = lat_of(w).right_mul(DNumber.from_xy(Q, czd.real, czd.imag))
        assert lat_of(z).same_z_span(moved)

        # w and z reduce to the same point: the right side takes the
        # lattice route on the given lattice of z
        lhs = EisensteinEvaluator(lat_of(w)).h_value(1e-11)
        rhs = EisensteinEvaluator(lat_of(z)).h_lattice(1e-11) \
            - 2 * math.log(abs(czd))
        assert abs(lhs - rhs) < 1e-8, (na, nb, (a, b, c, d))


def test_h_gl2_over_gaussian_integers():
    O = FracIdeal.unit_ideal(Fi)

    def h_of(zq):
        return EisensteinEvaluator(OFLattice(Fi, O, DNumber(Fi, (zq,)), O)) \
            .h_value(1e-11)

    zq = Quaternion(0.2 - 0.3j, 1.1 + 0.4j)
    num = Quaternion(1 + 0j, 0j) * zq + Quaternion(1 + 0j, 0j)
    den = Quaternion(1j, 0j) * zq + Quaternion(1 + 1j, 0j)
    w = num * den.inverse()
    assert abs(h_of(w) - (h_of(zq) - 2 * math.log(den.abs2()))) < 1e-8


# ---------------------------------------------------------------------------
# the Bessel pair sum of the expansion


def _box_points(M, r):
    """Nonzero points of the 2-d lattice with basis M and |point| <= r, as
    complex numbers, from the full coefficient box."""
    k0, k1 = (int(r * np.linalg.norm(row)) + 1 for row in np.linalg.inv(M))
    c0, c1 = np.meshgrid(np.arange(-k0, k0 + 1), np.arange(-k1, k1 + 1))
    pts = (complex(M[0, 0], M[1, 0]) * c0
           + complex(M[0, 1], M[1, 1]) * c1).ravel()
    return pts[(pts != 0) & (np.abs(pts) <= r)]


def _brute_pairs(ev, reach):
    """The cutoff hi = reach c min|alpha| min|beta*|, c = n_v pi |y|, with
    the (arg, phase, ratio) of every pair whose argument is at most hi, both
    of each +-alpha, one alpha at a time against the whole beta list; on the
    reduced presentation (ideal_a, ideal_b, x_red, y_red) the expansion runs
    on."""
    n_v = 1 if ev.F.is_rational else 2
    x, y = ev.x_red, ev.y_red
    c = n_v * math.pi * abs(y)
    # no product |alpha| |beta*| lies on the edge: its argument could round
    # to either side
    reach *= 1 + math.pi * 1e-7
    if ev.F.is_rational:
        a, bs = ev.na, float(ev.bstar.absolute_norm())
        k = np.arange(1, int(reach) + 2)
        alphas, betas = a * np.concatenate([k, -k]), bs * np.concatenate([k, -k])
        hi = reach * c * a * bs
    else:
        Ma = _ideal_embedding_matrix(ev.ideal_a)
        Mb = _ideal_embedding_matrix(ev.bstar)
        min_a, min_b = (np.abs(_box_points(
            M, 1.01 * np.linalg.norm(M, axis=0).min())).min() for M in (Ma, Mb))
        # every ideal is principal: the least |alpha| in a is sqrt(N(a)), as
        # _pair_data takes it (b* is never the unit ideal)
        assert min_a == pytest.approx(math.sqrt(ev.na), rel=1e-12)
        assert min_b == pytest.approx(math.sqrt(ev.nbstar), rel=1e-12)
        alphas = _box_points(Ma, 1.01 * reach * min_a)
        betas = _box_points(Mb, 1.01 * reach * min_b)
        hi = reach * c * min_a * min_b
    out = []
    for al in alphas:
        args = c * abs(al) * np.abs(betas)
        bs_in = betas[args <= hi]
        out.extend((c * abs(al) * abs(be), n_v * (complex(x) * al * be).real,
                    (abs(be) / (abs(al) * abs(y))) ** n_v) for be in bs_in)
    return hi, np.array(out).reshape(-1, 3)


def _sorted_triples(triples, decimals=None):
    """Rows sorted by (arg, ratio, phase), optionally rounded for the sort."""
    keys = triples if decimals is None else np.round(triples, decimals)
    return triples[np.lexsort((keys[:, 1], keys[:, 2], keys[:, 0]))]


@given(st.sampled_from(["Q", -1, -2, -3, -7, -11]),
       st.complex_numbers(max_magnitude=1.5),
       st.floats(0.03, 2.0), st.floats(0.0, 2 * math.pi),
       st.sampled_from([1, 2, Fraction(3, 2)]),
       st.sampled_from([1, 2, Fraction(3, 2)]),
       st.floats(0.5, 20.0))
@settings(max_examples=30)
def test_pair_data_matches_brute_force(kind, x, ay, ang, ia, ib, reach):
    F = make_field(kind)
    a, b = FracIdeal(F, gen=Fraction(ia)), FracIdeal(F, gen=Fraction(ib))
    if F.is_rational:
        z = DNumber.from_xy(F, x.real, ay)
    else:
        z = DNumber(F, (Quaternion(x, ay * cmath.exp(1j * ang)),))
    ev = EisensteinEvaluator(OFLattice(F, a, z, b))
    hi, want = _brute_pairs(ev, reach)
    # (arg, phase, ratio) of each pair; the evaluator has one node
    *data, node = ev._pair_data(hi)
    assert not node.any()
    got = np.column_stack(data)
    # (alpha, beta*) and (-alpha, -beta*) have the same triple: the pairs
    # returned, with their negatives, are the pairs up to hi
    both = np.concatenate([got, got])
    assert both.shape == want.shape
    # rows whose rounded sort keys tie may be permuted; they differ by < 1e-9
    np.testing.assert_allclose(_sorted_triples(both, 9),
                               _sorted_triples(want, 9), rtol=1e-12, atol=1e-9)


def _recording_pair_data(ev):
    """Wrap ev._pair_data so that the cutoffs of each call are recorded."""
    cutoffs, pair_data = [], ev._pair_data

    def recorded(hi):
        cutoffs.append(np.array(hi, dtype=float))
        return pair_data(hi)

    ev._pair_data = recorded
    return cutoffs, pair_data


def test_term3_evaluates_each_pair_once(monkeypatch):
    # one _pair_data call and one Bessel call, for one node and for an
    # array evaluator of three, and every pair up to the cutoffs once
    one = EisensteinEvaluator(lat_quat(make_field(-3), 0.3 + 0.2j, 0.6 + 0.1j))
    three = one.at_point(np.array([0.3 + 0.2j, 0.1, -0.2j]),
                         np.array([0.6 + 0.1j, 1.2, 0.7 - 0.4j]))
    seen = []
    bessel = eisenstein.bessel_k_batch

    def counted(nu, xs, **kw):
        seen.append(xs.size)
        return bessel(nu, xs, **kw)

    monkeypatch.setattr(eisenstein, "bessel_k_batch", counted)
    for ev in (one, three):
        seen.clear()
        cutoffs, pair_data = _recording_pair_data(ev)
        ev.term3(6.0, 1e-10)
        assert len(cutoffs) == 1 and len(seen) == 1
        assert seen[0] == pair_data(cutoffs[0])[0].size > 0
        # the cutoffs are the ones the tail bound proves
        scale = np.abs(ev.Va ** 6 * ev.Vb ** 5 * np.ravel(ev.ny) ** 6) \
            / (ev.F.w / 2) * 2 * math.pi
        np.testing.assert_allclose(cutoffs[0],
                                   ev._pair_cutoff(6.0, scale, 1e-10)[0],
                                   rtol=1e-12)


@pytest.mark.parametrize("d", [-1, -2, -3, -7, -11])
@pytest.mark.parametrize("equal", [True, False])
def test_term3_is_the_all_pairs_sum_over_w(d, equal):
    # term3 sums one alpha of each +-pair and divides by w/2: it equals the
    # sum over all pairs (alpha, beta*) up to its cutoff, divided by w
    F = make_field(d)
    O = FracIdeal.unit_ideal(F)
    a = O if equal else FracIdeal(F, gen=QuadElement(F, Fraction(2), Fraction(0)))
    z = DNumber(F, (Quaternion(0.3 + 0.2j, 0.8 + 0.4j),))
    ev = EisensteinEvaluator(OFLattice(F, a, z, O))
    s = 1.7
    cutoffs, _ = _recording_pair_data(ev)
    got = ev.term3(s, 1e-10)
    L = float(cutoffs[0].max())
    x, y = ev.x_red, ev.y_red
    c = 2 * math.pi * abs(y)
    Ma = _ideal_embedding_matrix(ev.ideal_a)
    Mb = _ideal_embedding_matrix(ev.bstar)
    min_a, min_b = (np.abs(_box_points(
        M, 1.01 * np.linalg.norm(M, axis=0).min())).min() for M in (Ma, Mb))
    assert min_a == pytest.approx(math.sqrt(ev.na), rel=1e-12)
    assert min_b == pytest.approx(math.sqrt(ev.nbstar), rel=1e-12)
    alphas = _box_points(Ma, 1.01 * L / (c * min_b))
    betas = _box_points(Mb, 1.01 * L / (c * min_a))
    al, be = np.repeat(alphas, betas.size), np.tile(betas, alphas.size)
    args = c * np.abs(al) * np.abs(be)
    keep = args <= L
    al, be, args = al[keep], be[keep], args[keep]
    ratios = (np.abs(be) / (np.abs(al) * abs(y))) ** 2
    pref = ev.Va ** s * ev.Vb ** (s - 1) * abs(y) ** (2 * s) / F.w
    terms = pref * 2 * math.pi * ratios ** (s - 0.5) \
        * bessel_k_batch(2 * (s - 0.5), args) \
        * np.exp(2j * math.pi * 2 * (x * al * be).real)
    assert abs(got - terms.sum()) <= 1e-14 * np.abs(terms).sum()


# pairs (X + 15)^n_v / c^n_v, summed over the nodes, that one example of
# the tail property may enumerate: a few 1e5 pairs.  Below |y| ~ 0.1 with
# Re s far from 1/2 the cutoffs need millions (the small-|y| memory cost of
# the expansion, which SL2(O_F) reduction would remove)
_TAIL_TEST_BUDGET = 1e4


@given(st.sampled_from(["Q", -1, -2, -3, -7, -11]),
       st.lists(st.tuples(st.complex_numbers(max_magnitude=1.5),
                          st.floats(0.05, 2.0), st.floats(0.0, 2 * math.pi)),
                min_size=1, max_size=3),
       st.sampled_from([1, 2, Fraction(3, 2)]),
       st.floats(-3.0, 6.0), st.floats(-30.0, 30.0),
       st.sampled_from([1e-8, 1e-10, 1e-12]))
@example(-1, [(0.3 + 0.1j, 0.05, 0.0)], 1, 1.0, 0.0, 1e-10)
@example(-11, [(0.1, 0.1, 1.0), (0.2j, 1.5, 0.0)], 2, -3.0, 30.0, 1e-12)
@settings(max_examples=25, deadline=None)
def test_term3_tail_beyond_its_cutoff_is_within_tol(kind, nodes, ia, sigma,
                                                    t, tol):
    # the scaled sum of |term| over the pairs with argument in (X, X + 15]
    # is at most tol/10 at every node, X the node's cutoff, which term3
    # sums to (test_term3_evaluates_each_pair_once).
    # |K_nu(x)| <= K_(Re nu)(x) (checked on the nearest pairs), so the
    # terms are taken at the real order: the tail is then exact for real s
    # and an upper bound of it otherwise
    F = make_field(kind)
    n_v = 1 if F.is_rational else 2
    a, b = FracIdeal(F, gen=Fraction(ia)), FracIdeal.unit_ideal(F)
    xs = np.array([x for x, _, _ in nodes])
    ys = np.array([ay * cmath.exp(1j * ang) for _, ay, ang in nodes])
    if F.is_rational:
        xs, ys = xs.real, np.abs(ys)
        z = DNumber.from_xy(F, xs[0], ys[0])
    else:
        z = DNumber(F, (Quaternion(xs[0], ys[0]),))
    ev = EisensteinEvaluator(OFLattice(F, a, z, b)).at_point(xs, ys)
    s = complex(sigma, t)
    ny = np.abs(ev.y_red) ** n_v
    scale = np.abs(ev.Va ** s * ev.Vb ** (s - 1) * ny ** s) / (F.w / 2) \
        * (2 * math.pi) ** (n_v - 1)
    X, _ = ev._pair_cutoff(s, scale, tol)
    c = n_v * math.pi * np.abs(ev.y_red)
    assume(np.sum(((X + 15) / c) ** n_v) <= _TAIL_TEST_BUDGET)
    args, _, ratios, node = ev._pair_data(X + 15)
    tail = args > X[node]
    args, ratios, node = args[tail], ratios[tail], node[tail]
    a_nu = n_v * (sigma - 0.5)
    terms = scale[node] * ratios ** (sigma - 0.5) * 2 * kv(a_nu, 2 * args)
    assert np.all(np.bincount(node, terms, X.size) <= tol / 10)
    if t and args.size:
        near = np.sort(args)[:64]
        k_a = 2 * kv(a_nu, 2 * near)
        k_nu = bessel_k_batch(n_v * (s - 0.5), near, tol=1e-3 * k_a.min())
        assert np.all(np.abs(k_nu) <= k_a * (1 + 1e-9))


def test_pair_sum_raises_at_its_pair_cap(monkeypatch):
    # a pair sum that would build more than _PAIR_CAP pairs raises before
    # it builds them or evaluates a Bessel function (over Q(i) at s = 300
    # the proven cutoff X = 1973 needs 2.6e7 pairs)
    ev = EisensteinEvaluator(lat_quat(make_field(-3), 0.3 + 0.2j, 0.6 + 0.1j))
    calls = []
    monkeypatch.setattr(eisenstein, "bessel_k_batch",
                        lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(eisenstein, "_PAIR_CAP", 50)
    with pytest.raises(EnumerationCapError, match="over the cap 50"):
        ev.term3(2.0, 1e-10)
    assert not calls


def test_term3_raises_below_its_rounding_floor():
    # over Q(i) with |y| = 0.2 at s = 5 the scaled terms up to the cutoff
    # add up to ~2e8 in absolute value, so eps * sum |term| ~ 5e-8 lies
    # above tol/10
    ev = EisensteinEvaluator(lat_quat(Fi, 0.3 + 0.2j, 0.2 + 0j))
    with pytest.raises(ConvergenceError) as info:
        ev.term3(5.0, 1e-10)
    msg = str(info.value)
    assert "rounding floor" in msg and "tol/10 = 1e-11" in msg
    err = info.value
    X = err.cutoff
    assert f"X = {X:g}" in msg and err.tol == 1e-10
    assert err.last_delta > 0
    assert err.points == ev._pair_data(X)[0].size


def _traced_direct(monkeypatch, lat, s, tol):
    """e_direct's value, every norm it was handed and its final cutoff."""
    seen, bounds = [], []
    chunks = lat.norm_chunks

    def traced(bound, inner=0.0):
        bounds.append(bound)
        for norms in chunks(bound, inner):
            seen.append(norms.copy())       # e_direct takes logs in place
            yield norms

    monkeypatch.setattr(lat, "norm_chunks", traced)
    value = EisensteinEvaluator(lat).e_direct(s, tol)
    return value, np.concatenate(seen), max(bounds)


def _ball_norms(lat, B):
    """Norms of all nonzero points with ||lambda|| <= B, both of each +-pair:
    the half ball of ball_points, twice."""
    r2 = np.concatenate(list(ball_points(lat.M, lat.euclid_radius(B))))
    norms = np.sqrt(r2) if lat.field.is_rational else r2
    return np.sort(np.concatenate([norms, norms]))


def _mp_smoothstep(x):
    k = eisenstein._SMOOTH_K
    return mpmath.betainc(k + 1, k + 1, 0, x, regularized=True)


def _mp_tail_factor(s):
    """c(s) = 1/(2s-2) + int_a^1 u^(1-2s) P((u-a)/(1-a)) du by mpmath."""
    a = eisenstein._SMOOTH_A
    with mpmath.workdps(30):
        s = mpmath.mpc(s)
        return complex(1 / (2 * s - 2) + mpmath.quad(
            lambda u: u ** (1 - 2 * s) * _mp_smoothstep((u - a) / (1 - a)),
            [a, 1]))


def _smoothed_closed_form(lat, s, B):
    """The smoothed sum over every nonzero point of the ball of radius B,
    with the weight from scipy's incomplete beta and c(s) from mpmath."""
    k, a = eisenstein._SMOOTH_K, eisenstein._SMOOTH_A
    V, w = lat.covolume, lat.field.w
    kappa = 2 * math.pi if lat.field.is_rational else 4 * math.pi ** 2
    full = _ball_norms(lat, B)
    weight = 1 - betainc(k + 1, k + 1, np.clip((full / B - a) / (1 - a), 0, 1))
    cs = complex(s)
    Vs = cmath.exp(cs * math.log(V))
    return Vs / w * complex(np.sum(np.exp(-2 * cs * np.log(full)) * weight)) \
        + Vs * kappa * cmath.exp((2 - 2 * cs) * math.log(B)) \
        * _mp_tail_factor(cs) / (w * V)


@pytest.mark.parametrize("lat", [lat_q(0.3, 1.1),
                                 lat_quat(Fi, 0.1 + 0.3j, 1.0 + 0.2j)])
def test_direct_sums_each_point_once(lat, monkeypatch):
    # the doublings grow the ball shell by shell and carry the band's norms
    # over, and norm_chunks hands over one point of each pair +-lambda: over
    # the calls of one e_direct, the norms are those of half the final ball,
    # each exactly once, and the value is the smoothed sum over that ball
    s = 2.5 + 0.5j
    value, seen, B = _traced_direct(monkeypatch, lat, s, 4e-9)
    full = _ball_norms(lat, B)
    assert B > max(8.0, 2.0 * lat.covolume ** (1.0 / lat.dim))
    assert seen.size * 2 == full.size
    np.testing.assert_allclose(np.sort(seen), full[::2], rtol=1e-13)
    want = _smoothed_closed_form(lat, s, B)
    assert abs(value - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("lat", [lat_q(0.3, 1.1),
                                 lat_quat(Fi, 0.1 + 0.3j, 1.0 + 0.2j)])
def test_direct_real_s_sums_in_real_arithmetic(lat, monkeypatch):
    exp_dtypes = []
    np_exp = np.exp

    def typed_exp(x, *args, **kw):
        exp_dtypes.append(np.asarray(x).dtype)
        return np_exp(x, *args, **kw)

    monkeypatch.setattr(np, "exp", typed_exp)
    s = 2.5
    value, _, B = _traced_direct(monkeypatch, lat, s, 4e-9)
    assert exp_dtypes and all(d == np.float64 for d in exp_dtypes)
    monkeypatch.setattr(np, "exp", np_exp)
    # the complex formula over the whole final ball, plus the smooth tail
    want = _smoothed_closed_form(lat, s, B)
    assert abs(value - want) <= 1e-13 * abs(want)


@settings(max_examples=12)
@given(st.one_of(st.floats(1.06, 10.0),
                 st.builds(complex, st.floats(1.06, 4.0),
                           st.floats(-10.0, 10.0))))
def test_smooth_tail_factor_matches_quadrature(s):
    # c(s) against mpmath.quad of its definition.  The bound is relative to
    # the integral of |u^(2-2s)| dP / |2s-2|, which is |c(s)| for real s;
    # for complex s the phase of u^(-2i Im s) cancels c(s) down to ~1e-3 of
    # that scale (4 + 10i), beyond what float64 terms can resolve
    a, k = eisenstein._SMOOTH_A, eisenstein._SMOOTH_K
    sig = complex(s).real
    want = _mp_tail_factor(s)
    with mpmath.workdps(30):
        scale = float(mpmath.quad(
            lambda t: (a + (1 - a) * t) ** (2 - 2 * sig) * (t * (1 - t)) ** k,
            [0, 1]) / mpmath.beta(k + 1, k + 1)) / abs(2 * complex(s) - 2)
    got = eisenstein._smooth_tail_factor(s)
    assert abs(got - want) <= 1e-14 * scale
    if isinstance(s, float):
        assert abs(scale - abs(want)) <= 1e-14 * scale


def _zeta_beta(s):
    """E of Z[i] over Q (V = 1, w = 2): 2 zeta(s) beta(s)."""
    s = mpmath.mpc(s)
    return complex(2 * mpmath.zeta(s) * mpmath.dirichlet(s, [0, 1, 0, -1]))


def _z4_closed_form(s):
    """E of O j + O over Q(i), the lattice Z^4 (V = 4, w = 4):
    2 4^s (1 - 4^(1-2s)) zeta(2s) zeta(2s-1)."""
    s = mpmath.mpc(s)
    return complex(2 * 4 ** s * (1 - 4 ** (1 - 2 * s)) * mpmath.zeta(2 * s)
                   * mpmath.zeta(2 * s - 1))


_DIRECT_S = st.builds(complex, st.floats(1.2, 4.0), st.floats(-5.0, 5.0))


@settings(max_examples=6)
@given(_DIRECT_S)
def test_direct_gaussian_integers_closed_form(s):
    got = EisensteinEvaluator(lat_q(0.0, 1.0)).e_direct(s, 1e-8)
    assert abs(got - _zeta_beta(s)) <= 1e-8


@settings(max_examples=6)
@given(_DIRECT_S)
@example(1.6 + 0j)
def test_direct_z4_closed_form(s):
    # s = 1.6 raised EnumerationCapError under a sharp cutoff
    got = EisensteinEvaluator(lat_quat(Fi, 0j, 1 + 0j)).e_direct(s, 1e-8)
    assert abs(got - _z4_closed_form(s)) <= 1e-8


def test_direct_raises_below_its_rounding_floor():
    # E = 4.3e6 at s = 2: eps * E is above tol/16 = 6.25e-12, so doubling
    # differences below tol/16 would only show shell sums, not accuracy
    ev = EisensteinEvaluator(lat_q(0.0, 5e-4))
    with pytest.raises(ConvergenceError) as info:
        ev.e_direct(2.0, 1e-10)
    msg = str(info.value)
    assert "rounding floor" in msg and "B = 8" in msg
    assert "tol/16 = 6.25e-12" in msg
    err = info.value
    # no doubling yet: the first cutoff has no change to report
    assert (err.cutoff, err.last_delta, err.tol) == (8.0, math.inf, 1e-10)
    assert err.points > 0


def test_direct_reports_how_far_it_got(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_REFINEMENTS", 1)
    ev = EisensteinEvaluator(lat_q(0.0, 1.0))
    with pytest.raises(ConvergenceError) as info:
        ev.e_direct(2.0, 1e-10)
    msg = str(info.value)
    assert "did not stabilize at B = 16" in msg
    assert "tol/16 = 6.25e-12" in msg
    err = info.value
    assert (err.cutoff, err.tol) == (16.0, 1e-10)
    assert 1e-10 / 16 < err.last_delta < math.inf
    # one point of each pair +-lambda of Z[i] with norm |lambda| <= 16
    assert err.points == sum(1 for m in range(-16, 17) for n in range(-16, 17)
                             if 0 < m * m + n * n <= 256) // 2


def test_direct_decay_exit_ignores_a_change_small_by_chance():
    # at B = 64 one doubling moves the sum by 1.25e-3 of the change before:
    # a rule reading that one ratio would accept there 1.48 tol off
    F = make_field(-11)
    lat = lat_quat(F, -0.4702 + 0.0631j, cmath.rect(0.2862, 0.6773))
    ev = EisensteinEvaluator(lat)
    tol = 1e-6
    assert abs(ev.e_direct(1.2, tol) - ev.e_direct(1.2, tol / 300)) <= tol / 16


@settings(max_examples=8)
@given(st.sampled_from(["Q", -1, -2, -3, -7, -11]),
       st.sampled_from([1, 2, Fraction(3, 2)]),
       st.sampled_from([1, 2, Fraction(3, 2)]),
       st.complex_numbers(max_magnitude=1.0), st.floats(0.3, 4.0),
       st.floats(0.0, 2 * math.pi),
       st.builds(complex, st.floats(1.1, 4.0), st.floats(-10.0, 10.0)),
       st.sampled_from([1e-5, 1e-6]))
# draws that a stop rule reading the last two ratios and rho * delta
# accepted 1.05 to 5.9 tol off: the first changes fall faster than the later
# ones, or the last change is small by chance
@example(-7, 1, 2, -0.5624 - 0.0808j, 0.5455, 1.8208, 1.1623 + 0j, 1e-5)
@example(-3, 2, 2, -0.7350 + 0.2202j, 2.1921, 3.6574, 3.8051 + 0j, 1e-6)
@example(-3, Fraction(3, 2), 2, 0.5088 + 0.5930j, 3.1362, 1.9264,
         2.9300 - 7.2235j, 1e-5)
def test_direct_meets_tol_against_a_tighter_sum(kind, ia, ib, x, ay, ang, s,
                                                tol):
    # whichever exit accepts the sum, the value is within tol of the sum
    # asked for tol/300, or the call raises
    F = make_field(kind)
    if F.is_rational:
        lat = lat_q(x.real, ay, ia, ib)
    else:
        a, b = FracIdeal(F, gen=Fraction(ia)), FracIdeal(F, gen=Fraction(ib))
        z = DNumber(F, (Quaternion(x, ay * cmath.exp(1j * ang)),))
        lat = OFLattice(F, a, z, b)
    ev = EisensteinEvaluator(lat)
    try:
        want = ev.e_direct(s, tol / 300)
    except (ConvergenceError, EnumerationCapError):
        assume(False)
    try:
        got = ev.e_direct(s, tol)
    except ConvergenceError:
        return
    assert abs(got - want) <= tol
