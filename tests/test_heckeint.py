import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import i0

from heckeis import eisenstein, heckeint, numerics
from heckeis.basefield import FracIdeal, QuadElement, dual_ideal, make_field
from heckeis.dalgebra import DNumber
from heckeis.eisenstein import EisensteinEvaluator
from heckeis.errors import ConvergenceError, UnsupportedFieldError
from heckeis.heckeint import (HeckeSetup, hecke_integral, relative_klf_check,
                              torus_measure_identity, xi_K_oracle)
from heckeis.lattice import OFLattice
from heckeis.zeta import c_F, class_number
from lattice_helpers import same_span

Q = make_field("Q")


def lift(sign, tau):
    """The lift u~ = (sign e^(tau/2), e^(-tau/2)) of u = (sign e^tau,
    sign e^-tau) on the sign component `sign`: components at (w, w')."""
    return sign * math.exp(tau / 2), math.exp(-tau / 2)


def scaled_lattice(setup, sign, tau):
    """rho(u~ A) for A = O_K = Z z + Z (a = b = Z), rho(z_w, z_w') =
    z_w + z_w' i: the Z-basis lattice of rho(u~ z), rho(u~)."""
    uw, uwp = lift(sign, tau)
    return OFLattice(Q, z_basis=[[uw * setup.zw, uw],
                                 [uwp * setup.zwp, uwp]])


def test_setup_orientation_and_shape():
    K = make_field(5)
    setup = HeckeSetup(K)
    # A = O_K as a z + b with a = b = Z and z = omega, oriented z' > z
    assert setup.ideal_a.gen == 1 and setup.ideal_b.gen == 1
    assert setup.zwp > setup.zw
    assert {round(setup.zw, 6), round(setup.zwp, 6)} \
        == {round((1 - math.sqrt(5)) / 2, 6), round((1 + math.sqrt(5)) / 2, 6)}


@pytest.mark.parametrize("d", [2, 3, 5, 13, 23])
def test_period_is_twice_the_regulator_for_both_unit_norms(d):
    # units of norm -1 (d = 2, 5, 13) and +1 (d = 3, 23) alike
    K = make_field(d)
    setup = HeckeSetup(K)
    assert setup.period == 2 * K.regulator
    assert setup.measure == 2 * setup.period


def _ideal_three_plus_sqrt2():
    K = make_field(2)
    return HeckeSetup(K, FracIdeal(K, gen=QuadElement(K, Fraction(3),
                                                      Fraction(1))))


@pytest.mark.parametrize("make_setup", [
    lambda: HeckeSetup(make_field(2)), lambda: HeckeSetup(make_field(5)),
    lambda: HeckeSetup(make_field(13)), lambda: HeckeSetup(make_field(29)),
    _ideal_three_plus_sqrt2])
def test_norm_minus_one_integrand_has_the_unit_period(make_setup):
    # a unit of norm -1 maps the sign +1 component at tau to the sign -1
    # component at tau + 2R, which carries the same integrand, so 2R is a
    # period on these fields too, not only 4R
    setup = make_setup()
    assert setup.K.fundamental_unit_norm == -1
    R = setup.period / 2
    for tau in (-R, -0.4 * R, 0.0, 0.7 * R):
        ev = setup.evaluator_at(tau)
        ev_up = setup.evaluator_at(tau + setup.period)
        assert abs(ev.ehat_expansion(2.0, 1e-14)
                   - ev_up.ehat_expansion(2.0, 1e-14)) < 1e-12
        assert abs((ev.h_value(1e-14) - math.log(abs(ev.y)))
                   - (ev_up.h_value(1e-14) - math.log(abs(ev_up.y)))) < 1e-12


def test_a_field_past_the_old_overflow_constructs():
    # R = 178.2: e^(2R) lies past the range of doubles, and the setup never
    # forms a unit as a float
    K = make_field(8089)
    setup = HeckeSetup(K)
    assert setup.period == 2 * K.regulator
    m, m2 = torus_measure_identity(setup)
    assert abs(m - m2) < 1e-10


@pytest.mark.parametrize("d", [8089, 1000006])
def test_a_torus_whose_nodes_carry_no_digits_raises_at_once(monkeypatch, d):
    # rounding x = m + h tanh(tau) moves the nodes near tau = +-R by
    # eps cosh(R) (|m| + |h|)/|h| >= 1 (R = 178.2 and 1052.5; cosh(R)
    # overflows for the second), so no node is evaluated
    def forbidden(self, tau):
        raise AssertionError("a node was evaluated")

    monkeypatch.setattr(HeckeSetup, "evaluator_at", forbidden)
    K = make_field(d)
    with pytest.raises(ConvergenceError, match="regulator") as info:
        hecke_integral(HeckeSetup(K), 2.0)
    assert f"{K.regulator:.6g}" in str(info.value)
    assert info.value.points == 0


def test_volume_is_t_independent():
    # |N(u~)| = 1: the covolume of rho(u~ A) is the same at every node
    setup = HeckeSetup(make_field(5))
    v1 = scaled_lattice(setup, 1, 0.0).covolume
    for tau in (math.log(1.3), math.log(2.0)):
        assert abs(scaled_lattice(setup, 1, tau).covolume - v1) < 1e-10
        assert abs(scaled_lattice(setup, -1, tau).covolume - v1) < 1e-10


def test_scaled_lattice_modularity():
    # the expansion on a z_tau + b agrees with the direct sum over the actual
    # scaled points of rho(u~ A) = (a z_tau + b) rho(u~) (the scale drops by
    # modularity)
    from heckeis.specialfun import gamma_F
    setup = HeckeSetup(make_field(5))
    s = 2.5
    tau = math.log(1.3)
    via_expansion = setup.evaluator_at(tau).ehat_expansion(s, 1e-11)
    via_direct = gamma_F(Q, 2 * s) \
        * EisensteinEvaluator(scaled_lattice(setup, 1, tau)).e_direct(s, 1e-9)
    assert abs(via_expansion - via_direct) < 1e-8


@pytest.mark.parametrize("d", [5, 3])
def test_integrand_periodicity(d):
    # 2R is a period in tau for both unit norms, which the periodic
    # trapezoid rule over [-R, R) relies on (for norm -1 the shift moves
    # the node to the sign -1 component, which carries the same integrand:
    # test_sign_components_carry_one_integrand); the limit-formula integrand
    # h - log|y| is invariant, h alone is not
    setup = HeckeSetup(make_field(d))
    s = 1.7
    for tau in (0.0, math.log(1.9)):
        ev = setup.evaluator_at(tau)
        ev_up = setup.evaluator_at(tau + setup.period)
        a = ev.ehat_expansion(s, 1e-12)
        b = ev_up.ehat_expansion(s, 1e-12)
        assert abs(a - b) < 1e-9
        h, h_up = ev.h_value(1e-12), ev_up.h_value(1e-12)
        assert abs((h - math.log(abs(ev.y)))
                   - (h_up - math.log(abs(ev_up.y)))) < 1e-9
        assert abs(h - h_up) > 1e-3


def test_rho_star_gives_dual_lattice():
    # dual of rho(u~ A) is rho_star(u~^{-1} A*), rho_star(z_w, z_w') =
    # z_w - z_w' i
    K = make_field(5)
    setup = HeckeSetup(K)
    tau = math.log(1.3)
    uw, uwp = lift(1, tau)
    dual = scaled_lattice(setup, 1, tau).dual()
    Astar = dual_ideal(K, FracIdeal.unit_ideal(K))
    columns = []
    for g in Astar.z_basis():
        e1, e2 = g.embeddings()
        if setup.zw == g.field.embed(setup.z_K, 1):   # orientation swapped
            e1, e2 = e2, e1
        columns.append([e1 / uw, -e2 / uwp])
    assert same_span(dual.M, np.transpose(columns))


@pytest.mark.parametrize("d", [-1, -3])
def test_imaginary_hecke_equals_xi(d):
    K = make_field(d)
    setup = HeckeSetup(K)
    got = hecke_integral(setup, 2.0, 1e-10)
    want = xi_K_oracle(K, 2.0)
    assert abs(got - want) < 1e-10


def test_imaginary_class_invariance():
    # replacing A by c A leaves the integral unchanged
    K = make_field(-1)
    c = QuadElement(K, Fraction(2), Fraction(1))
    s1 = HeckeSetup(K, FracIdeal.unit_ideal(K))
    s2 = HeckeSetup(K, FracIdeal(K, gen=c))
    assert abs(hecke_integral(s1, 2.0, 1e-10)
               - hecke_integral(s2, 2.0, 1e-10)) < 1e-10


# the tori of Q(sqrt 17) and Q(sqrt 19) have periods 2R = 4.2 and 11.7;
# their nodes near tau = +-R have small |y|, which the SL2(Z) reduction of
# the expansion keeps cheap
@pytest.mark.parametrize("d", [2, 5, 3, 17, 19])
def test_real_hecke_matches_oracle(d):
    K = make_field(d)
    setup = HeckeSetup(K)
    got = hecke_integral(setup, 2.0, 1e-9)
    want = xi_K_oracle(K, 2.0)
    assert abs(got - want) < 1e-8


def test_complex_s():
    K = make_field(5)
    setup = HeckeSetup(K)
    s = 1.5 + 0.5j
    assert abs(hecke_integral(setup, s, 1e-9) - xi_K_oracle(K, s)) < 1e-8


def unconverged_fields(err) -> dict:
    m = re.fullmatch(r"(.+) did not converge: halvings (\d+), nodes (\d+), "
                     r"last change (\S+) > tol (\S+)", str(err))
    assert m, str(err)
    what, halvings, nodes, change, tol = m.groups()
    return {"what": what, "halvings": int(halvings), "nodes": int(nodes),
            "change": float(change), "tol": float(tol)}


@pytest.mark.parametrize("d", [2, 3])
def test_torus_integral_raises_when_unconverged(monkeypatch, d):
    # an integrand that is not periodic in tau converges only slowly under
    # the trapezoid rule, so with two halvings (8 -> 32 nodes of the period
    # [-R, R) of the sign +1 component) hecke_integral must raise instead
    # of returning the last estimate; the message says how far the
    # quadrature got.  Each level of nodes is one evaluator of array tau
    class Oscillating:
        def __init__(self, tau):
            self.tau = np.asarray(tau)

        def ehat_expansion(self, s, tol):
            return np.exp(50j * self.tau)

    monkeypatch.setattr(HeckeSetup, "evaluator_at",
                        lambda self, tau: Oscillating(tau))
    monkeypatch.setattr(numerics, "MAX_REFINEMENTS", 2)
    setup = HeckeSetup(make_field(d))
    with pytest.raises(ConvergenceError) as info:
        hecke_integral(setup, 2.0, 1e-8)
    fields = unconverged_fields(info.value)
    assert fields["what"] == "torus quadrature"
    assert fields["halvings"] == 2 and fields["nodes"] == 32
    assert fields["tol"] == 5e-9 and fields["change"] > fields["tol"]
    err = info.value
    assert (err.tol, err.points) == (5e-9, 32)
    assert err.last_delta > err.tol
    # the step after two halvings of period/8
    assert err.cutoff == setup.period / 32


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_torus_quadrature_is_a_nested_periodic_trapezoid(monkeypatch, d, tol):
    # exp(cos(2 pi tau / period)) integrates to period * I_0(1) over one
    # period; the trapezoid rule in tau gets it to rounding with 32 nodes of
    # [-R, R) on the sign +1 component, counted twice, and never evaluates a
    # node twice or outside [-R, R).  Each level of nodes is one evaluator
    # of array tau
    setup = HeckeSetup(make_field(d))
    period = setup.period
    calls = []

    class Periodic:
        def __init__(self, tau):
            self.tau = np.asarray(tau)

        def ehat_expansion(self, s, tol):
            return np.exp(np.cos(2 * math.pi * self.tau / period))

    def evaluator_at(self, tau):
        calls.extend(np.atleast_1d(tau).tolist())
        return Periodic(tau)

    monkeypatch.setattr(HeckeSetup, "evaluator_at", evaluator_at)
    got = hecke_integral(setup, 2.0, tol)
    want = 2 * period * i0(1.0)
    assert abs(got - want) <= 1e-14 * want
    assert len(set(calls)) == len(calls) <= 32
    assert all(-period / 2 <= tau < period / 2 for tau in calls)


# R = 10.8, 11.5, 13.0, 12.6 and 15.1: rounding moves the nodes near
# tau = +-R by up to 4.2e-10, and the values must still meet tol
@pytest.mark.parametrize("d", [46, 67, 103, 134, 193])
def test_large_regulator_fields_meet_tol(d):
    K = make_field(d)
    setup = HeckeSetup(K)
    assert abs(hecke_integral(setup, 2.0, 1e-8) - xi_K_oracle(K, 2.0)) <= 1e-8
    out = relative_klf_check(setup, 1e-8)
    assert abs(out["lhs"] - out["rhs"]) <= 1e-8


def test_hecke_integral_meets_a_tight_tol_at_s3():
    # the rounding of the nodes (at most 3.8e-14 here) stays below tol
    K = make_field(19)
    got = hecke_integral(HeckeSetup(K), 3.0, 1e-11)
    assert abs(got - xi_K_oracle(K, 3.0)) <= 1e-11


def test_torus_integral_raises_when_rounding_exceeds_tol():
    # R = 18.8: the nodes near tau = +-R carry about 6 digits, and the
    # rounding estimate of the value exceeds tol/8 although the halvings
    # settle
    setup = HeckeSetup(make_field(241))
    with pytest.raises(ConvergenceError, match="rounding estimate") as info:
        hecke_integral(setup, 2.0, 1e-8)
    err = info.value
    assert err.tol == 1e-8 and err.last_delta > err.tol / 8
    assert err.cutoff == setup.period / err.points
    # the limit formula's error names the caller's tol, not a scaled one
    with pytest.raises(ConvergenceError, match=r"tol/8 = 1\.25e-09") as info:
        relative_klf_check(setup, 1e-8)
    assert info.value.tol == 1e-8


@pytest.mark.parametrize("d", [5, 193])
def test_relative_klf_asks_each_node_for_a_quarter_of_tol(monkeypatch, d):
    # a node error e moves the quadrature term by C_F e, whatever R is
    tols, h_value = [], EisensteinEvaluator.h_value
    monkeypatch.setattr(EisensteinEvaluator, "h_value",
                        lambda ev, tol: tols.append(tol) or h_value(ev, tol))
    relative_klf_check(HeckeSetup(make_field(d)), 1e-8)
    assert set(tols) == {2.5e-9}


def _squarefree(n):
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


# the 68 fields Q(sqrt d), d < 200 squarefree, of class number one, and
# three of larger regulator (R = 18.8, 19.3 and 21.1)
SCAN = [d for d in range(2, 200)
        if _squarefree(d) and class_number(make_field(d)) == 1] \
    + [241, 409, 601]


@pytest.mark.parametrize("check, least", [("klf", 46), (2.0, 40), (3.0, 35)])
def test_every_field_meets_tol_or_raises(check, least):
    # no value is off by more than tol: a field meets tol or raises.  The
    # least counts of fields that meet tol are those of the parametrization
    # over [0, 2R) and [0, 4R), which this one must not fall below
    assert len(SCAN) == 71
    met = 0
    for d in SCAN:
        K = make_field(d)
        setup = HeckeSetup(K)
        try:
            if check == "klf":
                out = relative_klf_check(setup, 1e-8)
                err = abs(out["lhs"] - out["rhs"])
            else:
                err = abs(hecke_integral(setup, check, 1e-8)
                          - xi_K_oracle(K, check))
        except ConvergenceError:
            continue
        assert err <= 1e-8, d
        met += 1
    assert met >= least


@pytest.mark.parametrize("d", [5, 2, 3])
def test_torus_measure_identity(d):
    m, m2 = torus_measure_identity(HeckeSetup(make_field(d)))
    assert abs(m - m2) < 1e-10


def test_relative_klf():
    for d in (5, 2):
        out = relative_klf_check(HeckeSetup(make_field(d)), 1e-8)
        assert out["abs_error"] < 1e-5
        assert abs(out["lhs"] - out["rhs"]) < 1e-7


def test_relative_klf_integrates_the_torus_once(monkeypatch):
    calls = []
    quadrature = heckeint._torus_quadrature

    def counted(*args, **kwargs):
        calls.append(args)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(heckeint, "_torus_quadrature", counted)
    relative_klf_check(HeckeSetup(make_field(5)), 1e-8)
    assert len(calls) == 1


def test_relative_klf_requires_real_field():
    with pytest.raises(UnsupportedFieldError):
        relative_klf_check(HeckeSetup(make_field(-1)), 1e-8)


def test_torus_nodes_require_real_field():
    with pytest.raises(UnsupportedFieldError):
        HeckeSetup(make_field(-1)).evaluator_at(1.0)


def test_setup_rejects_rational():
    with pytest.raises(UnsupportedFieldError):
        HeckeSetup(Q)


@pytest.mark.parametrize("d", [19, 22])
def test_hecke_integral_at_s3_stays_above_the_pair_sum_rounding_floor(d):
    # the nodes near tau = +-R have |y| down to 0.02; unreduced, their pair
    # sums would lie below the rounding floor at s = 3 and raise.  The
    # reduced nodes have |y| >= sqrt(3)/2
    K = make_field(d)
    got = hecke_integral(HeckeSetup(K), 3.0, 1e-8)
    assert abs(got - xi_K_oracle(K, 3.0)) < 1e-6


def _ideal_one_plus_sqrt23():
    K = make_field(23)
    return HeckeSetup(K, FracIdeal(K, gen=QuadElement(K, Fraction(1),
                                                      Fraction(1))))


def _sample_taus(setup):
    """tau = log t at t = 1, 1.37, 2.9 and 1.001 e^(-R), the last next to
    the end of the period [-R, R), where |y| is least."""
    return np.array([0.0, math.log(1.37), math.log(2.9),
                     math.log(1.001) - setup.period / 2])


@pytest.mark.parametrize("make_setup", [
    lambda: HeckeSetup(make_field(2)), lambda: HeckeSetup(make_field(5)),
    lambda: HeckeSetup(make_field(13)), lambda: HeckeSetup(make_field(23)),
    _ideal_one_plus_sqrt23])
def test_node_is_the_quotient_of_the_lifts(make_setup):
    # the closed form m + h tanh(tau) + |h| sech(tau) i is rho(u~ z)/rho(u~)
    # for u~ = (e^(tau/2), e^(-tau/2)), to a few ulp of the floats z_w, z_w'
    # it starts from: x relative to |m| + |h|, y relative to itself
    setup = make_setup()
    taus = np.linspace(-setup.period / 2, setup.period / 2, 33)
    xs, ys = setup.node(taus)
    m, h = (setup.zw + setup.zwp) / 2, (setup.zw - setup.zwp) / 2
    with mpmath.workdps(30):
        for tau, x, y in zip(taus, xs, ys):
            uw, uwp = mpmath.exp(tau / 2), mpmath.exp(-tau / 2)
            want = (uw * setup.zw + 1j * uwp * setup.zwp) / (uw + 1j * uwp)
            assert abs(mpmath.mpf(x) - want.real) \
                <= 4 * np.spacing(abs(m) + abs(h)), tau
            assert abs(mpmath.mpf(y) - want.imag) \
                <= 4 * np.spacing(float(want.imag)), tau


def test_hecke_integral_non_unit_presentation():
    # A = (1 + sqrt 23) O has N a != N b in its presentation a z + b
    setup = _ideal_one_plus_sqrt23()
    assert setup.ideal_a != setup.ideal_b
    got = hecke_integral(setup, 2.0, 1e-8)
    assert abs(got - xi_K_oracle(setup.K, 2.0)) < 1e-6


@pytest.mark.parametrize("make_setup", [
    lambda: HeckeSetup(make_field(2)), lambda: HeckeSetup(make_field(5)),
    lambda: HeckeSetup(make_field(13)), _ideal_one_plus_sqrt23])
def test_node_evaluator_matches_one_built_on_the_node_lattice(make_setup):
    setup = make_setup()
    for tau in _sample_taus(setup):
        ev = setup.evaluator_at(tau)
        x, y = setup.node(tau)
        ref = EisensteinEvaluator(OFLattice(
            Q, setup.ideal_a, DNumber.from_xy(Q, x, y), setup.ideal_b))
        assert ev.lattice is None and (ev.x, ev.y) == (ref.x, ref.y)
        for s in (2.0, 0.3, 1.5 + 0.5j):
            assert ev.ehat_expansion(s, 1e-10) == ref.ehat_expansion(s, 1e-10)
        assert ev.h_value(1e-10) == ref.h_value(1e-10)
        assert ev.ct(1e-10) == ref.ct(1e-10)


@pytest.mark.parametrize("make_setup", [
    lambda: HeckeSetup(make_field(2)), lambda: HeckeSetup(make_field(5)),
    lambda: HeckeSetup(make_field(13)), _ideal_one_plus_sqrt23])
def test_sign_components_carry_one_integrand(make_setup):
    # the node of the sign -1 lift is the complex conjugate of the node of
    # the sign +1 lift, and a conj(z) + b reduced to y > 0 is the mirror
    # lattice a (-x + y j) + b of a z + b, with the same values
    # (test_eisenstein.py::test_the_mirror_lattice_has_the_same_values), so
    # the quadrature counts the sign +1 component twice
    setup = make_setup()
    taus = _sample_taus(setup)
    xs, ys = setup.node(taus)
    # the node of the lift (-e^(tau/2), e^(-tau/2)) is x - y i
    uw, uwp = -np.exp(taus / 2), np.exp(-taus / 2)
    z_minus = (uw * setup.zw + 1j * (uwp * setup.zwp)) / (uw + 1j * uwp)
    assert np.allclose(z_minus, xs - 1j * ys, rtol=1e-14, atol=0)
    for tau, x, y in zip(taus, xs, ys):
        ev = setup.evaluator_at(tau)
        # a (x - y i) + b reduced to y > 0
        mirror = setup._node_template.at_point(-x, y)
        for s in (2.0, 0.3, 1.5 + 0.5j):
            assert mirror.ehat_expansion(s, 1e-10) \
                == ev.ehat_expansion(s, 1e-10)
        assert mirror.h_value(1e-10) - math.log(abs(mirror.y)) \
            == ev.h_value(1e-10) - math.log(abs(ev.y))


def test_torus_nodes_build_no_lattice_and_no_ideal_data(monkeypatch):
    # the node-independent data (b*, xi(s, Z), norms, volumes) are built
    # once per setup, on its first node
    setup = HeckeSetup(make_field(5))
    setup.evaluator_at(1.0)
    built = []
    init = OFLattice.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-node ideal data")

    monkeypatch.setattr(OFLattice, "__init__", counted)
    monkeypatch.setattr(eisenstein, "dual_ideal", forbidden)
    monkeypatch.setattr(eisenstein, "completed_zeta", forbidden)
    got = hecke_integral(setup, 2.0, 1e-8)
    assert abs(got - xi_K_oracle(setup.K, 2.0)) < 1e-6
    assert built == []


def test_relative_klf_non_unit_presentation():
    # the node integrand h - log|y| of the given presentation carries the
    # log(P_given / P_reduced) correction of h_value
    out = relative_klf_check(_ideal_one_plus_sqrt23(), 1e-8)
    assert out["abs_error"] < 1e-5
    assert abs(out["lhs"] - out["rhs"]) < 1e-7


def _setup_of(which):
    if which == "1+sqrt23":
        return _ideal_one_plus_sqrt23()
    return HeckeSetup(make_field(which))


def _sum_abs(*terms):
    return sum(np.abs(t) for t in terms)


@settings(max_examples=20)
@given(st.sampled_from([2, 3, 5, 13, 19, 23, "1+sqrt23"]),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                max_size=6))
@example("1+sqrt23", [0.0, 0.999, 0.5])
@example(19, [0.97, 0.9, 0.2])
def test_batched_nodes_equal_the_nodes_one_at_a_time(which, us):
    # a level of nodes is one evaluator of array tau, tau = (u - 1/2) period
    # in [-R, R); its values equal those of the evaluators of the single
    # nodes up to the order of summation at real s, and within the node
    # tol at complex s, where the Bessel integral runs at the tightest
    # node's tol
    setup = _setup_of(which)
    taus = setup.period * (np.array(us) - 0.5)
    tol = 1e-10
    batch = setup.evaluator_at(taus)
    singles = [setup.evaluator_at(float(tau)) for tau in taus]
    assert batch.shape == taus.shape and batch.y_red.shape == taus.shape
    for s in (2.0, 3.0, 0.3, 1.5 + 0.5j):
        s = complex(s)
        got = batch.ehat_expansion(s, tol)
        assert got.shape == taus.shape
        for g, ev in zip(got, singles):
            if s.imag:
                assert abs(g - ev.ehat_expansion(s, tol)) <= tol
            else:
                terms = (ev.term1(s, tol), ev.term2(s, tol),
                         ev.term3(s, tol))
                assert abs(g - ev.ehat_expansion(s, tol)) \
                    <= 1e-14 * _sum_abs(*terms)
    CF = c_F(Q)
    for g_h, g_ct, ev in zip(batch.h_value(tol), batch.ct(tol), singles):
        h = ev.h_value(tol)
        log_ratio = math.log(ev.P / ev.P_red)
        h_mass = 2 / CF * _sum_abs(ev.term1(1.0, tol), ev.term3(1.0, tol)) \
            + abs(log_ratio)
        assert abs(g_h - h) <= 1e-14 * h_mass
        ct_mass = abs(ev.zeta.laurent_ct(tol)) \
            + CF / 2 * (h_mass + abs(math.log(ev.P)))
        assert abs(g_ct - ev.ct(tol)) <= 1e-14 * ct_mass


@pytest.mark.parametrize("d, s, count", [(5, 2.0, 16), (19, 3.0, 128)])
def test_hecke_integral_evaluates_a_pinned_set_of_nodes(monkeypatch, d, s,
                                                        count):
    # the number of distinct nodes tau of the nested trapezoid levels, all on
    # the sign +1 component; evaluating a level as one batch, and the first
    # two levels as one, leaves the levels as they were
    seen = []
    evaluator_at = HeckeSetup.evaluator_at

    def counted(self, tau):
        seen.extend(np.atleast_1d(tau).tolist())
        return evaluator_at(self, tau)

    monkeypatch.setattr(HeckeSetup, "evaluator_at", counted)
    K = make_field(d)
    got = hecke_integral(HeckeSetup(K), s, 1e-8)
    assert abs(got - xi_K_oracle(K, s)) < 1e-6
    assert len(set(seen)) == len(seen) == count
