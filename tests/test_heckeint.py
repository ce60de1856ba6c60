import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import i0

from heckeis import eisenstein, numerics
from heckeis.basefield import FracIdeal, QuadElement, dual_ideal, make_field
from heckeis.dalgebra import DNumber, rho_star
from heckeis.eisenstein import EisensteinEvaluator
from heckeis.errors import ConvergenceError, UnsupportedFieldError
from heckeis.heckeint import (HeckeSetup, classical_real_quadratic_integral,
                              hecke_integral, hecke_laurent,
                              relative_klf_check, torus_measure_identity,
                              xi_K_oracle)
from heckeis.lattice import OFLattice
from heckeis.zeta import c_F, zeta_K

Q = make_field("Q")


def test_setup_orientation_and_shape():
    K = make_field(5)
    setup = HeckeSetup(K)
    # A = O_K as a z + b with a = b = Z and z = omega, oriented z' > z
    assert setup.ideal_a.gen == 1 and setup.ideal_b.gen == 1
    assert setup.zwp > setup.zw
    assert {round(setup.zw, 6), round(setup.zwp, 6)} \
        == {round((1 - math.sqrt(5)) / 2, 6), round((1 + math.sqrt(5)) / 2, 6)}


def test_unit_case_split():
    s5 = HeckeSetup(make_field(5))
    assert s5.w_rel == 2 and abs(s5.eps0 - math.exp(4 * make_field(5).regulator)) < 1e-12
    s3 = HeckeSetup(make_field(3))
    assert s3.w_rel == 1 and abs(s3.eps0 - math.exp(2 * make_field(3).regulator)) < 1e-12


def test_lattice_at_t_one():
    K = make_field(5)
    setup = HeckeSetup(K)
    lat = setup.lattice_at(1, 1.0)
    # Z-basis is rho(u~ omega), rho(u~ 1) = (z + z' i, 1 + i)
    vecs = lat.z_basis_vectors()
    got = {(round(v.x_part, 9), round(v.y_part, 9)) for v in vecs}
    want = {(round(setup.zw, 9), round(setup.zwp, 9)), (1.0, 1.0)}
    assert got == want


def test_lift_norm_one():
    # |N_{K/Q}(u~)| = |u~_w * u~_w'| = 1 and u~/u~' recovers sign * t
    setup = HeckeSetup(make_field(5))
    for t in (1.0, 1.3, 2.0):
        for sign in (1, -1):
            uw, uwp = setup.lift_components(sign, t)
            assert abs(abs(uw * uwp) - 1.0) < 1e-12
            assert abs(uw / uwp - sign * t) < 1e-12


def test_volume_is_t_independent():
    setup = HeckeSetup(make_field(5))
    v1 = setup.lattice_at(1, 1.0).covolume
    for t in (1.3, 2.0):
        assert abs(setup.lattice_at(1, t).covolume - v1) < 1e-10
        assert abs(setup.lattice_at(-1, t).covolume - v1) < 1e-10


def test_lattice_at_domain():
    setup = HeckeSetup(make_field(5))
    with pytest.raises(ValueError):
        setup.lattice_at(1, 0.5)
    with pytest.raises(ValueError):
        setup.lattice_at(2, 1.0)


def test_scaled_lattice_modularity():
    # the evaluator on the scaled lattice rho(u~ A) agrees with the direct
    # sum over the actual scaled points (the scale drops by modularity)
    from heckeis.specialfun import gamma_F
    setup = HeckeSetup(make_field(5))
    lat = setup.lattice_at(1, 1.3)
    ev = EisensteinEvaluator(lat)
    s = 2.5
    via_expansion = ev.ehat_expansion(s, 1e-11)
    via_direct = gamma_F(Q, 2 * s) * ev.e_direct(s, 1e-9)
    assert abs(via_expansion - via_direct) < 1e-8


@pytest.mark.parametrize("d", [5, 3])
def test_integrand_periodicity(d):
    # eps0 generates the stabilizer in t-coordinates for both unit norms and
    # both signs, which the periodic trapezoid rule in log t relies on; the
    # limit-formula integrand h - log|y| is invariant, h alone is not
    setup = HeckeSetup(make_field(d))
    s = 1.7
    for sign in (1, -1):
        for t in (1.0, 1.9):
            ev = setup.evaluator_at(sign, t)
            ev_up = setup.evaluator_at(sign, t * setup.eps0)
            a = ev.ehat_expansion(s, 1e-12)
            b = ev_up.ehat_expansion(s, 1e-12)
            assert abs(a - b) < 1e-9
            h, h_up = ev.h_value(1e-12), ev_up.h_value(1e-12)
            assert abs((h - math.log(abs(ev.y)))
                       - (h_up - math.log(abs(ev_up.y)))) < 1e-9
            assert abs(h - h_up) > 1e-3


def test_rho_star_gives_dual_lattice():
    # dual of rho(u~ A) is rho_star(u~^{-1} A*)
    K = make_field(5)
    setup = HeckeSetup(K)
    t = 1.3
    uw, uwp = setup.lift_components(1, t)
    lat = setup.lattice_at(1, t)
    dual = lat.dual()
    Astar = dual_ideal(K, FracIdeal.unit_ideal(K))
    basis = []
    for g in Astar.z_basis():
        e1, e2 = g.embeddings()
        if setup.zw == g.field.embed(setup.z_K, 1):   # orientation swapped
            e1, e2 = e2, e1
        basis.append(rho_star(K, (e1 / uw, e2 / uwp)))
    expected = OFLattice(Q, z_basis=basis)
    assert dual.same_z_span(expected)


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
    s2 = HeckeSetup(K, FracIdeal.unit_ideal(K).scale(c))
    assert abs(hecke_integral(s1, 2.0, 1e-10)
               - hecke_integral(s2, 2.0, 1e-10)) < 1e-10


# the tori of Q(sqrt 17) and Q(sqrt 19) have periods log eps0 = 8.4 and
# 11.7: unreduced, their nodes near t = eps0 had |y| so small that one
# integral took 27 s, and 403 s before raising
@pytest.mark.parametrize("d", [2, 5, 3, 17, 19])
def test_real_hecke_matches_oracle(d):
    K = make_field(d)
    setup = HeckeSetup(K)
    got = hecke_integral(setup, 2.0, 1e-9)
    want = xi_K_oracle(K, 2.0)
    assert abs(got - want) < 1e-8


def test_unit_index_case_split_is_forced_by_oracle():
    # the zeta oracle at s = 2 pins the measure bookkeeping: over Q the two
    # self-consistent conventions (w_rel, eps0) = (2, eps^4) and (1, eps^2)
    # agree (conjugation symmetry makes the integrand eps^2-periodic), but
    # any mismatched pairing fails loudly
    K = make_field(5)
    setup = HeckeSetup(K)
    want = xi_K_oracle(K, 2.0)
    assert abs(hecke_integral(setup, 2.0, 1e-9) - want) < 1e-8
    # the other self-consistent convention gives the same value
    setup.w_rel, setup.eps0 = 1, math.exp(2 * K.regulator)
    setup.measure = 2 * math.log(setup.eps0)
    assert abs(hecke_integral(setup, 2.0, 1e-9) - want) < 1e-8
    # mismatched pairings are off by a factor 2 either way
    setup.w_rel, setup.eps0 = 2, math.exp(2 * K.regulator)
    setup.measure = 2 * math.log(setup.eps0)
    half = hecke_integral(setup, 2.0, 1e-9)
    assert abs(half - want / 2) < 1e-8 and abs(half - want) > 1e-3
    setup.w_rel, setup.eps0 = 1, math.exp(4 * K.regulator)
    setup.measure = 2 * math.log(setup.eps0)
    double = hecke_integral(setup, 2.0, 1e-9)
    assert abs(double - 2 * want) < 2e-8 and abs(double - want) > 1e-3


def test_complex_s():
    K = make_field(5)
    setup = HeckeSetup(K)
    s = 1.5 + 0.5j
    assert abs(hecke_integral(setup, s, 1e-9) - xi_K_oracle(K, s)) < 1e-8


def test_classical_normalization():
    K = make_field(5)
    setup = HeckeSetup(K)
    got = classical_real_quadratic_integral(setup, 2.0, 1e-9)
    assert abs(got - zeta_K(K, 2.0)) < 1e-8


def unconverged_fields(err) -> dict:
    m = re.fullmatch(r"(.+) did not converge: halvings (\d+), nodes (\d+), "
                     r"last change (\S+) > tol (\S+)", str(err))
    assert m, str(err)
    what, halvings, nodes, change, tol = m.groups()
    return {"what": what, "halvings": int(halvings), "nodes": int(nodes),
            "change": float(change), "tol": float(tol)}


@pytest.mark.parametrize("d", [2, 3])
def test_classical_integral_raises_when_unconverged(monkeypatch, d):
    # an integrand that is not periodic in log t converges only slowly under
    # the trapezoid rule, so with two halvings (8 -> 32 nodes per sign) it
    # must raise, as hecke_integral does, instead of returning the last
    # estimate; the message says how far the quadrature got.  Each level
    # of nodes is one evaluator of array t
    class Oscillating:
        def __init__(self, t):
            self.t = np.asarray(t)

        def ehat_expansion(self, s, tol):
            return np.exp(50j * np.log(self.t))

    monkeypatch.setattr(HeckeSetup, "evaluator_at",
                        lambda self, sign, t: Oscillating(t))
    monkeypatch.setattr(numerics, "MAX_REFINEMENTS", 2)
    setup = HeckeSetup(make_field(d))
    with pytest.raises(ConvergenceError) as info:
        hecke_integral(setup, 2.0, 1e-8)
    fields = unconverged_fields(info.value)
    assert fields["what"] == "torus quadrature"
    assert fields["halvings"] == 2 and fields["nodes"] == 2 * 32
    assert fields["tol"] == 5e-9 and fields["change"] > fields["tol"]
    err = info.value
    assert (err.tol, err.points) == (5e-9, 2 * 32)
    assert err.last_delta > err.tol
    # the step after two halvings of period/8
    assert err.cutoff == math.log(HeckeSetup(make_field(d)).eps0) / 32
    with pytest.raises(ConvergenceError) as info:
        classical_real_quadratic_integral(setup, 2.0, 1e-8)
    fields = unconverged_fields(info.value)
    assert fields["halvings"] == 2 and fields["nodes"] == 2 * 32
    assert fields["change"] > fields["tol"]


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_torus_quadrature_is_a_nested_periodic_trapezoid(monkeypatch, d, tol):
    # exp(cos(2 pi log t / log eps0)) has period log eps0 in log t and
    # integrates to log eps0 * I_0(1) per sign; the trapezoid rule in log t
    # gets it to rounding with 32 nodes per sign and never evaluates a node
    # twice.  Each level of nodes is one evaluator of arrays sign, t
    setup = HeckeSetup(make_field(d))
    period = math.log(setup.eps0)
    calls = []

    class Periodic:
        def __init__(self, t):
            self.t = np.asarray(t)

        def ehat_expansion(self, s, tol):
            return np.exp(np.cos(2 * math.pi * np.log(self.t) / period))

    def evaluator_at(self, sign, t):
        sign, t = np.broadcast_arrays(sign, t)
        calls.extend(zip(sign.tolist(), t.tolist()))
        return Periodic(t)

    monkeypatch.setattr(HeckeSetup, "evaluator_at", evaluator_at)
    got = hecke_integral(setup, 2.0, tol)
    want = 2 * period * i0(1.0) / setup.w_rel
    assert abs(got - want) <= 1e-14 * want
    assert len(set(calls)) == len(calls)
    for sign in (1, -1):
        assert sum(1 for c in calls if c[0] == sign) <= 32


@pytest.mark.parametrize("d", [5, 2, 3])
def test_torus_measure_identity(d):
    m, m2 = torus_measure_identity(HeckeSetup(make_field(d)))
    assert abs(m - m2) < 1e-10


def test_hecke_laurent_residue_is_c_k():
    for d in (5, 2):
        K = make_field(d)
        res, ct = hecke_laurent(HeckeSetup(K), 1e-8)
        assert abs(res - c_F(K)) < 1e-12


def test_relative_klf():
    for d in (5, 2):
        out = relative_klf_check(HeckeSetup(make_field(d)), 1e-8)
        assert out["abs_error"] < 1e-5
        assert abs(out["lhs"] - out["lhs_hecke"]) < 1e-7


def test_relative_klf_requires_real_field():
    with pytest.raises(UnsupportedFieldError):
        relative_klf_check(HeckeSetup(make_field(-1)), 1e-8)


def test_torus_nodes_require_real_field():
    with pytest.raises(UnsupportedFieldError):
        HeckeSetup(make_field(-1)).evaluator_at(1, 1.0)


def test_setup_rejects_rational():
    with pytest.raises(UnsupportedFieldError):
        HeckeSetup(Q)


@pytest.mark.parametrize("d", [19, 22])
def test_hecke_integral_at_s3_stays_above_the_pair_sum_rounding_floor(d):
    # the nodes near t = eps0 have |y| down to 1e-4; unreduced, their pair
    # sums lay below the rounding floor at s = 3 and raised.  The reduced
    # nodes have |y| >= sqrt(3)/2
    K = make_field(d)
    got = hecke_integral(HeckeSetup(K), 3.0, 1e-8)
    assert abs(got - xi_K_oracle(K, 3.0)) < 1e-6


def _ideal_one_plus_sqrt23():
    K = make_field(23)
    return HeckeSetup(K, FracIdeal(K, gen=QuadElement(K, Fraction(1),
                                                      Fraction(1))))


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
    for sign in (1, -1):
        for t in (1.0, 1.37, 2.9, 0.999 * setup.eps0):
            ev = setup.evaluator_at(sign, t)
            zu = setup.z_u(sign, t)
            ref = EisensteinEvaluator(OFLattice(
                Q, setup.ideal_a, DNumber.from_xy(Q, zu.real, zu.imag),
                setup.ideal_b))
            assert ev.lattice is None and (ev.x, ev.y) == (ref.x, ref.y)
            for s in (2.0, 0.3, 1.5 + 0.5j):
                assert ev.ehat_expansion(s, 1e-10) \
                    == ref.ehat_expansion(s, 1e-10)
            assert ev.h_value(1e-10) == ref.h_value(1e-10)
            assert ev.ct(1e-10) == ref.ct(1e-10)


def test_torus_nodes_build_no_lattice_and_no_ideal_data(monkeypatch):
    # the node-independent data (b*, xi(s, Z), norms, volumes) are built
    # once per setup, on its first node
    setup = HeckeSetup(make_field(5))
    setup.evaluator_at(1, 1.0)
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
    assert abs(out["lhs"] - out["lhs_hecke"]) < 1e-7


def _setup_of(which):
    if which == "1+sqrt23":
        return _ideal_one_plus_sqrt23()
    return HeckeSetup(make_field(which))


def _sum_abs(*terms):
    return sum(np.abs(t) for t in terms)


@settings(max_examples=20)
@given(st.sampled_from([2, 3, 5, 13, 19, 23, "1+sqrt23"]),
       st.lists(st.tuples(st.sampled_from([1, -1]),
                          st.floats(0.0, 1.0, exclude_max=True)),
                min_size=1, max_size=6))
@example("1+sqrt23", [(1, 0.0), (-1, 0.999), (1, 0.5)])
@example(19, [(-1, 0.97), (1, 0.9), (1, 0.2)])
def test_batched_nodes_equal_the_nodes_one_at_a_time(which, nodes):
    # a level of nodes is one evaluator of arrays (sign, t), t = eps0^u in
    # [1, eps0); its values equal those of the evaluators of the single
    # nodes up to the order of summation at real s, and within the node
    # tol at complex s, where the Bessel integral runs at the tightest
    # node's tol
    setup = _setup_of(which)
    signs = np.array([sign for sign, _ in nodes])
    ts = setup.eps0 ** np.array([u for _, u in nodes])
    tol = 1e-10
    batch = setup.evaluator_at(signs, ts)
    singles = [setup.evaluator_at(int(sign), float(t))
               for sign, t in zip(signs, ts)]
    assert batch.shape == ts.shape and batch.y_red.shape == ts.shape
    for s in (2.0, 3.0, 0.3, 1.5 + 0.5j):
        s = complex(s)
        got = batch.ehat_expansion(s, tol)
        assert got.shape == ts.shape
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
        ct_mass = abs(ev.zeta_a.laurent_ct(tol)) \
            + CF / 2 * (h_mass + abs(math.log(ev.P)))
        assert abs(g_ct - ev.ct(tol)) <= 1e-14 * ct_mass


@pytest.mark.parametrize("d, s, count", [(5, 2.0, 32), (19, 3.0, 256)])
def test_hecke_integral_evaluates_a_pinned_set_of_nodes(monkeypatch, d, s,
                                                        count):
    # the number of distinct nodes (sign, t) of the nested trapezoid levels;
    # evaluating a level as one batch leaves the levels as they were
    seen = []
    evaluator_at = HeckeSetup.evaluator_at

    def counted(self, sign, t):
        sign, t = np.broadcast_arrays(sign, t)
        seen.extend(zip(sign.tolist(), t.tolist()))
        return evaluator_at(self, sign, t)

    monkeypatch.setattr(HeckeSetup, "evaluator_at", counted)
    K = make_field(d)
    got = hecke_integral(HeckeSetup(K), s, 1e-8)
    assert abs(got - xi_K_oracle(K, s)) < 1e-6
    assert len(set(seen)) == len(seen) == count
