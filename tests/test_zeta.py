import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeis import lattice, zeta
from heckeis.basefield import FracIdeal, QuadElement, dual_ideal, make_field
from heckeis.dalgebra import DNumber, Quaternion
from heckeis.eisenstein import EisensteinEvaluator
from heckeis.errors import EnumerationCapError, PoleError, UnsupportedFieldError
from heckeis.lattice import OFLattice, ball_points
from heckeis.numerics import neville_at_zero
from heckeis.specialfun import upper_incomplete_gamma
from heckeis.zeta import (CompletedZeta, c_F, class_number, completed_zeta,
                          dirichlet_l, gamma_lattice_sum, hurwitz_zeta,
                          kronecker_symbol, partial_zeta_series,
                          riemann_zeta, xi_K_laurent, zeta_K, zeta_K_class)

Q = make_field("Q")
Fi = make_field(-1)
F3 = make_field(-3)
ZZ = FracIdeal.unit_ideal(Q)

EULER_GAMMA = 0.5772156649015328606
CT_XI_Q = EULER_GAMMA / 2 - math.log(2 * math.sqrt(math.pi))   # -0.9769042910


# ---------------------------------------------------------------------------
# Euler-Maclaurin evaluators


def test_riemann_zeta_values():
    assert abs(riemann_zeta(2.0) - math.pi ** 2 / 6) < 1e-13
    assert abs(riemann_zeta(4.0) - math.pi ** 4 / 90) < 1e-13


@pytest.mark.parametrize("s", [1.5 + 0.5j, 0.5 + 3.0j, -0.8, 3.0 - 2.0j])
def test_riemann_zeta_vs_mpmath(s):
    with mp.workdps(25):
        want = complex(mp.zeta(s))
    assert abs(riemann_zeta(s) - want) < 1e-12


@pytest.mark.parametrize("s,a", [(2.3, 0.25), (1.5 + 1.0j, 0.8), (-0.5, 0.4)])
def test_hurwitz_and_derivative_vs_mpmath(s, a):
    v, dv = hurwitz_zeta(s, a, derivative=True)
    with mp.workdps(25):
        want, dwant = complex(mp.zeta(s, a)), complex(mp.zeta(s, a, 1))
    assert abs(v - want) < 1e-12
    assert abs(dv - dwant) < 1e-10


def test_hurwitz_minus_pole_at_one():
    # zeta(s, a) - 1/(s-1) -> -psi(a) as s -> 1
    v = hurwitz_zeta(1.0, 0.5, minus_pole=True)
    with mp.workdps(25):
        want = complex(-mp.digamma(0.5))
    assert abs(v - want) < 1e-12


def test_kronecker_symbol_patterns():
    # chi_-4: period 4 pattern 1, 0, -1, 0
    assert [kronecker_symbol(-4, n) for n in range(1, 9)] \
        == [1, 0, -1, 0, 1, 0, -1, 0]
    # chi_5 is the Legendre symbol mod 5
    assert [kronecker_symbol(5, n) for n in range(1, 6)] == [1, -1, -1, 1, 0]
    assert kronecker_symbol(8, 3) == -1 and kronecker_symbol(8, 7) == 1


def test_dirichlet_l_values():
    with mp.workdps(25):
        catalan = float(mp.catalan)
    assert abs(dirichlet_l(2.0, -4) - catalan) < 1e-13
    assert abs(dirichlet_l(1.0, -4) - math.pi / 4) < 1e-13
    phi = (1 + math.sqrt(5)) / 2
    assert abs(dirichlet_l(1.0, 5) - 2 * math.log(phi) / math.sqrt(5)) < 1e-13


def test_class_numbers():
    assert class_number(Fi) == 1
    assert class_number(make_field(-5)) == 2
    assert class_number(make_field(-23)) == 3
    assert class_number(make_field(5)) == 1
    assert class_number(make_field(2)) == 1


def test_class_number_is_computed_once_per_field(monkeypatch):
    # the oracles ask for it on every call; a second call sums no L(1, chi)
    K = make_field(-23)
    first = class_number(K)

    def no_sum(*args, **kwargs):
        raise AssertionError("dirichlet_l called again")

    monkeypatch.setattr(zeta, "dirichlet_l", no_sum)
    assert class_number(K) == first == 3


# ---------------------------------------------------------------------------
# partial zeta sums


def test_partial_zeta_rational():
    v, tail = partial_zeta_series(Q, ZZ, 2.0, 1e4)
    assert abs(v - math.pi ** 2 / 6) < 1e-9
    assert tail < 1e-3
    # value is independent of the ideal (scaling invariance)
    v2, _ = partial_zeta_series(Q, FracIdeal(Q, gen=Fraction(3, 2)), 2.0, 1e4)
    assert abs(v - v2) < 1e-12


# partial_zeta_series(K, A, s, 2e4) from a sum over both points of each
# +-pair, divided by w
PINNED_PARTIAL_ZETA = [
    (-1, None, 2.0, 1.506703018118186 + 0j),
    (-1, None, 1.5 + 0.5j, 1.4768492038434282 - 0.7484275535465178j),
    (-5, None, 2.0, 1.251211112797373 + 0j),
    (-5, None, 1.5 + 0.5j, 1.1635194307925678 - 0.600368690298926j),
    (-5, (2, 1, 1), 2.0, 0.6043458199144232 + 0j),
    (-5, (2, 1, 1), 1.5 + 0.5j, 0.6386428445805852 - 0.7573254010051019j),
    (5, None, 2.0, 1.1616711902035464 + 0j),
    (5, None, 1.5 + 0.5j, 1.1113142154195053 - 0.3673897052048688j),
]


@pytest.mark.parametrize("d, hnf, s, want", PINNED_PARTIAL_ZETA)
def test_partial_zeta_one_point_per_pair_keeps_the_values(d, hnf, s, want):
    K = make_field(d)
    A = FracIdeal.unit_ideal(K) if hnf is None else FracIdeal.from_hnf(K, *hnf)
    v, _ = partial_zeta_series(K, A, s, 2e4)
    assert abs(v - want) <= 1e-13 * abs(want)


def test_partial_zeta_gaussian_field():
    OK = FracIdeal.unit_ideal(Fi)
    v, _ = partial_zeta_series(Fi, OK, 2.0, 2e5)
    assert abs(v - 1.5067030099229854) < 1e-6
    # scaling the ideal leaves the value unchanged (up to the independent
    # truncation residuals of the two sums)
    c = QuadElement(Fi, Fraction(2), Fraction(1))
    v2, _ = partial_zeta_series(Fi, OK.scale(c), 2.0, 2e5)
    assert abs(v - v2) < 1e-7


def test_partial_zeta_genus_classes():
    K = make_field(-5)
    A = FracIdeal.from_hnf(K, 2, 1, 1)
    for ideal, which in [(A, "nonprincipal"), (FracIdeal.unit_ideal(K), "principal")]:
        lat_val, _ = partial_zeta_series(K, ideal, 3.0, 4e4)
        em_val = zeta_K_class(K, ideal, 3.0)
        assert abs(lat_val - em_val) < 1e-9, which
    # the two classes sum to the full Dedekind zeta
    tot = zeta_K_class(K, A, 3.0) + zeta_K_class(K, None, 3.0)
    assert abs(tot - zeta_K(K, 3.0)) < 1e-13


@pytest.mark.parametrize("d, s, cutoff", [
    *[(d, s, 1e4) for d in (2, 3, 5, 6, 7, 13) for s in (2.0, 3.0)],
    (46, 2.0, 100.0),        # eps ~ 4.9e4: the ball scales with eps, not eps^2
])
def test_partial_zeta_real_quadratic(d, s, cutoff):
    # every unit orbit counted once, also rational alpha and the orbits on
    # the edge of the fundamental domain (N(eps) = +1 for d = 3, 6, 7)
    K = make_field(d)
    v, tail = partial_zeta_series(K, FracIdeal.unit_ideal(K), s, cutoff)
    assert abs(v - zeta_K(K, s)) <= tail


@pytest.mark.parametrize("field, cutoff", [(Q, 1e4), (Fi, 2e4),
                                           (make_field(5), 2e3)])
def test_partial_zeta_real_s_sums_in_real_arithmetic(field, cutoff,
                                                     monkeypatch):
    dtypes = []

    def typed(f):
        def g(x, *args, **kw):
            dtypes.append(np.asarray(x).dtype)
            return f(x, *args, **kw)
        return g

    ideal = FracIdeal.unit_ideal(field)
    with monkeypatch.context() as m:
        m.setattr(np, "exp", typed(np.exp))
        m.setattr(np, "power", typed(np.power))
        got, _ = partial_zeta_series(field, ideal, 1.5, cutoff)
    assert dtypes and all(d == np.float64 for d in dtypes)
    # the same sums by the complex formula
    monkeypatch.setattr(zeta, "_power_sum", lambda n, s: complex(
        np.sum(np.exp(-s * np.log(n)))))
    want, _ = partial_zeta_series(field, ideal, 1.5, cutoff)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_partial_zeta_requires_convergence_region():
    with pytest.raises(ValueError):
        partial_zeta_series(Q, ZZ, 1.0, 1e4)


def test_zeta_k_class_unsupported():
    with pytest.raises(UnsupportedFieldError):
        zeta_K_class(make_field(-23), None, 2.0)


# ---------------------------------------------------------------------------
# the shared incomplete-gamma lattice sum


def _phi_case(F=F3):
    ideal = FracIdeal.unit_ideal(F)
    return lambda: CompletedZeta(F, ideal).value(0.5 + 0.9j, 1e-10)


def _phi_q_case():
    return _phi_case(Q)


def _psi_case():
    lat = OFLattice(Q, ZZ, DNumber.from_xy(Q, 0.3, 1.7), ZZ)
    return lambda: EisensteinEvaluator(lat).ehat_lattice(0.3, 1e-10)


@pytest.mark.parametrize("case", [_phi_case, _phi_q_case, _psi_case])
def test_gamma_lattice_sum_evaluates_each_parameter_once(case, monkeypatch):
    seen, sums = [], []
    gamma = zeta.upper_incomplete_gamma
    lattice_sum, enumerate_ = zeta.gamma_lattice_sum, zeta.ball_points

    def counted(nu, x, tol):
        seen.extend(np.ravel(x))
        return gamma(nu, x, tol=tol)

    def recorded(nu, M, c, *rest):
        sums.append((M, c, []))
        return lattice_sum(nu, M, c, *rest)

    def enumerated(M, r, *args, **kwargs):
        sums[-1][2].append(r)
        return enumerate_(M, r, *args, **kwargs)

    monkeypatch.setattr(zeta, "upper_incomplete_gamma", counted)
    monkeypatch.setattr(zeta, "gamma_lattice_sum", recorded)
    monkeypatch.setattr(zeta, "ball_points", enumerated)
    case()()
    # the value is two sums (the lattice and its dual); each enumerates
    # once, in one ball_points call, and evaluates every parameter up to
    # its cutoff exactly once
    assert len(sums) == 2
    want = []
    for M, c, radii in sums:
        assert len(radii) == 1
        xs = c * np.concatenate([np.zeros(0), *enumerate_(M, radii[0])])
        assert xs.size and xs.max() <= c * radii[0] ** 2 * (1 + 1e-12)
        want.append(xs)
    want = np.sort(np.concatenate(want))
    assert len(seen) == want.size
    np.testing.assert_allclose(np.sort(seen), want, rtol=1e-13)


def test_gamma_lattice_sum_calls_gamma_once_per_array(monkeypatch):
    calls, yielded = [], []
    gamma = zeta.upper_incomplete_gamma
    enumerate_ = zeta.ball_points

    def counted(nu, x, tol):
        calls.append(np.array(x))
        return gamma(nu, x, tol=tol)

    def arrays(*args, **kwargs):
        for r2 in enumerate_(*args, **kwargs):
            yielded.append(math.pi * r2)
            yield r2

    # the parameters pi m^2 of Z come one array per point
    monkeypatch.setattr(lattice, "_CHUNK_POINTS", 1)
    monkeypatch.setattr(zeta, "upper_incomplete_gamma", counted)
    monkeypatch.setattr(zeta, "ball_points", arrays)
    got = gamma_lattice_sum(-1.5 + 0.4j, np.eye(1), math.pi, 1e-10, 1.0)
    assert len(calls) == len(yielded) >= 2
    for x, xs in zip(calls, yielded):
        np.testing.assert_array_equal(x, xs)
    ks = np.concatenate(yielded)
    want = sum(k ** (1.5 - 0.4j) * gamma(-1.5 + 0.4j, k) for k in ks)
    assert abs(got - want) < 1e-13 * abs(want)


def test_gamma_lattice_sum_reports_how_far_it_got(monkeypatch):
    # a prefactor of 1e300 on a fine lattice asks for a ball whose
    # coefficient box holds about 1e17 points: EnumerationCapError names
    # that box before anything is enumerated, evaluated or allocated
    M, c = 1e-3 * np.eye(4), 2 * math.pi

    def forbidden(*args, **kwargs):
        raise AssertionError("evaluated past the cap")

    monkeypatch.setattr(zeta, "upper_incomplete_gamma", forbidden)
    cut = zeta._tail_cutoff(1.0, M, c, 1e-10, 1e300)
    side = 2 * math.floor(1e3 * math.sqrt(cut / c) + 1e-9) + 1
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError) as info:
            gamma_lattice_sum(1.0, M, c, 1e-10, 1e300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"enumeration box of {side ** 4} points" in str(info.value)
    assert peak < 1 << 20


@given(d=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2 ** 32 - 1),
       a=st.floats(-3.0, 6.0), t=st.floats(-60.0, 60.0),
       log_scale=st.floats(-3.0, 6.0), log_tol=st.floats(-12.0, -6.0))
@settings(max_examples=40)
def test_gamma_lattice_sum_cutoff_bounds_its_tail(d, seed, a, t, log_scale,
                                                  log_tol):
    # the scaled sum over (X, X + 15] beyond the cutoff X, on a random skewed
    # basis, is at most tol/10: the proven tail bound holds
    rng = np.random.default_rng(seed)
    M = np.diag(rng.uniform(0.5, 2.0, d)) \
        + np.triu(rng.uniform(-2.0, 2.0, (d, d)), 1)
    c = math.pi if d == 1 else float(rng.choice([math.pi, 2 * math.pi]))
    nu, scale, tol = complex(a, t), 10.0 ** log_scale, 10.0 ** log_tol
    X = zeta._tail_cutoff(a, M, c, tol, scale)
    beyond = 0.0
    for r2 in ball_points(M, math.sqrt((X + 15) / c), r_min=math.sqrt(X / c)):
        x = c * r2
        beyond += float(np.sum(np.abs(np.exp(-nu * np.log(x))
                                      * upper_incomplete_gamma(nu, x))))
    assert scale * beyond <= tol / 10


# ---------------------------------------------------------------------------
# ideal theta and duality


def ideal_theta(F, ideal, t):
    """sum over alpha in the ideal of prod_v exp(-n_v pi |t alpha_v|^2) (real
    t), from the Gaussian parameters x = n_v pi |alpha|^2 that theta_split
    sums, one alpha of each +-pair: 1 + 2 sum exp(-t^2 x)."""
    c = math.pi if F.is_rational else 2 * math.pi
    cut = (math.log(1e13) + 10.0) / (t * t)
    return 1.0 + 2.0 * sum(
        float(np.sum(np.exp(-t * t * (c * r2))))
        for r2 in ball_points(zeta._ideal_embedding_matrix(ideal),
                              math.sqrt(cut / c)))


def test_ideal_theta_jacobi_value():
    # sum over Z of exp(-pi n^2) = 1.086434811213308
    assert abs(ideal_theta(Q, ZZ, 1.0) - 1.0864348112133080) < 1e-12


@pytest.mark.parametrize("F,gen", [
    (Q, Fraction(3, 2)), (Fi, None), (F3, None)])
def test_ideal_theta_poisson_identity(F, gen):
    ideal = FracIdeal.unit_ideal(F) if gen is None else FracIdeal(F, gen=gen)
    dual = dual_ideal(F, ideal)
    V = math.sqrt(abs(F.discriminant)) * float(ideal.absolute_norm())
    for t in (0.8, 1.3):
        nt = t if F.is_rational else t * t
        lhs = ideal_theta(F, ideal, t)
        rhs = ideal_theta(F, dual, 1.0 / t) / (V * nt)
        assert abs(lhs - rhs) < 1e-11


# ---------------------------------------------------------------------------
# the completed zeta


def test_xi_q_at_two():
    cz = completed_zeta(Q, ZZ)
    assert abs(cz.value(2.0) - math.pi / 6) < 1e-12


def test_xi_vs_dirichlet_oracle():
    cz = completed_zeta(Q, ZZ)
    for s in (1.5, 2.0, 3.0):
        oracle = math.pi ** (-s / 2) * complex_gamma_half(s) * riemann_zeta(s)
        assert abs(cz.value(s) - oracle) < 1e-9
    czi = completed_zeta(Fi, FracIdeal.unit_ideal(Fi))
    from heckeis.specialfun import gamma_F
    for s in (1.5, 2.0, 3.0):
        oracle = 4 ** (s / 2) * gamma_F(Fi, s) * zeta_K(Fi, s)
        assert abs(czi.value(s) - oracle) < 1e-9


def complex_gamma_half(s):
    from heckeis.specialfun import complex_gamma
    return complex_gamma(s / 2)


def test_xi_matches_partial_zeta_series_at_two():
    # mandatory self-check: xi(2, a) = d^{s/2} Gamma_F(2) * (the raw partial
    # zeta sum), to 1e-9
    from heckeis.specialfun import gamma_F
    cz = completed_zeta(Q, ZZ)
    pz, _ = partial_zeta_series(Q, ZZ, 2.0, 1e4)
    assert abs(cz.value(2.0) - gamma_F(Q, 2.0) * pz) < 1e-9
    OK = FracIdeal.unit_ideal(Fi)
    czi = completed_zeta(Fi, OK)
    pzi, _ = partial_zeta_series(Fi, OK, 2.0, 2e6)
    assert abs(czi.value(2.0) - 4.0 * gamma_F(Fi, 2.0) * pzi) < 1e-9


def test_xi_residue_richardson():
    hs = [(1.0 + 10.0 ** (-k)) - 1.0 for k in range(2, 6)]
    for F, ideal in [(Q, ZZ), (Fi, FracIdeal.unit_ideal(Fi)),
                     (F3, FracIdeal.unit_ideal(F3)),
                     (Q, FracIdeal(Q, gen=Fraction(5, 3))),
                     (Fi, FracIdeal(Fi, gen=QuadElement(Fi, Fraction(1),
                                                        Fraction(1))))]:
        # the residue is C_F independently of the ideal
        cz = completed_zeta(F, ideal)
        vals = [h * cz.value(1 + h) for h in hs]
        res = neville_at_zero(hs, vals)
        assert abs(res - c_F(F)) < 1e-7


def test_xi_functional_equation_strip():
    # the Gaussian ring of integers at a fixed strip point
    czO = completed_zeta(Fi, FracIdeal.unit_ideal(Fi))
    czOd = completed_zeta(Fi, dual_ideal(Fi, FracIdeal.unit_ideal(Fi)))
    s0 = 0.3 + 0.2j
    assert abs(czO.value(s0) - czOd.value(1 - s0)) < 1e-12
    rng = random.Random(9)
    for F, ideal in [(Q, FracIdeal(Q, gen=Fraction(2, 3))),
                     (Fi, FracIdeal(Fi, gen=QuadElement(Fi, Fraction(1), Fraction(1))))]:
        cz = completed_zeta(F, ideal)
        czd = completed_zeta(F, dual_ideal(F, ideal))
        for _ in range(5):
            s = complex(rng.uniform(-1, 2), rng.uniform(-2, 2))
            if min(abs(s), abs(s - 1), abs(1 - s), abs(-s)) < 0.05:
                continue
            assert abs(cz.value(s) - czd.value(1 - s)) < 1e-10


def test_xi_pole_errors():
    cz = completed_zeta(Q, ZZ)
    with pytest.raises(PoleError):
        cz.value(1.0 + 1e-10)
    with pytest.raises(PoleError):
        cz.value(1e-9)


@pytest.mark.parametrize("F", [Q, Fi])
@pytest.mark.parametrize("s", [1e-9, 1 + 1e-9j])
def test_theta_split_pole_errors_name_the_pole_and_its_residue(F, s):
    # xi has residues -C_F, C_F at s = 0, 1 and Ehat -C_F/2, C_F/2
    pole, sign = (0.0, -1) if abs(s) < 0.5 else (1.0, 1)
    z = DNumber.from_xy(Q, 0.3, 1.7) if F.is_rational \
        else DNumber(F, (Quaternion(0.3 + 0.2j, 0.8 + 0.4j),))
    O = FracIdeal.unit_ideal(F)
    ev = EisensteinEvaluator(OFLattice(F, O, z, O))
    for run, residue in [(completed_zeta(F, O).value, c_F(F)),
                         (ev.ehat_lattice, c_F(F) / 2)]:
        with pytest.raises(PoleError) as info:
            run(s)
        assert info.value.location == pole
        assert info.value.residue == pytest.approx(sign * residue, rel=1e-15)


# xi(s, a) of an ideal, and Ehat(L, s) of the lattice a z + O_F at
# s = 0.3 + 0.5j and 1.6 with its constant term at s = 1 through the
# lattice route, each to 1e-13 relative
PINNED_XI = [
    (Q, FracIdeal(Q, gen=Fraction(3, 2)), 0.3 + 0.7j,
     -1.2086044064688175 + 0.4925420064671889j),
    (Q, ZZ, 2.5, 0.2907169104064716),
    (Fi, FracIdeal(Fi, gen=QuadElement(Fi, Fraction(1), Fraction(1))),
     1.7 - 0.4j, 0.982043582157309 + 0.7532713779039693j),
    (F3, FracIdeal.unit_ideal(F3), -0.6 + 0.2j,
     1.012766004457627 + 0.441607676526364j)]
PINNED_LATTICE = [
    (Q, 1, 0.3, 1.7, -0.7726613769738826 + 0.3947537606858601j,
     0.6830433276965702, -0.35211469424213077),
    (Fi, 1, 0.3 + 0.2j, 0.8 + 0.4j, -1.1473944987227875 + 0.6140984796727j,
     1.1923271173599628, -0.4718558444748171),
    (F3, 2, -0.1 + 0.4j, 1.1 - 0.3j,
     0.4837563509344094 + 0.24995985269883758j, 3.794968637720501,
     1.363934089610317)]


def test_theta_split_values_are_pinned():
    for F, ideal, s, want in PINNED_XI:
        got = completed_zeta(F, ideal).value(s)
        assert abs(got - want) <= 1e-13 * abs(want)
    for F, gen, x, y, at_s, at_16, ct in PINNED_LATTICE:
        z = DNumber.from_xy(F, x, y) if F.is_rational \
            else DNumber(F, (Quaternion(x, y),))
        ev = EisensteinEvaluator(OFLattice(
            F, FracIdeal(F, gen=Fraction(gen)), z, FracIdeal.unit_ideal(F)))
        for got, want in [(ev.ehat_lattice(0.3 + 0.5j), at_s),
                          (ev.ehat_lattice(1.6), at_16),
                          (ev.ct_lattice(), ct)]:
            assert abs(got - want) <= 1e-13 * abs(want)


def test_xi_laurent_ct_rational():
    cz = completed_zeta(Q, ZZ)
    assert abs(cz.laurent_ct() - CT_XI_Q) < 1e-12
    # numerical-limit oracle
    hs = [(1.0 + 10.0 ** (-k)) - 1.0 for k in range(2, 6)]
    vals = [cz.value(1 + h) - c_F(Q) / h for h in hs]
    assert abs(neville_at_zero(hs, vals) - cz.laurent_ct()) < 1e-9


def test_xi_laurent_ct_is_cached_per_tol(monkeypatch):
    # a second call with the same tol sums no theta split again; another
    # tol does
    cz = CompletedZeta(Q, FracIdeal(Q, gen=Fraction(3)))
    calls = []
    split_ct = zeta.theta_split_ct

    def counted(*args):
        calls.append(args)
        return split_ct(*args)

    monkeypatch.setattr(zeta, "theta_split_ct", counted)
    first = cz.laurent_ct(1e-10)
    assert len(calls) == 1
    assert cz.laurent_ct(1e-10) == first and len(calls) == 1
    assert abs(cz.laurent_ct(1e-12) - first) < 1e-9 and len(calls) == 2


def test_xi_laurent_ct_gaussian():
    cz = completed_zeta(Fi, FracIdeal.unit_ideal(Fi))
    hs = [(1.0 + 10.0 ** (-k)) - 1.0 for k in range(2, 6)]
    vals = [cz.value(1 + h) - c_F(Fi) / h for h in hs]
    assert abs(neville_at_zero(hs, vals) - cz.laurent_ct()) < 1e-8


def test_xi_scaling_invariance():
    # xi(s, c a) = xi(s, a): the zeta depends only on the ideal class and the
    # V-dependence cancels
    cz1 = completed_zeta(Q, ZZ)
    cz2 = completed_zeta(Q, FracIdeal(Q, gen=Fraction(5, 2)))
    assert abs(cz1.value(2.0) - cz2.value(2.0)) < 1e-12
    c = QuadElement(Fi, Fraction(1), Fraction(2))
    OK = FracIdeal.unit_ideal(Fi)
    czi1 = completed_zeta(Fi, OK)
    czi2 = completed_zeta(Fi, OK.scale(c))
    assert abs(czi1.value(2.0) - czi2.value(2.0)) < 1e-11


def test_completed_zeta_cache_keys_on_the_ideal():
    # one evaluator per ideal, however its generator is written
    two = completed_zeta(Q, FracIdeal(Q, gen=2))
    assert completed_zeta(Q, FracIdeal(Q, gen=-2)) is two
    assert completed_zeta(Q, FracIdeal(Q, gen=3)) is not two
    for F in (Fi, F3):
        c = QuadElement(F, Fraction(1), Fraction(2))
        unit = QuadElement(F, Fraction(0), Fraction(1))   # i, or a 6th root
        assert unit.norm() == 1
        cz = completed_zeta(F, FracIdeal(F, gen=c))
        assert completed_zeta(F, FracIdeal(F, gen=c * unit)) is cz
        assert completed_zeta(F, FracIdeal(F, gen=c.conj())) is not cz


def _clear_xi_caches():
    for cache in (completed_zeta, CompletedZeta.value, CompletedZeta.laurent_ct):
        cache.cache_clear()


def test_completed_zeta_caches_are_bounded_lru(monkeypatch):
    # the theta split is stubbed out (a new object per call): only the
    # bookkeeping of the two caches is tested, which start and end empty so
    # that no stubbed value outlives the test
    monkeypatch.setattr(zeta, "theta_split", lambda F, s, *rest: s + 0j)
    _clear_xi_caches()
    try:
        half = FracIdeal(Q, gen=Fraction(1, 2))
        size = zeta._CACHE_SIZE
        cz = completed_zeta(Q, ZZ)
        early = completed_zeta(Q, half)
        hot, cold = cz.value(2.0), cz.value(3.0)
        assert cz.value(3.0) is cold
        for i in range(10_000):
            cz.value(4.0 + i * 1e-3)
            completed_zeta(Q, FracIdeal(Q, gen=Fraction(i + 2)))
            if i % 97 == 0:
                # used again and again, so never the least recently used
                assert cz.value(2.0) is hot
                assert completed_zeta(Q, ZZ) is cz
        assert CompletedZeta.value.cache_info().currsize <= size
        assert completed_zeta.cache_info().currsize <= size
        # the least recently used entries were evicted and are rebuilt
        assert cz.value(3.0) is not cold
        assert completed_zeta(Q, half) is not early
    finally:
        _clear_xi_caches()


def test_xi_rejects_real_quadratic():
    with pytest.raises(UnsupportedFieldError):
        CompletedZeta(make_field(5), FracIdeal.unit_ideal(make_field(5)))


def test_c_f_values():
    assert abs(c_F(Q) - 1.0) < 1e-15
    assert abs(c_F(Fi) - math.pi / 2) < 1e-15
    assert abs(c_F(F3) - math.pi / 3) < 1e-15


def test_xi_k_laurent_residues():
    for d in (5, 2):
        K = make_field(d)
        res, ct = xi_K_laurent(K)
        assert abs(res - c_F(K)) < 1e-12
    with pytest.raises(UnsupportedFieldError):
        xi_K_laurent(make_field(-5))
