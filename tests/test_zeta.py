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
from heckeis.basefield import (FracIdeal, QuadElement, dual_ideal,
                               is_squarefree, make_field)
from heckeis.dalgebra import DNumber
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


# shifts of the Hurwitz kernel: the smallest residue 1/|D| of the decks'
# largest discriminant 92, and points across (0, 1]
SHIFTS = np.array([0.01, 1 / 92, 0.05, 0.2, 0.5, 0.77, 0.9, 1.0])


@pytest.mark.parametrize("s", [0.0, 0.3, 0.5j, 0.5 + 8j, 1.5 + 0.5j, 2.0,
                               2 + 5j, 3.0, 4 - 8j])
def test_hurwitz_kernel_on_arrays_vs_mpmath(s):
    # the range the docstring claims: 0 <= Re s <= 4, |Im s| <= 8, value
    # and derivative within 5e-14 of the larger of 1 and their size
    v, dv = hurwitz_zeta(s, SHIFTS, derivative=True)
    assert v.shape == dv.shape == SHIFTS.shape
    with mp.workdps(30):
        for a, x, dx in zip(SHIFTS.tolist(), v, dv):
            w = complex(mp.zeta(s, a))
            dw = complex(mp.zeta(s, a, 1))
            assert abs(x - w) <= 5e-14 * max(1, abs(w)), (s, a)
            assert abs(dx - dw) <= 5e-14 * max(1, abs(dw)), (s, a)


@pytest.mark.parametrize("s", [1.0, 1 + 1e-9, 1.001, 1.0296, 1.0298,
                               0.9702 + 0.001j, 0.3 + 2j])
def test_hurwitz_kernel_minus_pole_vs_mpmath(s):
    # the Taylor series of (e^z - 1)/z serves |s - 1| log 29 <= 0.1 (up
    # to s = 1.0296), expm1 the rest: both sides of the switch meet 5e-14
    v, dv = hurwitz_zeta(s, SHIFTS, derivative=True, minus_pole=True)
    # 50 digits: the references cancel 1/(s-1)^2 near s = 1, and at s = 1
    # the central difference of step 1e-15 cancels 1/h
    with mp.workdps(50):
        for a, x, dx in zip(SHIFTS.tolist(), v, dv):
            def f(t):
                return mp.zeta(t, a) - 1 / (t - 1)
            if s == 1.0:
                h = mp.mpf(10) ** -15
                w, dw = -mp.digamma(a), (f(1 + h) - f(1 - h)) / (2 * h)
            else:
                sm = mp.mpmathify(s)
                w, dw = f(sm), mp.zeta(sm, a, 1) + 1 / (sm - 1) ** 2
            w, dw = complex(w), complex(dw)
            assert abs(x - w) <= 5e-14 * max(1, abs(w)), (s, a)
            assert abs(dx - dw) <= 5e-14 * max(1, abs(dw)), (s, a)


@settings(max_examples=60, deadline=None)
@given(re=st.floats(0, 4), im=st.sampled_from([0.0, 0.5, -3.0, 8.0]),
       shifts=st.lists(st.floats(0.005, 1), min_size=1, max_size=12),
       derivative=st.booleans(), minus_pole=st.booleans())
def test_hurwitz_kernel_array_equals_each_shift_alone(re, im, shifts,
                                                      derivative, minus_pole):
    s = complex(re, im)
    if not minus_pole and abs(s - 1) < 1e-6:
        s += 0.5
    rows = hurwitz_zeta(s, np.array(shifts), derivative, minus_pole)
    rows = rows if derivative else (rows,)
    for i, a in enumerate(shifts):
        alone = hurwitz_zeta(s, a, derivative, minus_pole)
        alone = alone if derivative else (alone,)
        assert all(type(x) is complex for x in alone)
        assert [row[i] for row in rows] == list(alone)


def _l_mpmath(s, D):
    """L(s, chi_D) and L'(s, chi_D) at the working precision, from mpmath's
    Hurwitz zetas over the residues; at s = 1 the value from -psi and the
    derivative as a central difference of step 1e-12 (the Hurwitz poles
    cancel in the character sum)."""
    q = abs(D)
    terms = [(c, mp.mpf(a) / q) for a in range(1, q + 1)
             if (c := kronecker_symbol(D, a))]

    def L(t, k=0):
        return mp.power(q, -t) * mp.fsum(c * mp.zeta(t, x, k)
                                         for c, x in terms)
    if s == 1:
        h = mp.mpf(10) ** -12
        return (-mp.fsum(c * mp.digamma(x) for c, x in terms) / q,
                (L(1 + h) - L(1 - h)) / (2 * h))
    s = mp.mpmathify(s)
    return L(s), L(s, 1) - mp.log(q) * L(s)


@pytest.mark.parametrize("D", [8, 12, 5, 24, 28, 44, 13, 56, 21, 92,
                               -3, -4, -7, -20])
def test_dirichlet_l_and_derivative_vs_mpmath(D):
    # the torus deck's discriminants and four imaginary ones; worst
    # measured 2.6e-14 (value, D = -3 at 0.5 + 8i) and 1.1e-15 absolute
    # (derivative, |L'(3, chi_24)| = 0.0045)
    for s in (2.0, 3.0, 1.5 + 0.5j, 0.3, 1.0, 0.5 + 8j):
        v, dv = dirichlet_l(s, D, derivative=True)
        assert v == dirichlet_l(s, D)
        with mp.workdps(40 if s == 1 else 20):
            w, dw = map(complex, _l_mpmath(s, D))
        assert abs(v - w) <= 1e-13 * abs(w), (D, s)
        assert abs(dv - dw) <= 1e-13 * max(1, abs(dw)), (D, s)


# the class numbers != 1 of Q(sqrt d), d < 200 squarefree
CLASS_NUMBERS = {
    10: 2, 15: 2, 26: 2, 30: 2, 34: 2, 35: 2, 39: 2, 42: 2, 51: 2, 55: 2,
    58: 2, 65: 2, 66: 2, 70: 2, 74: 2, 78: 2, 79: 3, 82: 4, 85: 2, 87: 2,
    91: 2, 95: 2, 102: 2, 105: 2, 106: 2, 110: 2, 111: 2, 114: 2, 115: 2,
    119: 2, 122: 2, 123: 2, 130: 4, 138: 2, 142: 3, 143: 2, 145: 4, 146: 2,
    154: 2, 155: 2, 159: 2, 165: 2, 170: 4, 174: 2, 178: 2, 182: 2, 183: 2,
    185: 2, 186: 2, 187: 2, 190: 2, 194: 2, 195: 4}


def test_class_numbers_of_the_scan_fields():
    # the fields the 71-field scan of the torus integral draws from (its 68
    # of class number one below 200, and 241, 409, 601), and -5, -23
    ds = [d for d in range(2, 200) if is_squarefree(d)] + [241, 409, 601]
    got = {d: class_number(make_field(d)) for d in ds + [-5, -23]}
    want = {d: CLASS_NUMBERS.get(d, 1) for d in ds}
    assert got == {**want, -5: 2, -23: 3}
    assert sum(h == 1 for h in want.values()) == 71


def test_dirichlet_l_builds_its_character_table_once(monkeypatch):
    first = dirichlet_l(1.5 + 0.5j, 92, derivative=True)

    def no_symbol(*args):
        raise AssertionError("kronecker_symbol called again")

    monkeypatch.setattr(zeta, "kronecker_symbol", no_symbol)
    assert dirichlet_l(1.5 + 0.5j, 92, derivative=True) == first


def test_character_table_is_read_only():
    shifts, chi = zeta._character_table(-4)
    assert shifts.tolist() == [1 / 4, 3 / 4] and chi.tolist() == [1, -1]
    for arr in (shifts, chi):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ---------------------------------------------------------------------------
# partial zeta sums


def test_partial_zeta_rational():
    v, tail = partial_zeta_series(Q, ZZ, 2.0, 1e4)
    assert abs(v - math.pi ** 2 / 6) < 1e-9
    assert tail < 1e-3
    # value is independent of the ideal (scaling invariance)
    v2, _ = partial_zeta_series(Q, FracIdeal(Q, gen=Fraction(3, 2)), 2.0, 1e4)
    assert abs(v - v2) < 1e-12


def test_partial_zeta_rational_is_chunked_and_capped():
    # over Q the sum runs over ball_points' d = 1 path: a cutoff of 1e9
    # exceeds ENUM_POINT_CAP and raises before the 1e9 terms are allocated
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError):
            partial_zeta_series(Q, ZZ, 2.0, 1e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# partial_zeta_series(K, A, s, 2e4) from a sum over both points of each
# +-pair, divided by w
PINNED_PARTIAL_ZETA = [
    (-1, None, 2.0, 1.506703018118186 + 0j),
    (-1, None, 1.5 + 0.5j, 1.4768492038434282 - 0.7484275535465178j),
    (-5, None, 2.0, 1.251211112797373 + 0j),
    (-5, None, 1.5 + 0.5j, 1.1635194307925678 - 0.600368690298926j),
    (-5, (2, 1, 1), 2.0, 0.6043458199144232 + 0j),
    (-5, (2, 1, 1), 1.5 + 0.5j, 0.6386428445805852 - 0.7573254010051019j),
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
    v2, _ = partial_zeta_series(Fi, FracIdeal(Fi, gen=c), 2.0, 2e5)
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


def test_partial_zeta_rejects_real_quadratic():
    K = make_field(5)
    with pytest.raises(UnsupportedFieldError):
        partial_zeta_series(K, FracIdeal.unit_ideal(K), 2.0, 1e4)


@pytest.mark.parametrize("field, cutoff", [(Q, 1e4), (Fi, 2e4)])
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


@pytest.mark.parametrize("field, cutoff", [
    (Q, 0.5), (Q, 0), (Q, -1), (Q, math.nan), (Q, math.inf),
    (Fi, 0), (Fi, -1), (Fi, math.nan), (Fi, math.inf), (Fi, -math.inf)])
def test_partial_zeta_rejects_a_bad_cutoff(field, cutoff, monkeypatch):
    # named as the cutoff, before anything is enumerated: not a math domain
    # error from log, nor an EnumerationCapError about an infinite box
    monkeypatch.setattr(zeta, "ball_points", None)
    with pytest.raises(ValueError, match="cutoff") as exc:
        partial_zeta_series(field, FracIdeal.unit_ideal(field), 2.0, cutoff)
    assert type(exc.value) is ValueError


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
    seen, sums = {}, []
    gamma = zeta.upper_incomplete_gamma
    lattice_sum, enumerate_ = zeta.gamma_lattice_sum, zeta.ball_points

    def counted(nu, x, tol):
        seen.setdefault(nu, []).extend(np.ravel(x))
        return gamma(nu, x, tol=tol)

    def recorded(nus, M, c, *rest):
        sums.append((nus, M, c, []))
        return lattice_sum(nus, M, c, *rest)

    def enumerated(M, r, *args, **kwargs):
        sums[-1][3].append(r)
        return enumerate_(M, r, *args, **kwargs)

    monkeypatch.setattr(zeta, "upper_incomplete_gamma", counted)
    monkeypatch.setattr(zeta, "gamma_lattice_sum", recorded)
    monkeypatch.setattr(zeta, "ball_points", enumerated)
    case()()
    # the value is one sum of both halves over the lattice at covolume 1,
    # whose dual is a turned copy of it: it enumerates once, in one
    # ball_points call, and evaluates every parameter up to its cutoff
    # exactly once for each of its two orders
    assert len(sums) == 1
    (nus, M, c, radii), = sums
    assert len(nus) == 2 and len(radii) == 1
    xs = c * np.concatenate([np.zeros(0), *enumerate_(M, radii[0])])
    assert xs.size and xs.max() <= c * radii[0] ** 2 * (1 + 1e-12)
    assert set(seen) == set(nus)
    for nu in nus:
        np.testing.assert_allclose(np.sort(seen[nu]), np.sort(xs), rtol=1e-13)


def test_lattice_route_at_covolume_9e4_lists_few_arguments(monkeypatch):
    # Q(sqrt-7), a = (100), z = (0.3+0.1i) + (1.1+0.2i)j: V = 8.75e4.
    # Summed at their own covolumes the dual's sum listed 49,254,852
    # Mellin arguments (4.5 s); at one covolume the pair lists 4,136
    F = make_field(-7)
    lat = OFLattice(F, FracIdeal(F, gen=QuadElement(F, Fraction(100),
                                                    Fraction(0))),
                    DNumber.from_xy(F, 0.3 + 0.1j, 1.1 + 0.2j),
                    FracIdeal.unit_ideal(F))
    assert lat.covolume == pytest.approx(8.75e4, rel=1e-14)
    listed, gamma = [], zeta.upper_incomplete_gamma

    def counted(nu, x, tol):
        listed.append(np.size(x))
        return gamma(nu, x, tol=tol)

    monkeypatch.setattr(zeta, "upper_incomplete_gamma", counted)
    EisensteinEvaluator(lat).ehat_lattice(1.5, 1e-10)
    assert 0 < sum(listed) <= 5_000


def test_gamma_lattice_sum_calls_gamma_once_per_array(monkeypatch):
    calls, yielded = [], []
    gamma = zeta.upper_incomplete_gamma
    enumerate_ = zeta.ball_points

    def counted(nu, x, tol):
        calls.append((nu, np.array(x)))
        return gamma(nu, x, tol=tol)

    def arrays(*args, **kwargs):
        for r2 in enumerate_(*args, **kwargs):
            yielded.append(math.pi * r2)
            yield r2

    # the parameters pi m^2 of Z come one array per point, each taken by
    # both orders in turn
    monkeypatch.setattr(lattice, "_CHUNK_POINTS", 1)
    lattice._BALLS.clear()
    monkeypatch.setattr(zeta, "upper_incomplete_gamma", counted)
    monkeypatch.setattr(zeta, "ball_points", arrays)
    nus = (-1.5 + 0.4j, 2.5 - 0.4j)
    got = gamma_lattice_sum(nus, np.eye(1), math.pi, 1e-10, 1.0)
    assert len(calls) == 2 * len(yielded) >= 4
    for k, (nu, x) in enumerate(calls):
        assert nu == nus[k % 2]
        np.testing.assert_array_equal(x, yielded[k // 2])
    ks = np.concatenate(yielded)
    for nu, value in zip(nus, got):
        want = sum(k ** -nu * gamma(nu, k) for k in ks)
        assert abs(value - want) < 1e-13 * abs(want)


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
            gamma_lattice_sum((1.0,), M, c, 1e-10, 1e300)
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
        for r2 in ball_points(lattice.ideal_embedding_matrix(ideal),
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
        else DNumber.from_xy(F, 0.3 + 0.2j, 0.8 + 0.4j)
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
    (Q, 1, 0.3, 1.7, -0.7726613769737103 + 0.3947537606859084j,
     0.6830433276967954, -0.3521146942418727),
    (Fi, 1, 0.3 + 0.2j, 0.8 + 0.4j, -1.1473944987227338 + 0.6140984796727779j,
     1.1923271173600716, -0.4718558444747077),
    (F3, 2, -0.1 + 0.4j, 1.1 - 0.3j,
     0.48375635093440017 + 0.2499598526989949j, 3.7949686377206384,
     1.3639340896104382)]


def test_theta_split_values_are_pinned():
    for F, ideal, s, want in PINNED_XI:
        got = completed_zeta(F, ideal).value(s)
        assert abs(got - want) <= 1e-13 * abs(want)
    for F, gen, x, y, at_s, at_16, ct in PINNED_LATTICE:
        ev = EisensteinEvaluator(OFLattice(
            F, FracIdeal(F, gen=Fraction(gen)), DNumber.from_xy(F, x, y),
            FracIdeal.unit_ideal(F)))
        for got, want in [(ev.ehat_lattice(0.3 + 0.5j), at_s),
                          (ev.ehat_lattice(1.6), at_16),
                          (ev.ct_lattice(), ct)]:
            assert abs(got - want) <= 1e-13 * abs(want)


def test_xi_of_a_scaled_ideal_meets_a_tight_tol():
    # the ideal (2) of Q(sqrt-7) at s = 5 + i, |xi| = 1.9: summed at its
    # own covolume 1/(4 sqrt 7) the dual's term was 7.2e4 and cancelled, so
    # xi moved by 1.0e-11 from tol 1e-12 to 1e-14; at one covolume that
    # term is 0.098
    F = make_field(-7)
    two = FracIdeal(F, gen=QuadElement(F, Fraction(2), Fraction(0)))
    values = [CompletedZeta(F, two).value(5 + 1j, tol)
              for tol in (1e-12, 1e-14)]
    assert abs(values[0] - values[1]) <= 1e-12


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
    czi2 = completed_zeta(Fi, FracIdeal(Fi, gen=c))
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
