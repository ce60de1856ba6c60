import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from heckeis import zeta
from heckeis.basefield import FracIdeal, QuadElement, dual_ideal, make_field
from heckeis.dalgebra import DNumber
from heckeis.eisenstein import EisensteinEvaluator
from heckeis.errors import ConvergenceError, PoleError, UnsupportedFieldError
from heckeis.lattice import OFLattice
from heckeis.numerics import neville_at_zero
from heckeis.precision import PrecisionConfig
from heckeis.zeta import (CompletedZeta, c_F, class_number, completed_zeta,
                          dirichlet_l, gamma_lattice_sum, hurwitz_zeta,
                          ideal_theta, kronecker_symbol, partial_zeta_series,
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
    mp.mp.dps = 25
    assert abs(riemann_zeta(s) - complex(mp.zeta(s))) < 1e-12


@pytest.mark.parametrize("s,a", [(2.3, 0.25), (1.5 + 1.0j, 0.8), (-0.5, 0.4)])
def test_hurwitz_and_derivative_vs_mpmath(s, a):
    mp.mp.dps = 25
    v, dv = hurwitz_zeta(s, a, derivative=True)
    assert abs(v - complex(mp.zeta(s, a))) < 1e-12
    assert abs(dv - complex(mp.zeta(s, a, 1))) < 1e-10


def test_hurwitz_minus_pole_at_one():
    # zeta(s, a) - 1/(s-1) -> -psi(a) as s -> 1
    v = hurwitz_zeta(1.0, 0.5, minus_pole=True)
    mp.mp.dps = 25
    assert abs(v - complex(-mp.digamma(0.5))) < 1e-12


def test_kronecker_symbol_patterns():
    # chi_-4: period 4 pattern 1, 0, -1, 0
    assert [kronecker_symbol(-4, n) for n in range(1, 9)] \
        == [1, 0, -1, 0, 1, 0, -1, 0]
    # chi_5 is the Legendre symbol mod 5
    assert [kronecker_symbol(5, n) for n in range(1, 6)] == [1, -1, -1, 1, 0]
    assert kronecker_symbol(8, 3) == -1 and kronecker_symbol(8, 7) == 1


def test_dirichlet_l_values():
    mp.mp.dps = 25
    assert abs(dirichlet_l(2.0, -4) - float(mp.catalan)) < 1e-13
    assert abs(dirichlet_l(1.0, -4) - math.pi / 4) < 1e-13
    phi = (1 + math.sqrt(5)) / 2
    assert abs(dirichlet_l(1.0, 5) - 2 * math.log(phi) / math.sqrt(5)) < 1e-13


def test_class_numbers():
    assert class_number(Fi) == 1
    assert class_number(make_field(-5)) == 2
    assert class_number(make_field(-23)) == 3
    assert class_number(make_field(5)) == 1
    assert class_number(make_field(2)) == 1


# ---------------------------------------------------------------------------
# partial zeta sums


def test_partial_zeta_rational():
    v, tail = partial_zeta_series(Q, ZZ, 2.0, 1e4)
    assert abs(v - math.pi ** 2 / 6) < 1e-9
    assert tail < 1e-3
    # value is independent of the ideal (scaling invariance)
    v2, _ = partial_zeta_series(Q, FracIdeal(Q, gen=Fraction(3, 2)), 2.0, 1e4)
    assert abs(v - v2) < 1e-12


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


def test_partial_zeta_requires_convergence_region():
    with pytest.raises(ValueError):
        partial_zeta_series(Q, ZZ, 1.0, 1e4)


def test_zeta_k_class_unsupported():
    with pytest.raises(UnsupportedFieldError):
        zeta_K_class(make_field(-23), None, 2.0)


# ---------------------------------------------------------------------------
# the shared incomplete-gamma lattice sum


def _phi_case():
    ideal = FracIdeal.unit_ideal(F3)
    return (lambda: CompletedZeta(F3, ideal).phi(0.5 + 0.9j, "primal", 1e-10),
            lambda upto: zeta._gaussian_params(F3, ideal, upto, 10 ** 8))


def _psi_case():
    lat = OFLattice(Q, ZZ, DNumber.from_xy(Q, 0.3, 1.7), ZZ)
    return (lambda: EisensteinEvaluator(lat).psi(0.3, lat, 1e-10),
            lambda upto: [math.pi * n * n for n in
                          lat.norm_chunks(math.sqrt(upto / math.pi))])


@pytest.mark.parametrize("case", [_phi_case, _psi_case])
def test_gamma_lattice_sum_evaluates_each_parameter_once(case, monkeypatch):
    seen = []
    gamma = zeta.upper_incomplete_gamma

    def counted(nu, x, tol):
        seen.append(x)
        return gamma(nu, x, tol=tol)

    monkeypatch.setattr(zeta, "upper_incomplete_gamma", counted)
    run, params = case()
    run()
    # every parameter up to the final cutoff is evaluated exactly once,
    # however many +6 extensions the cutoff took
    upto = max(seen) * (1 + 1e-12)
    xs = np.concatenate([np.zeros(0), *params(upto)])
    xs = xs[xs <= upto]
    assert len(seen) == xs.size
    np.testing.assert_allclose(np.sort(seen), np.sort(xs), rtol=1e-13)


def test_gamma_lattice_sum_reports_how_far_it_got():
    # a prefactor of 1e300 keeps every shell above tol/10
    with pytest.raises(ConvergenceError) as info:
        gamma_lattice_sum(1.0, 1.0, lambda cut: [np.arange(1.0, cut + 1)],
                          1e-10, 1e300, 8.0)
    msg = str(info.value)
    final = -math.log(1e-10) + 8.0 + 4.0 + 8.0 + 24 * 6.0
    assert f"cutoff {final:g}" in msg
    assert "tol/10 = 1e-11" in msg
    last = 1e300 * sum(math.exp(-x) / x for x in range(182, 188))
    assert f"added {last:.3g}" in msg


# ---------------------------------------------------------------------------
# ideal theta and duality


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


def test_xi_laurent_ct_rational():
    cz = completed_zeta(Q, ZZ)
    assert abs(cz.laurent_ct() - CT_XI_Q) < 1e-12
    # numerical-limit oracle
    hs = [(1.0 + 10.0 ** (-k)) - 1.0 for k in range(2, 6)]
    vals = [cz.value(1 + h) - c_F(Q) / h for h in hs]
    assert abs(neville_at_zero(hs, vals) - cz.laurent_ct()) < 1e-9


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


def test_completed_zeta_cache_keys_on_whole_config():
    base = completed_zeta(Q, ZZ)
    assert completed_zeta(Q, ZZ, PrecisionConfig()) is base
    wide = completed_zeta(Q, ZZ, PrecisionConfig(tail_margin=30.0))
    assert wide is not base and wide.config.tail_margin == 30.0


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
