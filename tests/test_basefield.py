import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heckeis.basefield import (FracIdeal, QuadElement, _make_field_cached,
                               dual_ideal, is_squarefree, make_field,
                               parse_field)
from heckeis.errors import UnsupportedFieldError


def brute_fundamental_unit(d):
    """Independent oracle: smallest y > 0 with x^2 - d y^2 = +-4 solvable,
    or None if there is none below 100000."""
    for y in range(1, 100000):
        for sign in (-4, 4):
            t = d * y * y + sign
            if t <= 0:
                continue
            x = math.isqrt(t)
            if x * x == t and (x - y) % 2 == 0:
                return (x + y * math.sqrt(d)) / 2, sign // 4
    return None


@pytest.mark.parametrize("d", [d for d in range(2, 200) if is_squarefree(d)])
def test_fundamental_unit_matches_brute_force(d):
    F = make_field(d)
    eps = QuadElement(F, *F.fundamental_unit_coeffs)
    oracle = brute_fundamental_unit(d)
    if oracle is None:
        # eps solves x^2 - d y^2 = +-4 with y = b (omega = (1 + sqrt d)/2)
        # or y = 2b, so it lies past the oracle's reach
        assert (eps.b if F.omega_is_half else 2 * eps.b) >= 100000
        return
    val = F.embed(eps, 0)
    oracle_val, oracle_norm = oracle
    assert abs(val - oracle_val) < 1e-9 * oracle_val
    assert F.fundamental_unit_norm == oracle_norm
    # exact norm and eps * eps' in {+-1}
    n = eps.norm()
    assert n in (1, -1) and int(n) == F.fundamental_unit_norm
    prod = eps * eps.conj()
    assert (prod.a, prod.b) in ((Fraction(1), Fraction(0)),
                                (Fraction(-1), Fraction(0)))


def test_fundamental_unit_of_every_small_field():
    # eps > 1 of exact norm +-1, and the regulator is log eps
    with mpmath.workdps(30):
        for d in range(2, 10 ** 4):
            if not is_squarefree(d):
                continue
            F = make_field(d)
            a, b = F.fundamental_unit_coeffs
            assert QuadElement(F, a, b).norm() == F.fundamental_unit_norm \
                in (1, -1), d
            w = (F.discriminant % 2 + mpmath.sqrt(F.discriminant)) / 2
            eps = int(a) + int(b) * w
            assert eps > 1, d
            assert math.isclose(F.regulator, float(mpmath.log(eps)),
                                rel_tol=1e-15, abs_tol=1e-15), d


def test_regulator_of_a_unit_past_the_range_of_floats():
    # eps ~ 10^457 for d = 1000006: the regulator comes from the exact
    # coefficients, never from eps as a float
    F = make_field(1000006)
    a, b = F.fundamental_unit_coeffs
    with mpmath.workdps(30):
        omega = (F.discriminant % 2 + mpmath.sqrt(F.discriminant)) / 2
        want = mpmath.log(int(a) + int(b) * omega)
        assert math.isclose(F.regulator, float(want), rel_tol=1e-15)


@pytest.mark.parametrize("d, norm", [(409, -1), (601, -1)])
def test_fundamental_unit_of_a_large_unit_at_once(d, norm):
    # y ~ 5.5e9 for d = 409: one period of a continued fraction, no search
    start = time.perf_counter()
    F = _make_field_cached.__wrapped__(d)
    assert time.perf_counter() - start < 0.1
    eps = QuadElement(F, *F.fundamental_unit_coeffs)
    assert eps.norm() == F.fundamental_unit_norm == norm


def test_field_q_sqrt5():
    F = make_field(5)
    assert F.discriminant == 5 and F.w == 2
    eps = QuadElement(F, *F.fundamental_unit_coeffs)
    assert abs(F.embed(eps, 0) - 1.6180339887498949) < 1e-12
    assert F.fundamental_unit_norm == -1
    assert abs(F.regulator - math.log(1.6180339887498949)) < 1e-12


def test_field_q_i():
    F = make_field(-1)
    assert F.discriminant == -4
    assert F.w == 4
    assert F.regulator == 1.0
    # the roots of unity are the units of O_F: count |u| = 1 by brute force
    sols = [(a, b) for a in range(-2, 3) for b in range(-2, 3)
            if QuadElement(F, Fraction(a), Fraction(b)).norm() == 1]
    assert len(sols) == F.w


def test_field_rational():
    F = make_field("Q")
    assert (F.discriminant, F.r1, F.r2, F.w) == (1, 1, 0, 2)
    assert F.regulator == 1.0


def test_roots_of_unity_counts():
    # |N u| = 1 bounds both omega-coordinates of a unit by 2
    for d, w in ((-3, 6), (-7, 2), (-2, 2), (-11, 2)):
        F = make_field(d)
        units = [(a, b) for a in range(-2, 3) for b in range(-2, 3)
                 if QuadElement(F, Fraction(a), Fraction(b)).norm() == 1]
        assert len(units) == F.w == w


@pytest.mark.parametrize("bad", [0, 1, 4, 12, -4, -12, 9])
def test_rejects_non_squarefree(bad):
    with pytest.raises(ValueError):
        make_field(bad)


def test_rejects_unsupported_base_role():
    with pytest.raises(UnsupportedFieldError):
        make_field(-5, base=True)
    with pytest.raises(UnsupportedFieldError):
        make_field(5, base=True)
    make_field(-11, base=True)


def test_parse_field():
    assert parse_field("Q").is_rational
    assert parse_field("Q(sqrt5)").d == 5
    assert parse_field("Q(sqrt{-5})").d == -5
    assert parse_field("Q(sqrt-1)").d == -1
    with pytest.raises(ValueError):
        parse_field("Z(sqrt5)")


# ---------------------------------------------------------------------------
# element arithmetic


@given(st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=60)
def test_norm_multiplicative_exact(a1, b1, a2, b2):
    F = make_field(-7)
    x = QuadElement(F, Fraction(a1), Fraction(b1))
    y = QuadElement(F, Fraction(a2), Fraction(b2))
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conj() == x.conj() * y.conj()


def test_element_inverse_and_embeddings():
    F = make_field(5)
    x = QuadElement(F, Fraction(3, 2), Fraction(-2))
    assert (x * x.inverse()).a == 1 and (x * x.inverse()).b == 0
    e1, e2 = x.embeddings()
    assert abs(e1 * e2 - float(x.norm())) < 1e-12
    assert abs(e1 + e2 - float(x.trace())) < 1e-12


# ---------------------------------------------------------------------------
# ideals


def test_dual_ideal_rationals():
    Q = make_field("Q")
    Z = FracIdeal(Q, gen=1)
    assert dual_ideal(Q, Z).gen == 1
    three = FracIdeal(Q, gen=3)
    assert dual_ideal(Q, three).gen == Fraction(1, 3)


def exact_pairing_is_unimodular(F, ideal, dual):
    """Tr(x*y) over basis pairs must be an integer matrix of determinant +-1."""
    mat = []
    for g in ideal.z_basis():
        row = []
        for h in dual.z_basis():
            tr = (g * h).trace()
            assert tr.denominator == 1
            row.append(int(tr))
        mat.append(row)
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    assert det in (1, -1)


def check_dual(F, a):
    """dual(a) pairs unimodularly with a, dual(dual(a)) = a, and a known
    generator of a gives one of dual(a)."""
    b = dual_ideal(F, a)
    exact_pairing_is_unimodular(F, a, b)
    assert dual_ideal(F, b) == a
    if a.gen is not None:
        assert FracIdeal(F, gen=b.gen) == b


@pytest.mark.parametrize("d", [-1, -3, -5, 5, 2])
def test_dual_ideal_pairing_and_involution(d):
    F = make_field(d)
    ideals = [FracIdeal.unit_ideal(F),
              FracIdeal(F, gen=QuadElement(F, Fraction(2), Fraction(1))),
              FracIdeal.from_hnf(F, 2, 1, 1) if d == -5
              else FracIdeal(F, gen=QuadElement(F, Fraction(1), Fraction(1)))]
    # the same ideals without a generator, and scaled by 3/2
    ideals += [FracIdeal.from_hnf(F, *A.hnf[1:], q=A.hnf[0] * Fraction(3, 2))
               for A in ideals]
    if d == -5:
        # the two primes above 3, which are not principal either
        ideals += [FracIdeal.from_hnf(F, 3, 1, 1), FracIdeal.from_hnf(F, 3, 2, 1)]
    for a in ideals:
        check_dual(F, a)


@given(st.sampled_from([-1, -2, -3, -7, -11, -5, 2, 3, 5, 13]),
       st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=80, derandomize=True)
def test_dual_ideal_of_a_drawn_generator(d, a, b):
    F = make_field(d)
    x = QuadElement(F, Fraction(a), Fraction(b))
    assume(not x.is_zero())
    A = FracIdeal(F, gen=x)
    assert A.absolute_norm() == abs(x.norm())
    check_dual(F, A)


def test_dual_ideal_gaussian():
    # dual of O in Q(i) is (1/(2i)) O, of norm 1/4
    F = make_field(-1)
    O = FracIdeal.unit_ideal(F)
    d = dual_ideal(F, O)
    assert d.absolute_norm() == Fraction(1, 4)
    gen = QuadElement(F, Fraction(0), Fraction(2)).inverse()   # 1/(2i)
    assert FracIdeal(F, gen=gen) == d


def test_invalid_hnf_rejected():
    F = make_field(-5)
    with pytest.raises(ValueError):
        FracIdeal.from_hnf(F, 2, 0, 1)     # N(sqrt-5) = 5 not divisible by 2
    with pytest.raises(ValueError):
        FracIdeal.from_hnf(F, 4, 1, 2)     # c does not divide b


def test_ideal_contains_and_z_basis():
    # x lies in A when its coordinates in the Z-basis q a, q (b + c w) of A
    # are integers
    def contains(A, x):
        g1, g2 = A.z_basis()
        n = x.b / g2.b
        m = (x.a - n * g2.a) / g1.a
        return m.denominator == 1 and n.denominator == 1

    F = make_field(-5)
    A = FracIdeal.from_hnf(F, 2, 1, 1)
    assert A.absolute_norm() == 2
    assert contains(A, QuadElement(F, Fraction(2), Fraction(0)))
    assert contains(A, QuadElement(F, Fraction(1), Fraction(1)))
    assert not contains(A, F.one())
