import math
import random

import numpy as np
import pytest

from heckeis.basefield import make_field
from heckeis.dalgebra import (DNumber, Q_I, Q_J, Q_K, Q_ONE, Quaternion, dnorm,
                              psi_exponent, rho, rho_star)
from heckeis.errors import UnsupportedFieldError


def test_quaternion_multiplication_table():
    minus_one = Quaternion(-1 + 0j, 0j)
    assert Q_I * Q_I == minus_one
    assert Q_J * Q_J == minus_one
    assert Q_K * Q_K == minus_one
    assert Q_I * Q_J == Q_K
    assert Q_J * Q_K == Q_I
    assert Q_K * Q_I == Q_J
    assert Q_J * Q_I == Quaternion(0j, -1j)     # -k
    # i j k = -1
    assert Q_I * Q_J * Q_K == minus_one


def test_quaternion_norm_multiplicative_on_signed_units():
    units = [Q_ONE, Q_I, Q_J, Q_K]
    units += [Quaternion(-u.x, -u.y) for u in units]
    for p in units:
        for q in units:
            assert (p * q).abs2() == 1.0
            assert p.abs2() * q.abs2() == 1.0


def test_quaternion_assoc_and_norm_random():
    rng = random.Random(11)
    for _ in range(200):
        def rq():
            return Quaternion(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                              complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        p, q, r = rq(), rq(), rq()
        lhs, rhs = (p * q) * r, p * (q * r)
        assert abs(lhs.x - rhs.x) + abs(lhs.y - rhs.y) < 1e-12
        assert abs((p * q).abs2() - p.abs2() * q.abs2()) \
            < 1e-12 * max(1.0, p.abs2() * q.abs2())


def test_quaternion_inverse():
    q = Quaternion(1 + 2j, -0.5 + 0.25j)
    p = q * q.inverse()
    assert abs(p.x - 1) < 1e-14 and abs(p.y) < 1e-14


def test_dnorm_examples():
    Q = make_field("Q")
    z = DNumber.from_xy(Q, 3.0, 4.0)
    assert abs(dnorm(z) - 5.0) < 1e-14
    Fi = make_field(-1)
    q = DNumber(Fi, (Quaternion.from_coords(1, 1, 1, 1),))
    assert abs(dnorm(q) - 4.0) < 1e-14


def test_dnorm_multiplicative_random():
    rng = random.Random(5)
    Fi = make_field(-1)
    for _ in range(100):
        def rd():
            return DNumber(Fi, (Quaternion(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2))),))
        z, w = rd(), rd()
        assert abs(dnorm(z * w) - dnorm(z) * dnorm(w)) \
            <= 1e-12 * max(1.0, dnorm(z) * dnorm(w))


def test_psi_exponent():
    Q = make_field("Q")
    assert psi_exponent(DNumber.from_xy(Q, 0.25, 7.0)) == 0.25
    Fi = make_field(-1)
    # x-component a + b i contributes trace 2a
    alpha = Quaternion(3 + 2j, 0j)
    assert psi_exponent(DNumber(Fi, (alpha,))) == 6.0
    # matches the exact trace of the integral element 3 + 2i
    from fractions import Fraction
    from heckeis.basefield import QuadElement
    assert float(QuadElement(Fi, Fraction(3), Fraction(2)).trace()) == 6.0
    # purely y j part has exponent 0
    assert psi_exponent(DNumber(Fi, (Quaternion(0j, 1.5 - 0.25j),))) == 0.0


def test_rho_real_quadratic():
    K = make_field(5)
    r5 = math.sqrt(5.0)
    out = rho(K, (r5, -r5))
    assert out.x_part == r5 and out.y_part == -r5
    star = rho_star(K, (r5, -r5))
    assert star.x_part == r5 and star.y_part == r5


def test_rho_imaginary_quadratic():
    K = make_field(-1)
    out = rho(K, (1.0 + 0j,))
    assert abs(complex(out.x_part, out.y_part) - (1 + 1j)) < 1e-15
    assert abs(dnorm(out) ** 2 - 2.0) < 1e-14
    star = rho_star(K, (1.0 + 0j,))
    assert abs(complex(star.x_part, star.y_part) - (1 - 1j)) < 1e-15


def test_rho_rejects_quadratic_base():
    with pytest.raises(UnsupportedFieldError):
        rho(make_field(5), (1.0, 1.0), make_field(-1))
    with pytest.raises(UnsupportedFieldError):
        rho(make_field("Q"), (1.0,))


def test_rho_measure_preserving():
    # real K: the map (z_w, z_w') -> (x, y) is the identity matrix
    # imaginary K: multiplication by (1+i) doubles Lebesgue area, matching
    # the factor between twice-Lebesgue on K_R and Lebesgue on the target
    mat = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert abs(abs(np.linalg.det(mat)) - 1.0) < 1e-15
    m = (1 + 1j)
    mat2 = np.array([[m.real, -m.imag], [m.imag, m.real]])
    assert abs(abs(np.linalg.det(mat2)) - 2.0) < 1e-15


def test_gaussian_compatibility():
    # rho carries the Gaussian of K_R, prod_w exp(-n_w pi |z_w|^2), to the
    # Gaussian exp(-pi |z|^2) of D_Q = C: the exponents agree
    rng = random.Random(3)
    K5 = make_field(5)
    Ki = make_field(-1)
    for _ in range(1000):
        zw, zwp = rng.uniform(-2, 2), rng.uniform(-2, 2)
        (c,) = rho(K5, (zw, zwp)).components
        assert abs(abs(c) ** 2 - (zw ** 2 + zwp ** 2)) <= 1e-12 * abs(c) ** 2
        zc = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        (c2,) = rho(Ki, (zc,)).components
        assert abs(abs(c2) ** 2 - 2 * abs(zc) ** 2) <= 1e-12 * abs(c2) ** 2


def test_rho_linear_over_rationals():
    K = make_field(5)
    z = (1.25, -0.5)
    for alpha in (2.0, -0.5, 3.5):
        lhs = rho(K, (alpha * z[0], alpha * z[1]))
        rhs = rho(K, z)
        assert abs(lhs.x_part - alpha * rhs.x_part) < 1e-14
        assert abs(lhs.y_part - alpha * rhs.y_part) < 1e-14
