import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeis import lattice
from heckeis.basefield import FracIdeal, make_field
from heckeis.dalgebra import DNumber, Quaternion, dnorm, psi_exponent
from heckeis.errors import DegenerateLatticeError, EnumerationCapError
from heckeis.lattice import OFLattice, ball_points

Q = make_field("Q")
ZZ = FracIdeal.unit_ideal(Q)


def lat_q(x, y, a=1, b=1):
    return OFLattice(Q, FracIdeal(Q, gen=Fraction(a)),
                     DNumber.from_xy(Q, x, y), FracIdeal(Q, gen=Fraction(b)))


def lat_quat(F, x, y, a=None, b=None):
    a = a or FracIdeal.unit_ideal(F)
    b = b or FracIdeal.unit_ideal(F)
    return OFLattice(F, a, DNumber(F, (Quaternion(x, y),)), b)


def test_volume_basic():
    assert abs(lat_q(0.4, 1.3).covolume - 1.3) < 1e-12
    # V(a z + b) = d_F N(a) N(b) |N(y)|
    assert abs(lat_q(0.4, 1.3, a=2, b=3).covolume - 6 * 1.3) < 1e-12


def test_volume_scaling_law():
    # V(t Lambda) = ||t||^2 V(Lambda) for real t over Q
    lat = lat_q(0.3, 0.9)
    t = DNumber.from_xy(Q, 1.7, 0.0)
    assert abs(lat.left_mul(t).covolume - 1.7 ** 2 * lat.covolume) < 1e-10


def test_volume_quaternion_example():
    Fi = make_field(-1)
    lat = lat_quat(Fi, 0j, 1 + 0j)      # z = j
    assert abs(lat.covolume - 4.0) < 1e-12


def test_degenerate_rejected():
    with pytest.raises(DegenerateLatticeError):
        lat_q(0.5, 0.0)


def test_dual_self_dual_square_lattice():
    lat = lat_q(0.0, 1.0)               # Z i + Z
    dual = lat.dual()
    assert lat.same_z_span(dual)
    assert abs(dual.covolume - 1.0) < 1e-12


def test_dual_volume_product_and_involution():
    rng = random.Random(2)
    for _ in range(10):
        lat = lat_q(rng.uniform(-1, 1), rng.uniform(0.5, 2.0),
                    a=rng.choice([1, 2, 3]), b=rng.choice([1, 2]))
        dual = lat.dual()
        assert abs(lat.covolume * dual.covolume - 1.0) < 1e-10
        assert dual.dual().same_z_span(lat)
    Fi = make_field(-3)
    lat = lat_quat(Fi, 0.2 - 0.4j, 1.1 + 0.3j)
    assert abs(lat.covolume * lat.dual().covolume - 1.0) < 1e-10
    assert lat.dual().dual().same_z_span(lat)


def test_dual_closed_form_over_q():
    # dual of Z(x + y i) + Z is (i/y)(Z(x - y i) + Z) as a set
    x, y = 0.37, 1.21
    lat = lat_q(x, y)
    dual = lat.dual()
    w = (1j / y) * complex(x, -y)
    basis = [DNumber.from_xy(Q, w.real, w.imag),
             DNumber.from_xy(Q, 0.0, 1.0 / y)]
    expected = OFLattice(Q, z_basis=basis)
    assert dual.same_z_span(expected)


def test_dual_pairing_integrality():
    Fi = make_field(-1)
    lat = lat_quat(Fi, 0.2 + 0.1j, 0.8 - 0.5j)
    dual = lat.dual()
    for v in lat.z_basis_vectors():
        for w in dual.z_basis_vectors():
            e = psi_exponent(v * w)
            assert abs(e - round(e)) < 1e-10


@pytest.mark.parametrize("d", [-1, -3, -11])
def test_norm_chunks_unit_orbits_are_free(d):
    # U_F acts freely on the nonzero points and keeps their norms, so every
    # ball holds a multiple of w of them; norm_chunks hands out one point of
    # each pair +-lambda, half of the ball
    F = make_field(d)
    rng = random.Random(d)
    for _ in range(3):
        lat = lat_quat(F, complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                       cmath.rect(rng.uniform(0.9, 1.3), rng.uniform(0, 6.28)))
        for B in (1.0, 2.5, 6.0):
            handed = sum(n.size for n in lat.norm_chunks(B))
            assert handed > 0 and (2 * handed) % F.w == 0


def test_theta_limit_and_transformation():
    lat = lat_q(0.0, 1.0)
    assert abs(lat.theta(50.0) - 1.0) < 1e-12
    t = 1.3
    lhs = lat.theta(t)
    rhs = lat.dual().theta(1.0 / t) / (lat.covolume * t ** 2)
    assert abs(lhs - rhs) < 1e-12
    # quaternionic component exercised
    Fi = make_field(-1)
    latq = lat_quat(Fi, 0.3 + 0.1j, 1.0 - 0.2j)
    tq = cmath.rect(1.2, 0.7)
    lhsq = latq.theta(tq)
    rhsq = latq.dual().theta(1.0 / tq) / (latq.covolume * abs(tq) ** 4)
    assert abs(lhsq - rhsq) < 1e-11


def test_raw_sum_modular_invariance():
    # sum ||l||^(-2s) over z Lambda equals ||z||^(-2s) times the sum over
    # Lambda, tested at the raw enumeration level
    s = 2.2
    lat = lat_q(0.3, 1.1)
    z = DNumber.from_xy(Q, 1.0, 2.0)           # 1 + 2i
    zlat = lat.left_mul(z)
    B = 30.0
    s1 = sum(float(np.sum(n ** (-2 * s))) for n in lat.norm_chunks(B))
    s2 = sum(float(np.sum(n ** (-2 * s)))
             for n in zlat.norm_chunks(B * dnorm(z)))
    assert abs(s2 - dnorm(z) ** (-2 * s) * s1) < 1e-9
    # quaternionic case: right multiplication
    Fi = make_field(-1)
    latq = lat_quat(Fi, 0.2 + 0.3j, 0.9 - 0.1j)
    zq = DNumber(Fi, (Quaternion(1 + 1j, 0.5 - 0.2j),))
    zlatq = latq.right_mul(zq)
    B = 8.0
    q1 = sum(float(np.sum(n ** (-2 * s))) for n in latq.norm_chunks(B))
    q2 = sum(float(np.sum(n ** (-2 * s)))
             for n in zlatq.norm_chunks(B * dnorm(zq)))
    assert abs(q2 - dnorm(zq) ** (-2 * s) * q1) < 1e-9


def test_norm_chunks_near_zero_floor_follows_the_norm():
    # over Q a norm is a length and the covolume an area: the floor under
    # which a norm counts as zero scales like sqrt(covolume)
    lat = lat_q(0.0, 1e13)
    norms = np.concatenate(list(lat.norm_chunks(2.5)))
    assert np.allclose(np.sort(norms), [1.0, 2.0], rtol=1e-15, atol=0)


def test_enumeration_cap():
    lat = lat_q(0.0, 1.0)
    with pytest.raises(EnumerationCapError):
        list(lat.norm_chunks(1e8))


def _brute_ball(M, r):
    """Coefficient columns and squared lengths of the nonzero points in the
    ball, from a mesh over the full rigorous coefficient box."""
    radii = np.floor(np.linalg.norm(np.linalg.inv(M), axis=1) * r + 1e-9)
    grids = np.meshgrid(*[np.arange(-k, k + 1) for k in radii.astype(int)],
                        indexing="ij")
    C = np.stack([g.ravel() for g in grids])
    r2 = np.einsum("ij,ij->j", M @ C, M @ C)
    keep = np.any(C != 0, axis=0) & (r2 <= r * r * (1 + 1e-12))
    return C[:, keep], r2[keep]


def _random_bases(dim, n, seed):
    rng = np.random.default_rng(seed)
    bases = [rng.normal(size=(dim, dim)) for _ in range(n)]
    if dim == 1:
        # negative a: one point of many arrays, one of a single pair
        return bases + [np.array([[-0.01]]), np.array([[-1.9]])]
    # shears: nearly parallel columns, small covolume
    shear = np.eye(dim)
    shear[1, 0], shear[1, 1] = 0.999, 1e-3
    bases.append(shear)
    bases.append(rng.normal(size=(dim, dim)) @ shear)
    if dim > 2:
        # the short column last, so that the last coefficient, which is
        # yielded in blocks, has the longest runs (in dim 2 it is last)
        bases.append(shear[:, [0, *range(2, dim), 1]])
    # a lower triangular basis is its own factor L in M = Q L, the factor
    # the search runs on: a negative diagonal
    tri = np.tril(rng.normal(size=(dim, dim)), -1) \
        - np.diag(np.linspace(1.0, 1.5, dim))
    assert np.all(np.diag(np.linalg.qr(tri[:, ::-1], mode="r")) < 0)
    bases.append(tri)
    return bases


def _coeff_tuples(out, dim):
    C = np.concatenate([np.zeros((dim, 0), dtype=np.int64)]
                       + [c for _, c in out], axis=1)
    return sorted(map(tuple, C.T.tolist()))


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_ball_points_match_brute_force(dim, monkeypatch):
    r = 1.6 if dim == 4 else 2.5
    # the identity basis has points of squared length 1, exactly the first
    # radius with its slack: only an exclusive inner bound counts them once
    radii = [1.0 / math.sqrt(1 + 1e-12), (1.0 + r) / 2, r]
    assert radii[0] ** 2 * (1 + 1e-12) == 1.0
    for k, M in enumerate(_random_bases(dim, 4, seed=dim) + [np.eye(dim)]):
        C_ref, r2_ref = _brute_ball(M, r)
        full = sorted(map(tuple, C_ref.T.tolist()))
        for chunk in (4_000_000, 37):
            monkeypatch.setattr(lattice, "_CHUNK_POINTS", chunk)
            out = list(ball_points(M, r, coeffs=True))
            r2 = np.concatenate([np.zeros(0)] + [a for a, _ in out])
            C = np.concatenate([np.zeros((dim, 0), dtype=np.int64)]
                               + [c for _, c in out], axis=1)
            # one point of each +-pair: with its negatives, the whole ball
            assert 2 * r2.size == r2_ref.size > 0, k
            assert np.allclose(np.sort(np.concatenate([r2, r2])),
                               np.sort(r2_ref), rtol=1e-12, atol=0)
            assert np.all(r2 > 0) and np.all(np.any(C != 0, axis=0))
            assert np.allclose(np.einsum("ij,ij->j", M @ C, M @ C), r2,
                               rtol=1e-12, atol=1e-12)
            half = sorted(map(tuple, C.T.tolist()))
            neg = [tuple(-c for c in x) for x in half]
            assert (0,) * dim not in half
            assert len(set(half)) == len(half), k
            assert not set(half) & set(neg), k
            assert sorted(half + neg) == full, k
            plain = np.concatenate(list(ball_points(M, r)))
            assert np.array_equal(plain, r2)
            # an inner radius below the shortest vector removes nothing
            below = 0.5 * math.sqrt(float(r2_ref.min()))
            assert _coeff_tuples(ball_points(
                M, r, coeffs=True, r_min=below), dim) == half, k
            # the shells (0, r1], (r1, r2], (r2, r] split the half ball
            shells = []
            for lo, hi in zip([0.0] + radii[:-1], radii):
                shells += _coeff_tuples(ball_points(
                    M, hi, coeffs=True, r_min=lo), dim)
            assert sorted(shells) == half, k


@given(dim=st.sampled_from([2, 4]), seed=st.integers(0, 2 ** 32 - 1),
       skew=st.floats(0.0, 3.0), radius=st.floats(0.1, 3.0))
@settings(max_examples=60)
def test_ball_points_count_against_covolume(dim, seed, skew, radius):
    # the cells l + M [-1/2, 1/2)^dim are disjoint and lie within
    # rho = sum |b_i| / 2 of l, so the half ball of radius R holds at most
    # K (R + rho)^dim points, K = vol(B_1)/(2 |det M|)
    rng = np.random.default_rng(seed)
    M = np.diag(rng.uniform(0.3, 2.0, dim)) \
        + skew * np.triu(rng.uniform(-1.0, 1.0, (dim, dim)), 1)
    M = M @ np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    rho = 0.5 * float(np.linalg.norm(M, axis=0).sum())
    K = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) \
        / (2 * abs(np.linalg.det(M)))
    count = sum(r2.size for r2 in ball_points(M, radius))
    assert count <= K * (radius + rho) ** dim


def test_ball_points_cap(monkeypatch):
    M = np.array([[1.0, 0.0], [0.999, 1e-3]])
    monkeypatch.setattr(lattice, "ENUM_POINT_CAP", 10 ** 5)
    assert len(np.concatenate(list(ball_points(M, 3.0)))) > 0
    monkeypatch.setattr(lattice, "ENUM_POINT_CAP", 10 ** 4)
    with pytest.raises(EnumerationCapError):
        list(ball_points(M, 3.0))
    monkeypatch.setattr(lattice, "ENUM_POINT_CAP", 21 ** 4 - 1)
    with pytest.raises(EnumerationCapError):
        list(ball_points(np.eye(4), 10.0))
    # dimension 1: the box of |c| <= r/|a| = 3000
    M = np.array([[-1e-3]])
    monkeypatch.setattr(lattice, "ENUM_POINT_CAP", 6001)
    assert sum(r2.size for r2 in ball_points(M, 3.0)) == 3000
    monkeypatch.setattr(lattice, "ENUM_POINT_CAP", 6000)
    with pytest.raises(EnumerationCapError, match="box of 6001 points"):
        list(ball_points(M, 3.0))


def test_pseudo_normal_form_roundtrip():
    lat = lat_q(-0.4, 1.7, a=2, b=1)
    zq, w2 = lat.dual().pseudo_normal_form()
    assert zq.imag > 0
    rebuilt = OFLattice(Q, z_basis=[
        DNumber.from_xy(Q, (zq * w2).real, (zq * w2).imag),
        DNumber.from_xy(Q, w2.real, w2.imag)])
    assert rebuilt.same_z_span(lat.dual())


def test_orientation_normalization():
    # y < 0 is normalized to y > 0 without changing the lattice
    lat_neg = lat_q(0.3, -1.7)
    lat_pos = lat_q(-0.3, 1.7)
    assert lat_neg.z.y_part > 0
    assert lat_neg.same_z_span(lat_pos)
