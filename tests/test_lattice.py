import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeis import lattice
from heckeis.basefield import FracIdeal, make_field
from heckeis.dalgebra import DNumber
from heckeis.errors import DegenerateLatticeError, EnumerationCapError
from heckeis.lattice import OFLattice, ball_points
from heckeis.verify import _quaternion_matrix
from lattice_helpers import lat_q, lat_quat, same_span

Q = make_field("Q")
ZZ = FracIdeal.unit_ideal(Q)


def point(v):
    """The point of D_F with coordinates v, in the convention of
    OFLattice.M: re + im i over Q from (re, im), and otherwise x + y j from
    (re x, im x, re y, im y) as the matrix [[x, y], [-conj y, conj x]],
    whose products are quaternion products."""
    if len(v) == 2:
        return complex(v[0], v[1])
    return _quaternion_matrix(complex(v[0], v[1]), complex(v[2], v[3]))


def coords(p):
    if isinstance(p, complex):
        return [p.real, p.imag]
    x, y = p[0]
    return [x.real, x.imag, y.real, y.imag]


def mul_matrix(f, dim):
    """The real matrix of a real-linear map f of D_F, such as l -> c l."""
    return np.column_stack([coords(f(point(e))) for e in np.eye(dim)])


def test_volume_basic():
    assert abs(lat_q(0.4, 1.3).covolume - 1.3) < 1e-12
    # V(a z + b) = d_F N(a) N(b) |N(y)|
    assert abs(lat_q(0.4, 1.3, a=2, b=3).covolume - 6 * 1.3) < 1e-12


def test_volume_scaling_law():
    # V(t Lambda) = ||t||^2 V(Lambda) for real t over Q
    lat = lat_q(0.3, 0.9)
    scaled = OFLattice(Q, z_basis=mul_matrix(lambda l: 1.7 * l, 2) @ lat.M)
    assert abs(scaled.covolume - 1.7 ** 2 * lat.covolume) < 1e-10


def test_volume_quaternion_example():
    Fi = make_field(-1)
    lat = lat_quat(Fi, 0j, 1 + 0j)      # z = j
    assert abs(lat.covolume - 4.0) < 1e-12


def test_basis_matrix_coordinates():
    # the columns e z for the embedded basis elements e of a, then e for
    # those of b, in the coordinates (re x, im x, re y, im y); over Q (re, im)
    lat = OFLattice(Q, FracIdeal(Q, gen=2), DNumber.from_xy(Q, -0.3, 1.7),
                    FracIdeal(Q, gen=Fraction(1, 2)))
    cases = [(lat, np.array([[-0.6, 0.5],
                             [3.4, 0.0]]))]
    # O = Z + Z w: w = i over Q(sqrt-1), w = (1 + sqrt-3)/2 over Q(sqrt-3)
    x, y = 0.25 + 0.5j, 0.75 - 1.5j
    cases.append((lat_quat(make_field(-1), x, y),
                  np.array([[0.25, -0.5, 1.0, 0.0],
                            [0.5, 0.25, 0.0, 1.0],
                            [0.75, 1.5, 0.0, 0.0],
                            [-1.5, 0.75, 0.0, 0.0]])))
    h = math.sqrt(3) / 2
    x, y = 0.25 + 0.5j, -0.75 + 1.25j
    cases.append((lat_quat(make_field(-3), x, y),
                  np.array([[0.25, 0.5 * 0.25 - h * 0.5, 1.0, 0.5],
                            [0.5, 0.5 * 0.5 + h * 0.25, 0.0, h],
                            [-0.75, 0.5 * -0.75 - h * 1.25, 0.0, 0.0],
                            [1.25, 0.5 * 1.25 + h * -0.75, 0.0, 0.0]])))
    for lat, M in cases:
        assert np.array_equal(lat.M, M)
        assert np.array_equal(lat.dual().M, np.linalg.solve(
            lat.form_matrix(), np.linalg.inv(M).T))


def test_degenerate_rejected():
    with pytest.raises(DegenerateLatticeError):
        lat_q(0.5, 0.0)


def test_dual_self_dual_square_lattice():
    lat = lat_q(0.0, 1.0)               # Z i + Z
    dual = lat.dual()
    assert same_span(lat.M, dual.M)
    assert abs(dual.covolume - 1.0) < 1e-12


def test_dual_volume_product_and_involution():
    rng = random.Random(2)
    for _ in range(10):
        lat = lat_q(rng.uniform(-1, 1), rng.uniform(0.5, 2.0),
                    a=rng.choice([1, 2, 3]), b=rng.choice([1, 2]))
        dual = lat.dual()
        assert abs(lat.covolume * dual.covolume - 1.0) < 1e-10
        assert same_span(dual.dual().M, lat.M)
    Fi = make_field(-3)
    lat = lat_quat(Fi, 0.2 - 0.4j, 1.1 + 0.3j)
    assert abs(lat.covolume * lat.dual().covolume - 1.0) < 1e-10
    assert same_span(lat.dual().dual().M, lat.M)


def test_dual_of_a_tiny_lattice():
    # covolume 1e-160: det M decides singularity, and M* is well defined
    # although the Gram determinant |det F| det(M)^2 underflows
    lat = OFLattice(Q, z_basis=1e-80 * np.eye(2))
    dual = lat.dual()
    assert abs(lat.covolume * dual.covolume - 1.0) < 1e-12
    assert np.array_equal(dual.dual().M, lat.M)


def test_dual_closed_form_over_q():
    # dual of Z(x + y i) + Z is (i/y)(Z(x - y i) + Z) as a set
    x, y = 0.37, 1.21
    lat = lat_q(x, y)
    dual = lat.dual()
    w = (1j / y) * complex(x, -y)
    expected = np.array([[w.real, 0.0], [w.imag, 1.0 / y]])
    assert same_span(dual.M, expected)


def test_dual_pairing_integrality():
    Fi = make_field(-1)
    lat = lat_quat(Fi, 0.2 + 0.1j, 0.8 - 0.5j)
    dual = lat.dual()
    for v in lat.M.T:
        for w in dual.M.T:
            # Tr of the x-part of the product
            e = 2 * (point(v) @ point(w))[0, 0].real
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
    z = 1 + 2j
    zlat = OFLattice(Q, z_basis=mul_matrix(lambda l: z * l, 2) @ lat.M)
    B = 30.0
    s1 = sum(float(np.sum(n ** (-2 * s))) for n in lat.norm_chunks(B))
    s2 = sum(float(np.sum(n ** (-2 * s)))
             for n in zlat.norm_chunks(B * abs(z)))
    assert abs(s2 - abs(z) ** (-2 * s) * s1) < 1e-9
    # quaternionic case: right multiplication
    Fi = make_field(-1)
    latq = lat_quat(Fi, 0.2 + 0.3j, 0.9 - 0.1j)
    zq = _quaternion_matrix(1 + 1j, 0.5 - 0.2j)
    zlatq = OFLattice(Fi, z_basis=mul_matrix(lambda l: l @ zq, 4) @ latq.M)
    B, norm = 8.0, np.linalg.det(zq).real        # |zq|^2
    q1 = sum(float(np.sum(n ** (-2 * s))) for n in latq.norm_chunks(B))
    q2 = sum(float(np.sum(n ** (-2 * s)))
             for n in zlatq.norm_chunks(B * norm))
    assert abs(q2 - norm ** (-2 * s) * q1) < 1e-9


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
def test_ball_points_match_brute_force(dim, monkeypatch, empty_ball_cache):
    r = 1.6 if dim == 4 else 2.5
    # the identity basis has points of squared length 1, exactly the first
    # radius with its slack: only an exclusive inner bound counts them once
    radii = [1.0 / math.sqrt(1 + 1e-12), (1.0 + r) / 2, r]
    assert radii[0] ** 2 * (1 + 1e-12) == 1.0
    calls = _counting_enumerations(monkeypatch)
    for k, M in enumerate(_random_bases(dim, 4, seed=dim) + [np.eye(dim)]):
        C_ref, r2_ref = _brute_ball(M, r)
        full = sorted(map(tuple, C_ref.T.tolist()))
        # both paths: the level search (no dense box) in large and in
        # small blocks, and the whole-box pass for the boxes it takes
        for dense, chunk in [(lattice._DENSE_BOX, lattice._CHUNK_POINTS),
                             (0, lattice._CHUNK_POINTS), (0, 37)]:
            monkeypatch.setattr(lattice, "_DENSE_BOX", dense)
            monkeypatch.setattr(lattice, "_CHUNK_POINTS", chunk)
            # the cache keys on no setting: a kept ball would skip the path
            empty_ball_cache.clear()
            del calls[:]
            out = list(ball_points(M, r, coeffs=True))
            assert calls == [r]
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


@given(dim=st.sampled_from([2, 4]), seed=st.integers(0, 2 ** 32 - 1),
       skew=st.floats(0.0, 3.0), shear=st.booleans(),
       radius=st.floats(0.1, 40.0), inner=st.floats(0.0, 1.0),
       coeffs=st.booleans())
@settings(max_examples=150)
def test_ball_points_dense_box_matches_level_search(dim, seed, skew, shear,
                                                    radius, inner, coeffs):
    # the whole-box pass gives the level search's squared lengths,
    # coefficients and order bit for bit
    rng = np.random.default_rng(seed)
    M = np.diag(rng.uniform(0.3, 2.0, dim)) \
        + skew * np.triu(rng.uniform(-1.0, 1.0, (dim, dim)), 1)
    if shear:
        # nearly parallel columns: a box far larger than the ball
        M[:, 1] = 0.999 * M[:, 0] + 1e-2 * M[:, 1]
    M = M @ np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    # each side of the box at most (2 _DENSE_BOX) ** (1/dim): the box holds
    # at most 2 _DENSE_BOX points, most of them on the dense side
    side = (2 * lattice._DENSE_BOX) ** (1 / dim)
    row_max = float(np.linalg.norm(np.linalg.inv(M), axis=1).max())
    r = min(radius, (side - 1) / (2 * row_max))

    def run(dense):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "_DENSE_BOX", dense)
            lattice._BALLS.clear()
            calls = _counting_enumerations(mp)
            out = list(ball_points(M, r, coeffs=coeffs, r_min=inner * r))
            lattice._BALLS.clear()
        assert calls == [r]
        r2 = b"".join((o[0] if coeffs else o).tobytes() for o in out)
        C = [col for _, c in out for col in c.T.tolist()] if coeffs else None
        return r2, C

    assert run(lattice._DENSE_BOX) == run(0)


@pytest.mark.parametrize("M", [np.eye(1), np.diag([1.0, 1e30]),
                               np.diag([1.0, 1e30, 1e30, 1e30])],
                         ids=["dim1", "dim2", "dim4"])
@pytest.mark.parametrize("r", [1e19, 1e40, math.inf, math.nan])
def test_ball_points_cap_rejects_boxes_past_int64(M, r):
    # the box side of the first coefficient passes 2^63 or is not finite;
    # the cap must reject it before any integer cast or allocation
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError):
            next(ball_points(M, r))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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


@pytest.fixture
def empty_ball_cache():
    """ball_points with no ball kept from earlier tests, and none left for
    later ones."""
    lattice._BALLS.clear()
    yield lattice._BALLS
    lattice._BALLS.clear()


def _listed(M, r, coeffs):
    """ball_points' output as bytes and lists, blocks kept apart."""
    out = list(ball_points(M, r, coeffs=coeffs))
    return [(o[0].tobytes(), o[1].tolist()) if coeffs else o.tobytes()
            for o in out]


def _counting_enumerations(monkeypatch):
    calls = []
    enumerate_ = lattice._enumerate

    def counted(*args):
        calls.append(args[3])
        return enumerate_(*args)

    monkeypatch.setattr(lattice, "_enumerate", counted)
    return calls


@pytest.mark.parametrize("dim", [1, 2, 4])
@pytest.mark.parametrize("coeffs", [False, True])
def test_kept_ball_is_a_fresh_enumeration_bit_for_bit(dim, coeffs, monkeypatch,
                                                      empty_ball_cache):
    # the radius the ball is kept at, below it (down to a radius with no
    # point), at it again, and above it, where it is listed afresh; the
    # sheared bases hold about 3e4 points, so the cap is raised to keep them
    monkeypatch.setattr(lattice, "_BALL_CACHE_BYTES", 1 << 26)
    calls = _counting_enumerations(monkeypatch)
    R = {1: 40.0, 2: 4.0, 4: 1.8}[dim]
    for M in _random_bases(dim, 3, seed=10 + dim) + [np.eye(dim)]:
        radii = [R * f for f in (0.0, 0.3, 0.61, 0.9, 1.0)]
        radii.append(min(np.abs(np.linalg.eigvalsh(M.T @ M))) ** 0.5 / 2)
        fresh = {}
        for r in radii + [1.3 * R]:
            empty_ball_cache.clear()
            fresh[r] = _listed(M, r, coeffs)
        empty_ball_cache.clear()
        assert _listed(M, R, coeffs) == fresh[R]
        del calls[:]
        for r in radii:
            assert _listed(M, r, coeffs) == fresh[r], (M, r)
        assert calls == []
        assert _listed(M, 1.3 * R, coeffs) == fresh[1.3 * R]
        assert calls == [1.3 * R]
        # now kept at 1.3 R
        assert _listed(M, R, coeffs) == fresh[R]
        assert calls == [1.3 * R]


@given(dim=st.sampled_from([2, 4]), seed=st.integers(0, 2 ** 32 - 1),
       skew=st.floats(0.0, 3.0), radius=st.floats(0.1, 3.0),
       below=st.floats(0.0, 1.0), coeffs=st.booleans())
@settings(max_examples=60)
def test_kept_ball_property(dim, seed, skew, radius, below, coeffs):
    rng = np.random.default_rng(seed)
    M = np.diag(rng.uniform(0.3, 2.0, dim)) \
        + skew * np.triu(rng.uniform(-1.0, 1.0, (dim, dim)), 1)
    M = M @ np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    try:
        lattice._BALLS.clear()
        want = _listed(M, below * radius, coeffs)
        lattice._BALLS.clear()
        _listed(M, radius, coeffs)
        assert _listed(M, below * radius, coeffs) == want
    finally:
        lattice._BALLS.clear()


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_kept_ball_still_rejects_non_finite_radii(r, empty_ball_cache):
    M = np.array([[1.0, 0.3], [0.2, 0.9]])
    assert _listed(M, 5.0, False)
    with pytest.raises(EnumerationCapError):
        next(ball_points(M, r))


def test_kept_ball_arrays_are_read_only(empty_ball_cache):
    M = np.array([[1.0, 0.3], [0.2, 0.9]])
    for r in (5.0, 5.0, 3.0):
        for r2, cols in ball_points(M, r, coeffs=True):
            with pytest.raises(ValueError, match="read-only"):
                r2[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                cols[0, 0] = 1
        for r2 in ball_points(M, r):
            with pytest.raises(ValueError, match="read-only"):
                r2 *= 2
    # the norms of a lattice over Q are square roots of the kept r^2
    lat = lat_q(0.3, 1.7)
    first = np.concatenate(list(lat.norm_chunks(6.0)))
    again = np.concatenate(list(lat.norm_chunks(6.0)))
    assert np.array_equal(first, again)
    r2 = np.concatenate(list(ball_points(lat.M, 6.0)))
    assert np.array_equal(first, np.sqrt(r2))


def _shells(M, requests, coeffs=False):
    """ball_points' output for each (r_min, r) in turn, as bytes and lists,
    blocks kept apart."""
    return [[(o[0].tobytes(), o[1].tolist()) if coeffs else o.tobytes()
             for o in ball_points(M, r, coeffs=coeffs, r_min=r_min)]
            for r_min, r in requests]


def _random_basis(dim, seed, skew):
    rng = np.random.default_rng(seed)
    M = np.diag(rng.uniform(0.3, 2.0, dim)) \
        + skew * np.triu(rng.uniform(-1.0, 1.0, (dim, dim)), 1)
    return M @ np.linalg.qr(rng.normal(size=(dim, dim)))[0]


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_kept_shell_is_a_fresh_listing_bit_for_bit(dim, monkeypatch,
                                                   empty_ball_cache):
    # the level search in blocks of about 64 points: balls of many blocks,
    # and annuli, each listed at most once (an annulus of one block serves
    # those of its inner radius inside it) and then served with the same
    # squared lengths, blocks and order; the shells of a sheared basis take
    # up to 4 MB, so the cap is raised to keep them
    monkeypatch.setattr(lattice, "_BALL_CACHE_BYTES", 1 << 26)
    monkeypatch.setattr(lattice, "_DENSE_BOX", 0)
    monkeypatch.setattr(lattice, "_CHUNK_POINTS", 64)
    calls = _counting_enumerations(monkeypatch)
    R = {1: 400.0, 2: 4.0, 4: 1.8}[dim]
    requests = [(0.0, R), (0.3 * R, R), (0.3 * R, 0.7 * R), (0.7 * R, R)]
    blocks = []
    for M in _random_bases(dim, 2, seed=20 + dim) + [np.eye(dim)]:
        fresh = []
        for req in requests:
            empty_ball_cache.clear()
            fresh += _shells(M, [req])
        blocks.append(len(fresh[0]))
        empty_ball_cache.clear()
        del calls[:]
        assert _shells(M, requests) == fresh
        assert 3 <= len(calls) <= len(requests)
        del calls[:]
        assert _shells(M, requests) == fresh
        assert calls == []
    assert max(blocks) > 10


def test_kept_shell_arrays_are_read_only(monkeypatch, empty_ball_cache):
    # an annulus, and a ball of several blocks of about 16 points, with
    # and without coefficients: read-only as listed, and served as the
    # same arrays, not copies
    M = np.array([[1.0, 0.3], [0.2, 0.9]])
    monkeypatch.setattr(lattice, "_DENSE_BOX", 0)
    monkeypatch.setattr(lattice, "_CHUNK_POINTS", 16)
    for coeffs in (False, True):
        for r_min in (2.0, 0.0):
            listed, served = (list(ball_points(M, 6.0, coeffs, r_min))
                              for _ in range(2))
            assert len(listed) > 1
            for block, again in zip(listed, served):
                assert block is again
                for a in block if coeffs else (block,):
                    with pytest.raises(ValueError, match="read-only"):
                        a[..., 0] = 1
    assert len(empty_ball_cache.balls) == 4


def test_shell_past_the_cap_is_not_kept(monkeypatch, empty_ball_cache):
    calls = _counting_enumerations(monkeypatch)
    M = np.array([[1.0, 0.3], [0.2, 0.9]])
    points = sum(r2.size for r2 in ball_points(M, 40.0, r_min=2.0))
    empty_ball_cache.clear()
    list(ball_points(M, 3.0))
    kept = dict(empty_ball_cache.balls)
    # room for the kept ball, and for the points but not the shell's
    # overhead: the shell is listed afresh, read-only, and evicts nothing
    monkeypatch.setattr(lattice, "_BALL_CACHE_BYTES", 8 * points)
    assert empty_ball_cache.nbytes < 8 * points
    del calls[:]
    for _ in range(2):
        for r2 in ball_points(M, 40.0, r_min=2.0):
            with pytest.raises(ValueError, match="read-only"):
                r2[0] = 1.0
    assert calls == [40.0, 40.0] and empty_ball_cache.balls == kept


def test_ball_cache_evicts_balls_and_shells_alike(monkeypatch,
                                                  empty_ball_cache):
    # in dimension 1 a ball's candidates are its points, so the room made
    # for it before it is listed is the room it takes: a ball of one block
    # of 16 points, and two of several blocks
    monkeypatch.setattr(lattice, "_CHUNK_POINTS", 16)
    calls = _counting_enumerations(monkeypatch)
    M = np.array([[0.5]])
    one, near, far = (0.0, 5.0), (0.0, 20.0), (0.0, 25.0)
    _shells(M, [one, near, far])
    size = {k: e.nbytes for k, e in empty_ball_cache.balls.items()}
    assert len(size) == 3 and sum(k[3] is None for k in size) == 1
    empty_ball_cache.clear()
    # room for any two of the three entries
    monkeypatch.setattr(lattice, "_BALL_CACHE_BYTES", sum(size.values()) - 1)
    del calls[:]
    _shells(M, [one, near, one])
    assert calls == [5.0, 20.0]
    # the far ball evicts the near one, the least recently used
    _shells(M, [far, one])
    assert calls == [5.0, 20.0, 25.0]
    _shells(M, [near])
    assert calls == [5.0, 20.0, 25.0, 20.0]
    # which evicted the far ball, not the one used since
    _shells(M, [one, far])
    assert calls == [5.0, 20.0, 25.0, 20.0, 25.0]
    assert empty_ball_cache.nbytes <= lattice._BALL_CACHE_BYTES


@given(dim=st.sampled_from([2, 4]), seed=st.integers(0, 2 ** 32 - 1),
       skew=st.floats(0.0, 3.0), blocks_of_16=st.booleans(),
       coeffs=st.booleans(),
       requests=st.lists(st.tuples(st.sampled_from([0.0, 0.4, 0.8, 1.3]),
                                   st.sampled_from([0.5, 1.0, 1.5, 2.5])),
                         min_size=1, max_size=8))
@settings(max_examples=60)
def test_kept_shells_property(dim, seed, skew, blocks_of_16, coeffs,
                              requests):
    # balls and annuli asked for in any order, with repeats, against the
    # same shells listed with nothing kept
    M = _random_basis(dim, seed, skew)
    with pytest.MonkeyPatch.context() as mp:
        if blocks_of_16:
            mp.setattr(lattice, "_DENSE_BOX", 0)
            mp.setattr(lattice, "_CHUNK_POINTS", 16)
        try:
            fresh = {}
            for req in requests:
                lattice._BALLS.clear()
                fresh[req] = _shells(M, [req], coeffs)[0]
            lattice._BALLS.clear()
            assert _shells(M, requests, coeffs) == [fresh[req]
                                                     for req in requests]
        finally:
            lattice._BALLS.clear()


def test_ball_cache_evicts_least_recently_used(monkeypatch, empty_ball_cache):
    calls = _counting_enumerations(monkeypatch)
    bases = [np.array([[1.0, 0.1 * k], [0.0, 1.0]]) for k in range(4)]
    size = lattice._Kept(4.0, np.zeros(2),
                         list(ball_points(bases[0], 4.0))).nbytes
    empty_ball_cache.clear()
    del calls[:]
    # room for two of the four balls (all of about the same size)
    monkeypatch.setattr(lattice, "_BALL_CACHE_BYTES", int(2.5 * size))
    for M in bases[:2]:
        list(ball_points(M, 4.0))
    list(ball_points(bases[0], 4.0))
    assert len(calls) == 2
    # the third ball evicts the second, the least recently used
    list(ball_points(bases[2], 4.0))
    assert len(empty_ball_cache.balls) == 2
    assert empty_ball_cache.nbytes <= lattice._BALL_CACHE_BYTES
    list(ball_points(bases[0], 4.0))
    assert len(calls) == 3
    list(ball_points(bases[1], 4.0))
    assert len(calls) == 4
    # a ball larger than the cap is not kept, and evicts nothing
    kept = dict(empty_ball_cache.balls)
    list(ball_points(bases[3], 40.0))
    list(ball_points(bases[3], 40.0))
    assert len(calls) == 6 and empty_ball_cache.balls == kept


def test_ball_cache_counts_the_objects_of_each_ball(empty_ball_cache):
    # 2,000 balls of a few points each: their arrays take 32 bytes a ball,
    # their Python objects about 700; the cap holds at most 1,024 of them
    rng = np.random.default_rng(5)
    for _ in range(2000):
        list(ball_points(np.eye(2) + 0.01 * rng.normal(size=(2, 2)), 1.2))
    assert len(empty_ball_cache.balls) <= lattice._BALL_CACHE_BYTES // 1024
    assert empty_ball_cache.nbytes <= lattice._BALL_CACHE_BYTES


def test_ball_points_box_holds_the_slack_of_the_radius(empty_ball_cache):
    # |c| = 10^4 lies within the ball's slack of r = 10^4/(1 + 4e-13), but
    # r/|a| + 1e-9 rounds down to 9999: the box must carry the slack too
    r = 1e4 / (1 + 4e-13)
    assert 1e8 <= r * r * (1 + 1e-12)
    out = np.concatenate(list(ball_points(np.eye(1), r)))
    assert out.size == 10 ** 4 and out[-1] == 1e8


def test_orientation_normalization():
    # y < 0 is normalized to y > 0 without changing the lattice
    lat_neg = lat_q(0.3, -1.7)
    lat_pos = lat_q(-0.3, 1.7)
    assert lat_neg.z.y_part > 0
    assert same_span(lat_neg.M, lat_pos.M)
