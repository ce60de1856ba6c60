"""O_F-lattices in D_F: pseudo-basis presentations a*z + b, derived real
Z-bases, covolumes, trace-pairing duals, norm-bounded point enumeration, and
the Gaussian theta function.  This module holds the one real
embedding of ideals (ideal_embedding_matrix) and of lattices (OFLattice.M).

Coordinates: C is identified with R^2 via (re, im); a quaternion x + y*j
with R^4 via (re x, im x, re y, im y).  The reference Haar measure is
Lebesgue on C (real place) and 4 * Lebesgue on H (complex place).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterator, Optional

import numpy as np

from . import numerics
from .basefield import FieldDescriptor, FracIdeal
from .dalgebra import DNumber
from .errors import DegenerateLatticeError, EnumerationCapError

_REL_VOLUME_TOL = 1e-10
# the cap on the size of the coefficient box a single enumeration may visit
ENUM_POINT_CAP = 400_000_000
# ball_points yields about this many points per array: blocks whose
# temporaries (8 bytes a point each) stay in a 2 MB L2 cache.  Blocks of
# 2^15 points were as fast but raised the peak RSS of a run of direct sums
# by 6-13%: the malloc heap they fill is left fragmented
_CHUNK_POINTS = 1 << 16
# ball_points lists coefficient boxes of at most this many points whole, in
# one array pass, in place of the level-by-level search: near the measured
# crossover of the two on a 2-core x86-64 machine
_DENSE_BOX = 8192
# ball_points keeps the balls and annuli it lists (_BallCache), up to this
# many bytes in all.  The kept blocks lie in the malloc heap, and larger caps
# leave it fragmented: on a 2-core x86-64 machine the median peak RSS of the
# seed-1 direct-sums benchmark deck was 105.0 MB at 8 MB, 108.4 MB at 6 MB
# and 98.7 MB at 4 MB, against 97.5 MB when 8 MB of kept copies lay in
# memory maps outside the heap; its wall time was 0.269, 0.278 and 0.279 s,
# against 0.299 s with the copies.  The 60 one-block balls of a
# continuation pass take 0.82 MB
_BALL_CACHE_BYTES = 4 << 20


def ideal_embedding_matrix(ideal: FracIdeal) -> np.ndarray:
    """Real matrix of the embedded Z-basis columns: [[a]] for aZ over Q,
    rows (re, im) over an imaginary field, one row per place over a real
    quadratic field."""
    K = ideal.field
    if K.is_rational:
        return np.array([[float(ideal.gen)]])
    g1, g2 = ideal.z_basis()
    if K.is_imaginary_quadratic:
        w1, w2 = K.embed(g1, 0), K.embed(g2, 0)
        return np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
    return np.array([[K.embed(g1, 0), K.embed(g2, 0)],
                     [K.embed(g1, 1), K.embed(g2, 1)]])


def _pseudo_basis_matrix(Ea: np.ndarray, x, y, Eb: np.ndarray) -> np.ndarray:
    """The basis matrix of a z + b, z = x + y j: a column e z for each
    embedded basis element e of a (the columns of Ea), then a column e for
    each of b (Eb).  Over Q each place gives the rows of x-part and y-part,
    (e x, e y); over an imaginary field their (re, im) rows, with the
    products of complex multiplication written out."""
    if Ea.shape[0] == 1:
        rows = [Ea[0] * x, Ea[0] * y]
    else:
        er, ei = Ea
        rows = [f for v in (x, y)
                for f in (er * v.real - ei * v.imag, er * v.imag + ei * v.real)]
    return np.hstack([np.array(rows), np.vstack([Eb, np.zeros_like(Eb)])])


def _require_of_module(field: FieldDescriptor, M: np.ndarray):
    """DegenerateLatticeError unless the Z-lattice with basis columns M is
    an O_F-module of D_F, M^-1 Omega M integral within 1e-9 for the action
    Omega of omega on one side: on the left, omega (x + y j) = omega x +
    omega y j, as on a z + b; or on the right, (x + y j) omega = x omega +
    conj(omega) y j, as on the dual of a left module (Tr x-part(l omega m)
    pairs l omega with m and l with omega m)."""
    w = field.omega_embeddings()[0]
    # omega and conj(omega) as real 2 x 2 matrices on (re, im)
    R = np.array([[w.real, -w.imag], [w.imag, w.real]])
    x, y = R @ M[:2], M[2:]
    C = np.linalg.solve(M, np.concatenate([np.concatenate([x, R @ y]),
                                           np.concatenate([x, R.T @ y])], 1))
    C -= np.rint(C)
    np.abs(C, out=C)
    off = min(float(C[:, :4].max()), float(C[:, 4:].max()))
    if not off <= 1e-9:
        raise DegenerateLatticeError(
            f"Z-basis spans no O_F-module: omega takes it {off:.3g} off "
            f"the lattice")


class OFLattice:
    """A discrete cocompact O_F-submodule of D_F, held as its real basis
    matrix M (columns in the coordinates above).

    Either built from pseudo-basis data ideal_a * z + ideal_b, or directly
    from a real basis matrix z_basis (in which case only the Z-lattice
    structure is available, e.g. for duals).  Over an imaginary field a
    z_basis must span an O_F-module, with O_F acting on the left or, as on
    a dual, on the right (_require_of_module): the lattice route takes the
    dual at covolume 1 for a turned copy of the lattice, which holds for
    an O_F-lattice alone.
    """

    def __init__(self, field: FieldDescriptor, ideal_a: Optional[FracIdeal] = None,
                 z: Optional[DNumber] = None, ideal_b: Optional[FracIdeal] = None,
                 z_basis: Optional[np.ndarray] = None):
        if not field.is_supported_base:
            raise DegenerateLatticeError(
                f"{field.label} is not a supported base field for lattices")
        self.field = field
        self.dim = 2 * field.degree

        if z_basis is not None:
            self.ideal_a = self.ideal_b = None
            self.z = None
            self.M = np.array(z_basis, dtype=float)
            if self.M.shape != (self.dim, self.dim):
                raise DegenerateLatticeError("wrong Z-basis shape")
        else:
            if ideal_a is None or ideal_b is None or z is None:
                raise DegenerateLatticeError("pseudo-basis data incomplete")
            # over Q, y > 0: -z spans the same lattice
            if field.is_rational and z.y_part < 0:
                z = DNumber.from_xy(field, -z.x_part, -z.y_part)
            self.ideal_a, self.ideal_b, self.z = ideal_a, ideal_b, z
            if z.y_part == 0:
                raise DegenerateLatticeError("y-part of z must be invertible")
            self.M = _pseudo_basis_matrix(ideal_embedding_matrix(ideal_a),
                                          z.x_part, z.y_part,
                                          ideal_embedding_matrix(ideal_b))

        det = np.linalg.det(self.M)
        if abs(det) < 1e-300:
            raise DegenerateLatticeError("Z-basis is singular")
        if z_basis is not None and not field.is_rational:
            _require_of_module(field, self.M)
        det_volume = (1.0 if field.is_rational else 4.0) * abs(det)
        if self.z is None:
            self.covolume = det_volume
            return
        # V(a z + b) = |d_F| N(a) N(b) |N(y)|
        y = self.z.y_part
        closed = abs(field.discriminant) * float(ideal_a.absolute_norm()) \
            * float(ideal_b.absolute_norm()) \
            * (abs(y) if field.is_rational else abs(y) ** 2)
        if abs(closed - det_volume) > _REL_VOLUME_TOL * closed:
            raise DegenerateLatticeError(
                f"volume mismatch: closed form {closed} vs determinant "
                f"{det_volume}")
        self.covolume = closed

    # -- norms ----------------------------------------------------------------

    def euclid_radius(self, norm_bound: float) -> float:
        """Euclidean radius corresponding to the algebra norm bound."""
        return norm_bound if self.field.is_rational else math.sqrt(norm_bound)

    # -- dual -------------------------------------------------------------------

    def form_matrix(self) -> np.ndarray:
        if self.field.is_rational:
            return np.diag([1.0, -1.0])
        return 2.0 * np.diag([1.0, -1.0, -1.0, -1.0])

    def dual(self) -> "OFLattice":
        """Dual lattice for the pairing exp(2 pi i Tr(x-part(l*m))), returned
        as a Z-lattice."""
        return OFLattice(self.field, z_basis=np.linalg.solve(
            self.form_matrix(), np.linalg.inv(self.M).T))

    # -- enumeration -------------------------------------------------------------

    def norm_chunks(self, norm_bound: float,
                    inner_bound: float = 0.0) -> Iterator[np.ndarray]:
        """Yield arrays of algebra norms of the nonzero points with
        inner_bound < ||lambda|| <= norm_bound, one point of each pair
        +-lambda as ball_points yields them (a sum over all nonzero points is
        twice the sum over these; no other orbit grouping).  Consecutive
        shells (B0, B1], (B1, B2], ... yield each point exactly once."""
        # a norm scales like a squared length over imaginary fields and like
        # a length over Q, and the covolume like the square of either
        floor = 1e-12 * math.sqrt(self.covolume)
        for r2 in ball_points(self.M, self.euclid_radius(norm_bound),
                              r_min=self.euclid_radius(inner_bound)):
            norms = np.sqrt(r2) if self.field.is_rational else r2
            if float(norms.min()) < floor:
                raise DegenerateLatticeError(
                    "enumerated a nonzero point of near-zero norm")
            yield norms

    # -- theta ---------------------------------------------------------------------

    def theta(self, t, tol: float = 1e-12) -> float:
        """Theta(t, Lambda) = sum over the lattice of
        prod_v exp(-n_v pi |t_v l_v|^2), including the lambda = 0 term."""
        at = abs(t)
        if at == 0.0:
            raise ValueError("t must be invertible")
        L = math.log(1.0 / tol) + numerics.TAIL_MARGIN
        n_v = 1.0 if self.field.is_rational else 2.0
        # n_v pi |t|^2 r_eucl^2 <= L
        r_eucl = math.sqrt(L / (n_v * math.pi)) / at
        bound = r_eucl if self.field.is_rational else r_eucl ** 2
        half = 0.0
        for norms in self.norm_chunks(bound):
            if self.field.is_rational:
                half += float(np.sum(np.exp(-math.pi * (at * norms) ** 2)))
            else:
                half += float(np.sum(np.exp(-2.0 * math.pi * at * at * norms)))
        return 1.0 + 2.0 * half

    def __repr__(self):
        if self.z is not None:
            return (f"OFLattice({self.field.label}, a={self.ideal_a}, "
                    f"b={self.ideal_b}, V={self.covolume:.6g})")
        return f"OFLattice({self.field.label}, Z-basis, V={self.covolume:.6g})"


def ball_points(M: np.ndarray, r: float, coeffs: bool = False,
                r_min: float = 0.0) -> Iterator:
    """Enumerate the nonzero points M c (c integral) of the lattice with basis
    columns M (dimension 1, 2 or 4) with r_min < |M c| <= r (Euclidean),
    one point of each pair +-c: the one whose first nonzero coefficient is
    positive.  Every summand the library forms is even under c -> -c, so a
    sum over all nonzero points is twice the sum over these.

    Yields arrays of squared lengths, about _CHUNK_POINTS points at a time;
    with coeffs=True yields pairs (squared lengths, integer coefficient
    columns of shape (dim, n)).  Points come in lexicographic order of c.
    Both radii carry the same relative slack and a point's squared length
    does not depend on the radii, so annuli (r0, r1], (r1, r2], ... split
    the half ball (0, rk] exactly.

    Every point of the ball has |c_i| <= ||row_i(M^-1)|| r; the size of that
    box is checked against ENUM_POINT_CAP before any cast to int64
    (EnumerationCapError, also for a non-finite r), and the search stays
    inside it.  The search is Fincke-Pohst's on M = Q L, L lower
    triangular: with t_i = (L c)_i, |M c|^2 = sum t_i^2, and once
    c_0, ..., c_{i-1} are fixed, t_i^2 <= r^2 - sum_{j<i} t_j^2 leaves c_i
    one integer interval.  The last coefficient runs over that interval
    minus the part inside r_min; in dimension 1, over 1 <= c <= r/|a|.  A
    box of at most _DENSE_BOX points is listed whole instead, in one array
    (_dense_box), whose t_i and squared lengths come from the same
    floating-point operations in the same order as the levels': both give
    the same points, squared lengths and order, bit for bit.

    What the search lists is kept per process, in one cache of at most
    _BALL_CACHE_BYTES bytes that drops the least recently used entry first
    (_BallCache), and served again bit for bit: the same points, squared
    lengths, coefficients, blocks and order as a fresh enumeration.  A
    listing is kept by basis, coeffs and r_min, and by r as well if the
    search cut it into more than one block (_kept_key).  One of one block
    serves every smaller r too, as its block under the same test r^2 <=
    r_max^2 (1 + 1e-12): the box of a smaller r holds fewer candidates, so
    its fresh listing is one block too, of the points that pass.  One of
    several blocks serves its own r only, where that test keeps every
    point.  A listing is kept if its candidates fit under the cap at 8
    bytes each, and 8 more for each coefficient with coeffs=True, as
    _enumerate counts them before the listing; its blocks are held by
    reference, and kept once the last has been yielded.  A negative radius
    is listed afresh.  Every array ball_points yields is read-only, kept or
    not.
    """
    basis = (M.tobytes(), M.shape, M.dtype.str)
    cacheable = r >= 0
    kept = _BALLS.get(basis, coeffs, r_min, r) if cacheable else None
    dim = M.shape[0]
    if kept is not None:
        row_norms = kept.row_norms
    else:
        row_norms = (1 / np.abs(M[0]) if dim == 1
                     else np.linalg.norm(np.linalg.inv(M), axis=1))
    # the box holds every point within the slack of the test on r^2 below
    box = np.floor(row_norms * r * (1 + 1e-12) + 1e-9)
    # in Python integers, which do not wrap round past 2^63 as int64 does
    size = (math.prod(2 * int(k) + 1 for k in box)
            if np.isfinite(box).all() else math.inf)
    if size > ENUM_POINT_CAP:
        raise EnumerationCapError(f"enumeration box of {size} points "
                                  f"exceeds the cap {ENUM_POINT_CAP}")
    r2_max = r ** 2 * (1 + 1e-12)
    if kept is not None:
        yield from kept.blocks(r2_max)
        return
    n_blocks, points, blocks = _enumerate(M, box.astype(np.int64), size, r,
                                          r2_max, r_min ** 2 * (1 + 1e-12),
                                          coeffs)
    if not cacheable:
        yield from map(_read_only, blocks)
        return
    yield from _BALLS.keep(basis, coeffs, r_min, r, row_norms, n_blocks,
                           points, blocks)


def _enumerate(M: np.ndarray, radii: np.ndarray, size: int, r: float,
               r2_max: float, r2_min: float, coeffs: bool):
    """ball_points' search, in the coefficient box |c_i| <= radii[i] of
    `size` points, with the radii's slack already in r2_max and r2_min:
    the number of blocks it cuts the box into (at most as many are
    yielded), the number of candidate points it tests (at least as many
    as it yields), and an iterator of the blocks."""
    dim = M.shape[0]
    if dim == 1:
        def line():
            for lo in range(1, radii[0] + 1, _CHUNK_POINTS):
                c = np.arange(lo, min(lo + _CHUNK_POINTS, radii[0] + 1))
                r2 = (M[0, 0] * c) ** 2
                keep = (r2 <= r2_max) & (r2 > r2_min)
                if keep.any():
                    yield (r2[keep], c[None, keep]) if coeffs else r2[keep]
        return -(-int(radii[0]) // _CHUNK_POINTS), int(radii[0]), line()
    L = np.linalg.qr(M[:, ::-1], mode="r")[::-1, ::-1]
    L *= np.sign(np.diag(L))[:, None]
    if size <= _DENSE_BOX:
        return 1, size // 2, _dense_box(L, radii, r2_max, r2_min, coeffs)
    # the intervals are widened by this allowance for rounding in t_i; the
    # test on the computed squared lengths decides
    pad = 1e-7 * r

    def span(i, u, S, r2, pad):
        # the integers c_i with |L_ii c_i + u| <= sqrt(r2 - S) + pad
        w = (np.sqrt(np.maximum(r2 - S, 0.0)) + pad) / L[i, i]
        ctr = -u / L[i, i]
        return np.stack([np.ceil(ctr - w), np.floor(ctr + w)]).astype(np.int64)

    # One row per choice of c_0, ..., c_{i-1}: C holds them, u = L[i:, :i] C
    # and S is the sum of their t_j^2.  On any row but the zeros, the first
    # nonzero c_j gives t_j = L_jj c_j, so S > 0: S = 0 marks the row of
    # zeros, on which c_i starts at 0 so that the first nonzero coefficient
    # is positive.  c = 0 is the only point of squared length 0, which the
    # final test drops.
    C = np.zeros((0, 1), dtype=np.int64)
    u = np.zeros((dim, 1))
    S = np.zeros(1)
    for i in range(dim):
        lo, hi = np.clip(span(i, u[0], S, r2_max, pad), -radii[i], radii[i])
        lo[(S == 0) & (lo < 0)] = 0
        if i == dim - 1:
            break
        n = np.maximum(hi - lo + 1, 0)
        ci = _runs(lo, n)
        t = np.repeat(u[0], n) + L[i, i] * ci
        S = np.repeat(S, n) + t * t
        u = np.repeat(u[1:], n, axis=1) + np.outer(L[i + 1:, i], ci)
        C = np.vstack([np.repeat(C, n, axis=1), ci])

    # the last coefficient (i = dim - 1) skips [a, b], which lies inside r_min
    a, b = span(i, u[0], S, r2_min, -pad)
    b = np.maximum(b, a - 1)
    starts = np.stack([lo, np.maximum(b + 1, lo)], axis=1)
    lens = np.stack([np.minimum(a - 1, hi) - lo + 1, hi - starts[:, 1] + 1],
                    axis=1)
    np.maximum(lens, 0, out=lens)
    counts = lens.sum(axis=1)

    def block(rows: slice):
        c = _runs(starts[rows].ravel(), lens[rows].ravel())
        r2 = c * L[i, i]
        r2 += np.repeat(u[0, rows], counts[rows])
        r2 *= r2
        r2 += np.repeat(S[rows], counts[rows])
        keep = r2 <= r2_max
        keep &= r2 > r2_min
        cols = np.vstack([np.repeat(C[:, rows], counts[rows], axis=1),
                          c])[:, keep] if coeffs else None
        return (r2 if keep.all() else r2[keep]), cols

    ends = np.cumsum(counts)
    chunk = _CHUNK_POINTS
    cuts = np.searchsorted(ends, np.arange(chunk, ends[-1] + chunk, chunk),
                           side="right")

    def blocks():
        for start, stop in zip([0, *cuts[:-1]], cuts):
            r2, cols = block(slice(start, stop))
            if r2.size:
                yield (r2, cols) if coeffs else r2
    return len(cuts), int(ends[-1]), blocks()


def _dense_box(L: np.ndarray, radii: np.ndarray, r2_max: float,
               r2_min: float, coeffs: bool) -> Iterator:
    """ball_points over the whole box |c_i| <= radii[i], as one array.  In
    lexicographic order the entries past the box's centre are exactly the c
    whose first nonzero coefficient is positive.  u accumulates L[i, j] c_j
    from zero, t_i = u + L_ii c_i and S += t_i^2 as the levels of the search
    do, and the last level's r^2 = t^2 + S."""
    size = int(np.prod(2 * radii + 1))
    C = np.array(np.unravel_index(np.arange(size // 2 + 1, size),
                                  2 * radii + 1)) - radii[:, None]
    S = np.zeros(C.shape[1])
    for i in range(L.shape[0]):
        u = np.zeros(C.shape[1])
        for j in range(i):
            u += L[i, j] * C[j]
        t = u + L[i, i] * C[i]
        t *= t
        S += t
    keep = S <= r2_max
    keep &= S > r2_min
    if keep.any():
        yield (S[keep], C[:, keep]) if coeffs else S[keep]


def _read_only(block):
    """A block of ball_points, an array or a tuple of arrays, made
    read-only."""
    for a in block if isinstance(block, tuple) else (block,):
        a.flags.writeable = False
    return block


def _kept_key(basis, coeffs: bool, r_min: float, r: Optional[float]):
    """The key a listing is kept under: its basis, coeffs and inner radius,
    and its outer radius r, which is None for a listing of one block."""
    return basis, coeffs, r_min, r


class _Kept:
    """A listing that ball_points keeps: its outer radius, the row norms of
    M^-1 that size its box, and the blocks it yielded (parts), read-only
    and held by reference."""

    def __init__(self, r: float, row_norms: np.ndarray, parts: list):
        self.r, self.row_norms, self.parts = r, row_norms, parts
        # with 1 kB for the entry's Python objects (its key, this object and
        # the array headers take about 700 bytes), so that many small
        # listings stay under the cap too
        self.nbytes = 1024 + row_norms.nbytes + sum(
            a.nbytes for part in parts
            for a in (part if isinstance(part, tuple) else (part,)))

    def blocks(self, r2_max: float) -> Iterator:
        """The points of the parts with r^2 <= r2_max, as ball_points yields
        them."""
        for part in self.parts:
            coeffs = isinstance(part, tuple)
            r2 = part[0] if coeffs else part
            keep = r2 <= r2_max
            if keep.all():
                yield part
            elif keep.any():
                yield _read_only((r2[keep], part[1][:, keep]) if coeffs
                                 else r2[keep])


class _BallCache:
    """The listings ball_points keeps (_Kept), least recently used first,
    at most _BALL_CACHE_BYTES in all, under _kept_key."""

    def __init__(self):
        self.nbytes = 0
        self.balls = OrderedDict()

    def get(self, basis, coeffs: bool, r_min: float, r: float):
        """The kept listing of one block of the basis, coeffs and r_min if
        it reaches r, else the one kept at exactly r, else None."""
        for key in (_kept_key(basis, coeffs, r_min, None),
                    _kept_key(basis, coeffs, r_min, r)):
            kept = self.balls.get(key)
            if kept is not None and r <= kept.r:
                self.balls.move_to_end(key)
                return kept
        return None

    def keep(self, basis, coeffs: bool, r_min: float, r: float,
             row_norms: np.ndarray, n_blocks: int, points: int,
             blocks: Iterator) -> Iterator:
        """Yield the blocks of a fresh listing of `points` candidates in
        `n_blocks` blocks, read-only, and keep them if the candidates fit
        under the cap: room is made before the first block, and the listing
        is kept after the last, in place of what was kept under its key."""
        # 8 bytes a candidate's squared length, and 8 for each of its
        # coefficients (one a row norm) with coeffs=True
        need = 1024 + row_norms.nbytes \
            + 8 * points * (1 + coeffs * row_norms.size)
        if need > _BALL_CACHE_BYTES:
            yield from map(_read_only, blocks)
            return
        self._evict(_BALL_CACHE_BYTES - need)
        parts = []
        for block in blocks:
            parts.append(_read_only(block))
            yield block
        kept = _Kept(r, row_norms, parts)
        key = _kept_key(basis, coeffs, r_min, None if n_blocks <= 1 else r)
        old = self.balls.pop(key, None)
        self.nbytes -= old.nbytes if old else 0
        self._evict(_BALL_CACHE_BYTES - kept.nbytes)
        self.balls[key] = kept
        self.nbytes += kept.nbytes

    def _evict(self, limit: int):
        """Drop the least recently used entries until at most limit bytes
        are kept."""
        while self.nbytes > limit:
            self.nbytes -= self.balls.popitem(last=False)[1].nbytes

    def clear(self):
        self.balls.clear()
        self.nbytes = 0


_BALLS = _BallCache()


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The runs of integers starts[k], ..., starts[k] + lens[k] - 1 in turn."""
    out = np.repeat(starts - np.cumsum(lens) + lens, lens)
    out += np.arange(out.size)
    return out

