"""O_F-lattices in D_F: pseudo-basis presentations a*z + b (optionally right
multiplied by an invertible t in D_F), derived real Z-bases and Gram data,
covolumes, trace-pairing duals, norm-bounded point enumeration, and the
Gaussian theta function.

Coordinates: C is identified with R^2 via (re, im); a quaternion x + y*j
with R^4 via (re x, im x, re y, im y).  The reference Haar measure is
Lebesgue on C (real place) and 4 * Lebesgue on H (complex place).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence

import numpy as np

from . import numerics
from .basefield import FieldDescriptor, FracIdeal
from .dalgebra import DNumber, Quaternion
from .errors import DegenerateLatticeError, EnumerationCapError

_REL_VOLUME_TOL = 1e-10
# the cap on the size of the coefficient box a single enumeration may visit
ENUM_POINT_CAP = 400_000_000
# ball_points yields about this many points per array
_CHUNK_POINTS = 4_000_000


def _component_coords(c) -> np.ndarray:
    if isinstance(c, Quaternion):
        return np.array(c.coords, dtype=float)
    return np.array([c.real, c.imag], dtype=float)


def _vector_from_coords(field: FieldDescriptor, v: np.ndarray) -> DNumber:
    if field.is_rational:
        return DNumber(field, (complex(v[0], v[1]),))
    return DNumber(field, (Quaternion(complex(v[0], v[1]), complex(v[2], v[3])),))


class OFLattice:
    """A discrete cocompact O_F-submodule of D_F.

    Either built from pseudo-basis data (ideal_a * z + ideal_b) * scale, or
    directly from a real Z-basis (in which case only the Z-lattice structure
    is available, e.g. for duals).
    """

    def __init__(self, field: FieldDescriptor, ideal_a: Optional[FracIdeal] = None,
                 z: Optional[DNumber] = None, ideal_b: Optional[FracIdeal] = None,
                 scale: Optional[DNumber] = None,
                 z_basis: Optional[Sequence[DNumber]] = None):
        if not field.is_supported_base:
            raise DegenerateLatticeError(
                f"{field.label} is not a supported base field for lattices")
        self.field = field
        self.lebesgue_factor = 1.0 if field.is_rational else 4.0
        self.dim = 2 * field.degree

        if z_basis is not None:
            self.ideal_a = self.ideal_b = None
            self.z = None
            self.scale = None
            self._basis = list(z_basis)
            if len(self._basis) != self.dim:
                raise DegenerateLatticeError("wrong Z-basis length")
        else:
            if ideal_a is None or ideal_b is None or z is None:
                raise DegenerateLatticeError("pseudo-basis data incomplete")
            z = self._normalize_orientation(z)
            self.ideal_a, self.ideal_b, self.z = ideal_a, ideal_b, z
            self.scale = scale
            y = z.y_part
            if y == 0 or (isinstance(y, complex) and abs(y) == 0.0):
                raise DegenerateLatticeError("y-part of z must be invertible")
            self._basis = self._pseudo_z_basis()

        self.M = np.column_stack([
            np.concatenate([_component_coords(c) for c in v.components])
            for v in self._basis])
        det = np.linalg.det(self.M)
        if abs(det) < 1e-300:
            raise DegenerateLatticeError("Z-basis is singular")
        self.Minv = np.linalg.inv(self.M)
        self._det_volume = self.lebesgue_factor * abs(det)

        if self.z is not None:
            closed = self._closed_form_volume()
            if abs(closed - self._det_volume) > _REL_VOLUME_TOL * closed:
                raise DegenerateLatticeError(
                    f"volume mismatch: closed form {closed} vs determinant "
                    f"{self._det_volume}")
            self.covolume = closed
        else:
            self.covolume = self._det_volume

    # -- construction helpers -------------------------------------------------

    def _normalize_orientation(self, z: DNumber) -> DNumber:
        # for F = Q fix y > 0 (replace z by -z; the lattice is unchanged)
        if self.field.is_rational and z.y_part < 0:
            return -z
        return z

    def _pseudo_z_basis(self) -> List[DNumber]:
        F = self.field
        vecs = []
        for g in self.ideal_a.z_basis():
            e = F.embed(g, 0) if not F.is_rational else float(g)
            vecs.append(self.z.scalar_mul(e))
        for g in self.ideal_b.z_basis():
            e = F.embed(g, 0) if not F.is_rational else float(g)
            if F.is_rational:
                vecs.append(DNumber.from_xy(F, e, 0.0))
            else:
                vecs.append(DNumber(F, (Quaternion(complex(e), 0j),)))
        if self.scale is not None:
            vecs = [v * self.scale for v in vecs]
        return vecs

    def _closed_form_volume(self) -> float:
        F = self.field
        y = self.z.y_part
        ny = abs(y) if F.is_rational else abs(y) ** 2
        vol = abs(F.discriminant) * float(self.ideal_a.absolute_norm()) \
            * float(self.ideal_b.absolute_norm()) * ny
        if self.scale is not None:
            from .dalgebra import dnorm
            vol *= dnorm(self.scale) ** 2
        return vol

    # -- norms ----------------------------------------------------------------

    def euclid_radius(self, norm_bound: float) -> float:
        """Euclidean radius corresponding to the algebra norm bound."""
        return norm_bound if self.field.is_rational else math.sqrt(norm_bound)

    # -- dual -------------------------------------------------------------------

    def form_matrix(self) -> np.ndarray:
        if self.field.is_rational:
            return np.diag([1.0, -1.0])
        return 2.0 * np.diag([1.0, -1.0, -1.0, -1.0])

    def gram(self) -> np.ndarray:
        return self.M.T @ self.form_matrix() @ self.M

    def dual(self) -> "OFLattice":
        """Dual lattice for the pairing exp(2 pi i Tr(x-part(l*m))), returned
        as a Z-lattice."""
        G = self.gram()
        if abs(np.linalg.det(G)) < 1e-300:
            raise DegenerateLatticeError("singular Gram matrix")
        Mstar = np.linalg.solve(self.form_matrix(), np.linalg.inv(self.M).T)
        basis = [_vector_from_coords(self.field, Mstar[:, j])
                 for j in range(self.dim)]
        return OFLattice(self.field, z_basis=basis)

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
            norms = np.sqrt(r2, out=r2) if self.field.is_rational else r2
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

    # -- misc ------------------------------------------------------------------------

    def z_basis_vectors(self) -> List[DNumber]:
        return list(self._basis)

    def left_mul(self, c: DNumber) -> "OFLattice":
        """The lattice c * Lambda (Z-basis presentation)."""
        return OFLattice(self.field, z_basis=[c * v for v in self._basis])

    def right_mul(self, c: DNumber) -> "OFLattice":
        return OFLattice(self.field, z_basis=[v * c for v in self._basis])

    def contains_coeffs(self, other: "OFLattice") -> bool:
        """Whether every basis vector of `other` has integral coordinates in
        this lattice's basis, to within 1e-9."""
        C = self.Minv @ other.M
        return bool(np.all(np.abs(C - np.round(C)) < 1e-9))

    def same_z_span(self, other: "OFLattice") -> bool:
        return self.contains_coeffs(other) and other.contains_coeffs(self)

    def pseudo_normal_form(self):
        """For F = Q: (z', w2) with Lambda = (Z z' + Z) * w2 recovered from the
        Z-basis, Im z' > 0.  Needed to feed duals back into the expansion."""
        if not self.field.is_rational:
            raise DegenerateLatticeError(
                "pseudo-basis recovery from a Z-basis is implemented for F = Q")
        w1 = complex(self.M[0, 0], self.M[1, 0])
        w2 = complex(self.M[0, 1], self.M[1, 1])
        if w2 == 0:
            raise DegenerateLatticeError("degenerate basis")
        zq = w1 / w2
        if zq.imag == 0:
            raise DegenerateLatticeError("basis spans a line")
        if zq.imag < 0:
            zq = -zq
        return zq, w2

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
    box is checked against ENUM_POINT_CAP (EnumerationCapError), and the
    search stays inside it.  The search is Fincke-Pohst's on M = Q L, L
    lower triangular: with t_i = (L c)_i, |M c|^2 = sum t_i^2, and once
    c_0, ..., c_{i-1} are fixed, t_i^2 <= r^2 - sum_{j<i} t_j^2 leaves c_i
    one integer interval.  The last coefficient runs over that interval
    minus the part inside r_min; in dimension 1, over 1 <= c <= r/|a|.
    """
    dim = M.shape[0]
    row_norms = (1 / np.abs(M[0]) if dim == 1
                 else np.linalg.norm(np.linalg.inv(M), axis=1))
    radii = np.floor(row_norms * r + 1e-9).astype(np.int64)
    total = math.prod(2 * int(k) + 1 for k in radii)
    if total > ENUM_POINT_CAP:
        raise EnumerationCapError(f"enumeration box of {total} points "
                                  f"exceeds the cap {ENUM_POINT_CAP}")
    r2_max = r ** 2 * (1 + 1e-12)
    r2_min = r_min ** 2 * (1 + 1e-12)
    if dim == 1:
        for lo in range(1, radii[0] + 1, _CHUNK_POINTS):
            c = np.arange(lo, min(lo + _CHUNK_POINTS, radii[0] + 1))
            r2 = (M[0, 0] * c) ** 2
            keep = (r2 <= r2_max) & (r2 > r2_min)
            if keep.any():
                yield (r2[keep], c[None, keep]) if coeffs else r2[keep]
        return
    L = np.linalg.qr(M[:, ::-1], mode="r")[::-1, ::-1]
    L *= np.sign(np.diag(L))[:, None]
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
    for start, stop in zip([0, *cuts[:-1]], cuts):
        r2, cols = block(slice(start, stop))
        if r2.size:
            yield (r2, cols) if coeffs else r2


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The runs of integers starts[k], ..., starts[k] + lens[k] - 1 in turn."""
    out = np.repeat(starts - np.cumsum(lens) + lens, lens)
    out += np.arange(out.size)
    return out

