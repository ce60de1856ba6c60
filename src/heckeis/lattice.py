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
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .basefield import FieldDescriptor, FracIdeal, QuadElement
from .dalgebra import DNumber, Quaternion
from .errors import DegenerateLatticeError, EnumerationCapError
from .precision import DEFAULT, PrecisionConfig

_REL_VOLUME_TOL = 1e-10


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
                 z_basis: Optional[Sequence[DNumber]] = None,
                 config: PrecisionConfig = DEFAULT):
        if not field.is_supported_base:
            raise DegenerateLatticeError(
                f"{field.label} is not a supported base field for lattices")
        self.field = field
        self.config = config
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

    def norms_from_euclid(self, r2: np.ndarray) -> np.ndarray:
        """Algebra norms from squared Euclidean lengths."""
        return np.sqrt(r2) if self.field.is_rational else r2

    # -- volume ----------------------------------------------------------------

    def volume(self) -> float:
        """Covolume of D_F / Lambda; the closed form d_F N(a) N(b) |N(y)| when
        pseudo-basis data is present (checked against the determinant at
        construction)."""
        return self.covolume

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
        return OFLattice(self.field, z_basis=basis, config=self.config)

    # -- enumeration -------------------------------------------------------------

    def norm_chunks(self, norm_bound: float, inner_bound: float = 0.0,
                    chunk: int = 4_000_000) -> Iterator[np.ndarray]:
        """Yield arrays of algebra norms of the nonzero points with
        inner_bound < ||lambda|| <= norm_bound, one point of each pair
        +-lambda (||-lambda|| = ||lambda||, so a sum over all nonzero points
        is twice the sum over these; no other orbit grouping).  Consecutive
        shells (B0, B1], (B1, B2], ... yield each point exactly once."""
        floor = 1e-12 * self.covolume ** (1.0 / self.field.degree)
        for r2 in ball_points(self.M, self.euclid_radius(norm_bound),
                              self.config.enum_point_cap, chunk=chunk,
                              r_min=self.euclid_radius(inner_bound),
                              half=True):
            norms = np.sqrt(r2, out=r2) if self.field.is_rational else r2
            if float(norms.min()) < floor:
                raise DegenerateLatticeError(
                    "enumerated a nonzero point of near-zero norm")
            yield norms

    def points_upto(self, norm_bound: float) -> Tuple[np.ndarray, np.ndarray]:
        """All nonzero points with norm <= bound: (coefficient vectors,
        algebra norms).  Intended for modest bounds."""
        found = list(ball_points(self.M, self.euclid_radius(norm_bound),
                                 self.config.enum_point_cap, coeffs=True))
        r2 = np.concatenate([np.zeros(0)] + [r for r, _ in found])
        coeffs = np.concatenate([np.zeros((self.dim, 0), dtype=np.int64)]
                                + [c for _, c in found], axis=1)
        return coeffs.T, self.norms_from_euclid(r2)

    def unit_coeff_matrices(self) -> List[np.ndarray]:
        """Integer matrices describing left multiplication by each root of
        unity on the Z-basis (pseudo-basis lattices; Z-only lattices get
        the +-1 action)."""
        if self.z is None or self.field.is_rational:
            eye = np.eye(self.dim, dtype=np.int64)
            return [eye, -eye]
        mats = []
        for u in self.field.roots_of_unity():
            blocks = []
            for ideal in (self.ideal_a, self.ideal_b):
                g1, g2 = ideal.z_basis()
                cols = []
                for g in (g1, g2):
                    ug = u * g
                    c = _exact_coords_in_basis(ug, g1, g2)
                    cols.append(c)
                blocks.append(np.array(cols, dtype=np.int64).T)
            U = np.zeros((4, 4), dtype=np.int64)
            U[:2, :2] = blocks[0]
            U[2:, 2:] = blocks[1]
            mats.append(U)
        return mats

    def enumerate(self, norm_bound: float) -> Iterator[Tuple[DNumber, int]]:
        """One representative per U_F-orbit of the nonzero points with
        ||lambda|| <= norm_bound, with the orbit size (= w_F; the unit action
        on nonzero points is free)."""
        coeffs, _ = self.points_upto(norm_bound)
        mats = self.unit_coeff_matrices()
        seen = set()
        for c in coeffs:
            orbit = sorted(tuple((U @ c).tolist()) for U in mats)
            rep = orbit[-1]
            if rep in seen:
                continue
            seen.add(rep)
            v = self.M @ np.array(rep, dtype=float)
            yield _vector_from_coords(self.field, v), len(mats)

    # -- theta ---------------------------------------------------------------------

    def theta(self, t, tol: float = None) -> float:
        """Theta(t, Lambda) = sum over the lattice of
        prod_v exp(-n_v pi |t_v l_v|^2), including the lambda = 0 term."""
        tol = tol or self.config.target_abs_tol
        at = abs(t)
        if at == 0.0:
            raise ValueError("t must be invertible")
        L = math.log(1.0 / tol) + self.config.tail_margin
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
        return OFLattice(self.field,
                         z_basis=[c * v for v in self._basis],
                         config=self.config)

    def right_mul(self, c: DNumber) -> "OFLattice":
        return OFLattice(self.field,
                         z_basis=[v * c for v in self._basis],
                         config=self.config)

    def contains_coeffs(self, other: "OFLattice", tol: float = 1e-9) -> bool:
        """Whether every basis vector of `other` has integral coordinates in
        this lattice's basis."""
        C = self.Minv @ other.M
        return bool(np.all(np.abs(C - np.round(C)) < tol))

    def same_z_span(self, other: "OFLattice", tol: float = 1e-9) -> bool:
        return self.contains_coeffs(other, tol) and other.contains_coeffs(self, tol)

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


def ball_points(M: np.ndarray, r: float,
                cap: int = DEFAULT.enum_point_cap, coeffs: bool = False,
                chunk: int = 4_000_000, r_min: float = 0.0,
                half: bool = False) -> Iterator:
    """Enumerate the nonzero points M c (c integral) of the lattice with basis
    columns M (dimension 2 or 4) in the Euclidean annulus r_min < |M c| <= r.

    Yields arrays of squared lengths, about `chunk` points at a time; with
    coeffs=True yields pairs (squared lengths, integer coefficient columns of
    shape (dim, n)).  Points come in lexicographic order of c.  Both radii
    carry the same relative slack, so annuli (r0, r1], (r1, r2], ... split
    the ball (0, rk] exactly.  With half=True only one point of each pair
    +-c is yielded: the one whose leading coefficients are lexicographically
    positive, or, when those are all zero, whose trailing ones are.

    Every point of the ball has |c_i| <= ||row_i(M^-1)|| r, so that box is
    searched; its size is checked against `cap` (EnumerationCapError).  The
    leading coordinates form shifts, pruned by their distance to the span of
    the trailing basis vectors, and each block of shifts is combined with a
    cached mesh over the trailing coordinates.
    """
    dim = M.shape[0]
    row_norms = np.linalg.norm(np.linalg.inv(M), axis=1)
    radii = np.floor(row_norms * r + 1e-9).astype(np.int64)
    total = math.prod(2 * int(k) + 1 for k in radii)
    if total > cap:
        raise EnumerationCapError(
            f"enumeration box of {total} points exceeds the cap {cap}")
    r2_max = r ** 2 * (1 + 1e-12)
    r2_min = r_min ** 2 * (1 + 1e-12)
    ranges = [np.arange(-int(k), int(k) + 1, dtype=np.int64) for k in radii]

    def mesh(idx: range):
        # coefficient columns of the sub-box over coordinates idx, and the
        # points sum_j c_j M[:, j]
        grids = np.meshgrid(*[ranges[j] for j in idx], indexing="ij")
        coeffs = np.stack([g.ravel() for g in grids])
        pts = np.outer(M[:, idx[0]], coeffs[0])
        for k, j in enumerate(idx[1:], 1):
            pts += np.outer(M[:, j], coeffs[k])
        return coeffs, pts

    n_lead = dim // 2
    inner_coeffs, inner_pts = mesh(range(n_lead, dim))
    # the trailing coefficients a lead-zero row keeps: all but zero, or the
    # lexicographically positive ones
    inner_keep = _lex_positive(inner_coeffs) if half \
        else np.any(inner_coeffs != 0, axis=0)

    Qmat, _ = np.linalg.qr(M[:, n_lead:])
    proj_perp = np.eye(dim) - Qmat @ Qmat.T
    lead_coeffs, shifts = mesh(range(n_lead))
    d2 = np.einsum("ij,ij->j", proj_perp @ shifts, shifts)
    keep_lead = d2 <= r2_max
    lead_zero = np.all(lead_coeffs == 0, axis=0)
    if half:
        keep_lead &= lead_zero | _lex_positive(lead_coeffs)
    shifts = shifts[:, keep_lead]
    lead_coeffs = lead_coeffs[:, keep_lead]
    lead_zero = lead_zero[keep_lead]

    n_inner = inner_pts.shape[1]
    inner_r2 = np.einsum("ij,ij->j", inner_pts, inner_pts)
    block = max(1, chunk // max(1, n_inner))
    buf: List[np.ndarray] = []
    cbuf: List[np.ndarray] = []
    size = 0
    for start in range(0, shifts.shape[1], block):
        sh = shifts[:, start:start + block]
        sh_r2 = np.einsum("ij,ij->j", sh, sh)
        # |shift + inner|^2 = |shift|^2 + 2 shift.inner + |inner|^2
        r2 = sh.T @ inner_pts
        r2 *= 2.0
        r2 += sh_r2[:, None]
        r2 += inner_r2[None, :]
        keep = r2 <= r2_max
        if r2_min > 0.0:
            # not for r_min = 0: a nonzero point whose length rounds to 0
            # must reach norm_chunks, which reports the degenerate lattice
            keep &= r2 > r2_min
        for off in np.nonzero(lead_zero[start:start + block])[0]:
            keep[off] &= inner_keep
        vals = r2[keep]
        if vals.size:
            # guard against cancellation producing tiny negatives at 0
            buf.append(np.maximum(vals, 0.0, out=vals))
            size += vals.size
            if coeffs:
                rows, cols = np.nonzero(keep)
                cbuf.append(np.concatenate(
                    [lead_coeffs[:, start + rows], inner_coeffs[:, cols]]))
        if size >= chunk:
            yield _flush(buf, cbuf, coeffs)
            buf, cbuf, size = [], [], 0
    if buf:
        yield _flush(buf, cbuf, coeffs)


def _lex_positive(C: np.ndarray) -> np.ndarray:
    """Mask of the columns of C whose first nonzero entry is positive."""
    first = np.argmax(C != 0, axis=0)
    return C[first, np.arange(C.shape[1])] > 0


def _flush(buf, cbuf, coeffs):
    r2 = np.concatenate(buf)
    return (r2, np.concatenate(cbuf, axis=1)) if coeffs else r2


def _exact_coords_in_basis(x: QuadElement, g1: QuadElement, g2: QuadElement):
    """Integer coordinates of x in the basis (g1, g2) of a rank-2 module."""
    # solve [a1 a2; b1 b2] [c1, c2]^T = [x.a, x.b]
    det = g1.a * g2.b - g2.a * g1.b
    if det == 0:
        raise ValueError("degenerate ideal basis")
    c1 = (x.a * g2.b - g2.a * x.b) / det
    c2 = (g1.a * x.b - x.a * g1.b) / det
    if c1.denominator != 1 or c2.denominator != 1:
        raise ValueError("element not in the module")
    return [int(c1), int(c2)]
