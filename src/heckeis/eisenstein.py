"""The Eisenstein series of an O_F-lattice and its completion.

Three evaluation routes, kept structurally independent so they can certify
each other:

* e_direct: the defining orbit sum V^s sum ||lambda||^(-2s) with a smooth
  cutoff, plus the integral of the weight's tail, and a doubling check
  (Re s > 1 only; the region where the raw series converges).  The weight
  is 1 up to a quarter of the norm cutoff B and falls to 0 at B along a
  degree-13 smoothstep P; the tail is V^s kappa B^(2-2s) c(s)/(w V) with
  c(s) = 1/(2s-2) + int_a^1 u^(1-2s) P((u-a)/(1-a)) du, a fixed
  Gauss-Legendre sum.  The truncation error then falls like a high power
  of B, where a sharp cut leaves the lattice-point remainder.  It sums one
  point of each pair +-lambda, shell by shell: each doubling of B
  enumerates the points in (B, 2B] only and carries the band's norms
  over, with real powers for real s.  It accepts the sum when a doubling
  moves it by at most tol/16, or when each of the last three changes is at
  most 1/16 of the one before and the rest they predict is below tol/16.
  It raises when tol/16 lies below its rounding floor
  eps |V^s| (2/w) sum phi ||lambda||^(-2 Re s).
* ehat_expansion: the three-term formula

      Ehat = P^s xi(2s, b) + P^(1-s) xi(2s-1, a)
           + V(a)^s V(b)^(s-1) |Ny|^s * sum_{(alpha, beta*)}
             e(Tr(x alpha beta*)) B_F(alpha y, beta*, s - 1/2),

  P = (N(a)/N(b)) |Ny|, over nonzero pairs in a x dual(b) modulo units
  (the unit group is finite and acts freely, and each term is even under
  alpha -> -alpha, so the sum runs over one alpha of each +-pair and all
  beta*, divided by w_F/2).  Valid for all s away from the poles.  The pair
  sum runs once, up to the least Bessel argument X whose proven tail bound
  (term3) puts the rest at or below tol/10, and raises when tol/10 lies
  below its rounding floor eps * sum |term|.  It runs on a reduced
  presentation of a scaled copy of the lattice, on which Ehat is the same:
  over Q, (N(a)/N(b)) z reduced under SL2(Z) with a = b = Z, so |y| >=
  sqrt(3)/2; over an imaginary field with a = b, O z + O.  An evaluator
  from at_point may hold arrays of points (the torus nodes of one
  refinement level): each point keeps its own cutoff and tests, while the
  pairs of all points form one array, with one Bessel call.
* ehat_lattice: the Gaussian Mellin integral over the idele norm, split at
  |N t| = 1 and Poisson-dualized, zeta.theta_split of the lattice and its
  dual; an exponentially convergent sum requiring only Z-lattice data

      Ehat = Psi(s, L) + Psi(1-s, L*) + C_F (V^(s-1)/(2s-2) - V^s/(2s)).

  xi (which the expansion route calls) is the same split of an ideal, so
  xi's check against the Euler-Maclaurin oracle covers it independently
  of this module.

e_direct and ehat_lattice sum the given lattice.  The residue at s = 1 is
C_F/2; the constant term is produced in closed form from the h function and
the constant term of xi.
"""

from __future__ import annotations

import cmath
import copy
import math
from typing import Optional

import numpy as np
from scipy.special import kve

from . import numerics
from .basefield import FracIdeal, dual_ideal
from .errors import (ConvergenceError, DegenerateLatticeError,
                     EnumerationCapError)
from .lattice import OFLattice, ball_points
# upper_incomplete_gamma stays bound here: perfbench/test_perfbench.py counts it
from .specialfun import bessel_k_batch, gamma_F, upper_incomplete_gamma
from .zeta import (_ideal_embedding_matrix, c_F, completed_zeta,
                   theta_split, theta_split_ct)



def _cpow(base: float, s: complex) -> complex:
    return cmath.exp(s * math.log(base))


class EisensteinEvaluator:
    """Evaluator bound to one lattice; immutable after construction."""

    def __init__(self, lattice: OFLattice):
        self.lattice = lattice
        self.F = lattice.field
        self.CF = c_F(self.F)
        self._dual: Optional[OFLattice] = None
        if lattice.z is not None:
            F = self.F
            self.n_v = 1 if F.is_rational else 2
            ideal_a, ideal_b = lattice.ideal_a, lattice.ideal_b
            self.ratio = float(ideal_a.absolute_norm()
                               / ideal_b.absolute_norm())
            # The expansion runs on a reduced presentation (ideal_a, ideal_b,
            # x_red, y_red) of a scaled copy of the lattice; Ehat is
            # invariant under scaling.  Over Q, a z + b = b ((Na/Nb) z + Z),
            # and (Na/Nb) z is SL2(Z)-reduced to |y_red| >= sqrt(3)/2.  Over
            # an imaginary field with a = b, a z + b = a (O z + O).  The
            # reduced ideals do not depend on z: at_point shares them.
            if F.is_rational or ideal_a == ideal_b:
                ideal_a = ideal_b = FracIdeal.unit_ideal(F)
            self.ideal_a, self.ideal_b = ideal_a, ideal_b
            self.bstar = dual_ideal(F, ideal_b)
            self.zeta_a = completed_zeta(F, ideal_a)
            self.zeta_b = completed_zeta(F, ideal_b)
            self.na = float(ideal_a.absolute_norm())
            self.nb = float(ideal_b.absolute_norm())
            self.nbstar = float(self.bstar.absolute_norm())
            self.Ma = _ideal_embedding_matrix(ideal_a)
            self.Mbstar = _ideal_embedding_matrix(self.bstar)
            disc = abs(F.discriminant)
            self.Va = math.sqrt(disc) * self.na
            self.Vb = math.sqrt(disc) * self.nb
            self._place(lattice.z.x_part, lattice.z.y_part)

    def _place(self, x, y):
        """Set the data that depend on z = x + y j: x, y and P of the given
        presentation (a right scale factor never changes Ehat, so it plays
        no part), and x_red, y_red, ny and P_red of the reduced one.  x and
        y may be arrays, one entry per node: each datum is then an array of
        their broadcast shape, and so is every value of the expansion
        route; scalars are the nodes of shape ()."""
        x, y = np.broadcast_arrays(x, y)
        self.shape = x.shape
        self.x, self.y = x, y
        self.P = self.ratio * np.abs(y) ** self.n_v
        if self.F.is_rational:
            x_red, y_red = _sl2z_reduce(self.ratio * x.ravel(),
                                        self.ratio * y.ravel())
            self.x_red = x_red.reshape(self.shape)
            self.y_red = y_red.reshape(self.shape)
        else:
            if np.any(np.abs(y) ** 2 < 1e-10):
                raise DegenerateLatticeError(
                    "|N(y)| below 1e-10: expansion ill-conditioned")
            self.x_red, self.y_red = x, y
        self.ny = np.abs(self.y_red) ** self.n_v
        self.P_red = (self.na / self.nb) * self.ny

    def _shaped(self, values):
        """Per-node values in the shape of the nodes; a Python scalar for a
        single node of shape ()."""
        out = np.reshape(values, self.shape)
        return out if self.shape else out.item()

    def _require_presentation(self, what: str):
        # an evaluator from at_point has no lattice but all the data of its
        # presentation; one of a Z-basis lattice has none
        if self.lattice is not None and self.lattice.z is None:
            raise DegenerateLatticeError(f"{what} needs pseudo-basis data")

    def at_point(self, x, y) -> "EisensteinEvaluator":
        """The evaluator of a z + b at another z = x + y j, with this
        evaluator's ideals a, b.  It shares the data that do not depend on
        z (the reduced ideals, b*, their xi, norms and volumes) and builds
        no lattice, so only the expansion route works on it: term1-3,
        ehat_expansion, h_value and ct.  Its values equal those of an
        evaluator built on OFLattice(F, a, z, b) bit for bit: y must be
        nonzero, and over Q z is taken with y > 0 (-z spans the same
        lattice).  With arrays x, y it is one evaluator of all those points
        (see _place)."""
        self._require_presentation("at_point")
        if np.any(np.equal(y, 0)):
            raise DegenerateLatticeError("y-part of z must be invertible")
        if self.F.is_rational:
            flip = y < 0
            x, y = np.where(flip, -x, x), np.where(flip, -y, y)
        ev = copy.copy(self)
        ev.lattice = ev._dual = None
        ev._place(x, y)
        return ev

    # ------------------------------------------------------------------ direct

    def e_direct(self, s: complex, tol: float = 1e-9) -> complex:
        """E(Lambda, s) by a smoothed orbit sum plus its integral tail;
        requires Re s > 1.05.

        With the algebra norms N of the nonzero points and the cutoff B,

            E = (V^s/w) sum_lambda N^(-2s) phi(N/B)
                + V^s kappa B^(2-2s) c(s) / (w V),

        phi = 1 on [0, a] and 1 - P((x - a)/(1 - a)) on (a, 1], P the
        degree-(2k+1) smoothstep (module constants _SMOOTH_K, _SMOOTH_A),
        and c(s) = 1/(2s-2) + int_a^1 u^(1-2s) P((u-a)/(1-a)) du the tail
        of the smooth weight (_smooth_tail_factor).  The truncation error
        falls like a power of B set by k, not like the lattice-point
        remainder of a sharp cut.  The sum runs over one point of each pair
        +-lambda, counted twice.  Each doubling of B enumerates the new
        points in (B, 2B] only: the plain sum over N <= aB grows by the
        carried norms that leave the band, and the band (aB, B] is
        re-weighted, in real arithmetic when s is real.  It accepts S(B_k)
        when the doubling to B_k moved the value by d_k <= tol/16, or when
        the changes predict that the rest lies below tol/16: with rho the
        largest of the ratios d_k/d_(k-1), d_(k-1)/d_(k-2), d_(k-2)/d_(k-3),
        rho <= _DECAY_RATIO and rho^2 d_(k-1) <= tol/16 (rho d_(k-1) is the
        change the trend predicts for this doubling, and never below d_k).
        It raises ConvergenceError when tol/16 lies below its rounding floor
        eps |V^s| (2/w) sum phi N^(-2 Re s), or after
        numerics.MAX_REFINEMENTS doublings; the error carries the cutoff,
        the last change, tol and the number of points enumerated."""
        s = complex(s)
        if s.real <= 1.05:
            raise ConvergenceError(
                "direct summation converges too slowly for Re s <= 1.05; "
                "use the expansion path")
        lat = self.lattice
        V = lat.covolume
        w = lat.field.w
        kappa = 2 * math.pi if lat.field.is_rational else 4 * math.pi ** 2
        Vs = _cpow(V, s)
        # real arithmetic for real s
        tail = Vs * kappa * _smooth_tail_factor(s if s.imag else s.real) \
            / (w * V)

        def powers(norms):
            # (n^(-2s), n^(-2 Re s)), one array for real s, in blocks of
            # _BAND_BLOCK norms that keep the temporaries in cache
            mass = np.empty_like(norms)
            terms = np.empty(norms.size, complex) if s.imag else mass
            for i in range(0, norms.size, _BAND_BLOCK):
                block = slice(i, i + _BAND_BLOCK)
                logs = np.log(norms[block])
                np.exp(-2 * s.real * logs, out=mass[block])
                if s.imag:
                    np.exp(-2 * s * logs, out=terms[block])
            return terms, mass

        # the doubling difference can understate the true truncation error by
        # an order of magnitude when lattice-shell oscillations dominate, so
        # the acceptance threshold carries a 16x safety factor
        eps_scale = np.finfo(float).eps * 2 * abs(Vs) / w
        lo, B = 0.0, max(8.0, 2.0 * V ** (1.0 / lat.dim))
        # the plain sums over N <= aB, and the band (aB, B] as chunks
        # (norms, n^(-2s), n^(-2 Re s)) carried over to the next doubling
        inner, inner_mass = 0j, 0.0
        band = []
        points, prev, changes = 0, None, []
        for _ in range(numerics.MAX_REFINEMENTS + 1):
            for norms in lat.norm_chunks(B, lo):
                points += norms.size
                band.append((norms, *powers(norms)))
            kept = []
            for n, terms, mass in band:
                plain = n <= _SMOOTH_A * B
                if plain.any():
                    # these norms leave the band for the plain sums
                    inner += complex(np.sum(terms[plain]))
                    inner_mass += float(np.sum(mass[plain]))
                    out = ~plain
                    n, terms, mass = n[out], terms[out], mass[out]
                if n.size:
                    kept.append((n, terms, mass))
            band = kept
            total, total_mass = inner, inner_mass
            for n, terms, mass in band:
                add, add_mass = _smooth_band_sums(n, terms, mass, B)
                total += add
                total_mass += add_mass
            floor = eps_scale * total_mass
            cur = 2 * Vs * total / w + tail * _cpow(B, 2 - 2 * s)
            delta = math.inf if prev is None else abs(cur - prev)
            if floor > tol / 16:
                raise ConvergenceError(
                    f"direct sum at B = {B:g} lies below its rounding floor: "
                    f"eps*|V^s|*2*sum phi|term|/w = {floor:.3g} > "
                    f"tol/16 = {tol / 16:.3g}; use the expansion",
                    cutoff=B, last_delta=delta, tol=tol, points=points)
            if delta <= tol / 16:
                return cur
            if prev is not None:
                changes.append(delta)
            if len(changes) >= 4:
                # each of the last three changes is at most rho times the
                # one before: the rest of the sum is about rho times the
                # change the trend predicts for this doubling, rho * d1,
                # which is at least delta.  Near the first cutoffs, and
                # where one change is small by chance, one ratio or delta
                # itself can understate the rest by 100x
                d3, d2, d1 = changes[-4:-1]
                rho = max(delta / d1, d1 / d2, d2 / d3)
                if rho <= _DECAY_RATIO and rho * rho * d1 <= tol / 16:
                    return cur
            prev, lo, B = cur, B, 2 * B
        raise ConvergenceError(
            f"direct sum did not stabilize at B = {lo:g}: the last doubling "
            f"moved it by {delta:.3g} > tol/16 = {tol / 16:.3g}; use the "
            f"expansion", cutoff=lo, last_delta=delta, tol=tol, points=points)

    # --------------------------------------------------------------- expansion

    def _pair_data(self, hi):
        """Arrays describing, for each node, the pairs (alpha, beta*) whose
        Bessel argument n_v pi |alpha y beta*| is at most that node's cutoff
        hi (a per-node array, or a scalar for every node): (bessel args,
        phase exponents Tr(x alpha beta*), norm ratios |N(beta*/(alpha y))|,
        node indices into the flattened nodes), the pairs of each node in
        one run, in node order."""
        n_v = self.n_v
        x_red, y_red = np.ravel(self.x_red), np.abs(np.ravel(self.y_red))
        c = n_v * math.pi * y_red
        hi = np.broadcast_to(hi, c.shape)
        # the candidate lists carry slack: the test on the computed arguments
        # below decides the edge
        cap = hi / c * (1 + 1e-9)
        reach = float(cap.max())
        # one alpha of each pair +-alpha, and every beta*; every ideal of
        # these class-number-one fields is principal, so the least nonzero
        # |alpha| in a is N(a)^(1/n_v)
        alphas = _complex_points(self.Ma, reach / self.nbstar ** (1 / n_v))
        betas = _complex_points(self.Mbstar, reach / self.na ** (1 / n_v))
        betas = np.concatenate([betas, -betas])
        aabs, babs = np.abs(alphas), np.abs(betas)
        order = np.argsort(babs)
        betas, babs = betas[order], babs[order]
        # per (node, alpha), the candidate betas (c |alpha| |beta*| <= hi, up
        # to the slack) are the first `counts` of the sorted list
        counts = np.searchsorted(babs, cap[:, None] / aabs, side="right").ravel()
        if counts.sum() > _PAIR_CAP:
            raise EnumerationCapError(
                f"Bessel pair sum up to cutoff {float(hi.max()):g} needs "
                f"{counts.sum()} candidate pairs, over the cap {_PAIR_CAP}")
        cell = np.repeat(np.arange(counts.size), counts)
        ib = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
        # the factors that depend on the (node, alpha) cell only are formed
        # per cell and repeated or looked up per pair
        per_cell = alphas.size
        args = np.repeat((c[:, None] * aabs).ravel(), counts) * babs[ib]
        keep = args <= np.repeat(np.repeat(hi, per_cell), counts)
        cell, ib, args = cell[keep], ib[keep], args[keep]
        phases = n_v * ((x_red[:, None] * alphas).ravel()[cell]
                        * betas[ib]).real
        ratios = (babs[ib] / (aabs * y_red[:, None]).ravel()[cell]) ** n_v
        return args, phases, ratios, cell // per_cell

    def _pair_cutoff(self, s: complex, scale, tol: float):
        """Per node, the least X (to within 1e-3) with tail(X) <= tol/10,
        and tail(X): a proven bound on scale * sum |r^(s-1/2) K_nu(x)| over
        the pairs with x > X.  With a = n_v |Re s - 1/2| and alpha_min =
        N(a)^(1/n_v), beta_min = N(b*)^(1/n_v) the least |alpha|, |beta*|:
        |K_nu| <= K_a (|u^(nu-1)| = u^(Re nu - 1), K_(-a) = K_a); r^(Re s
        - 1/2) <= (g x)^a, g = 1/(c |y| alpha_min^2) for Re s >= 1/2 and
        |y|/(c beta_min^2) below; e^(2x) K_a(x) = int e^(-x (sqrt u -
        1/sqrt u)^2) u^(a-1) du does not increase with x.  At most N(t) =
        D (t/c)^n_v (1 + n_v log Q) pairs have x <= t, Q = t/(c alpha_min
        beta_min) >= 1: over Q, #{m >= 1, k != 0 : m |k| <= Q} <=
        2Q (1 + log Q); over an imaginary field at most pi (r + rho)^2/covol
        <= p r^2 points have |l| <= r >= l_min (cells lie within rho =
        sum |b_i|/2 of their points), p = pi (1 + rho/l_min)^2/covol, and
        summing p_b (t/c)^2/|alpha|^2 over alpha by parts gives
        D = p_a p_b/2.  As N(t) t^a grows at most like (t/X)^k, k = a + n_v
        + n_v/(1 + n_v log Q(X)), summation by parts gives, for
        X >= c alpha_min beta_min and X > k/2,
        tail(X) <= scale (g X)^a K_a(X) 2 N(X)/(2 - k/X)."""
        n_v = self.n_v
        y = np.abs(np.ravel(self.y_red))
        c = n_v * math.pi * y
        a = n_v * abs(s.real - 0.5)
        amin, bmin = self.na ** (1 / n_v), self.nbstar ** (1 / n_v)
        g = 1 / (c * y * amin ** 2) if s.real >= 0.5 else y / (c * bmin ** 2)
        dens = 2 / (amin * bmin) if n_v == 1 else math.prod(
            math.pi * (1 + np.linalg.norm(M, axis=0).sum() / (2 * m)) ** 2
            / abs(np.linalg.det(M))
            for M, m in ((self.Ma, amin), (self.Mbstar, bmin))) / 2
        x0 = c * amin * bmin
        log_scale = np.log(10 / tol * np.maximum(scale, 1e-300))

        def log_need(X):
            # half of log(10 e^(2X) tail(X)/tol); K_a(X) = 2 kve(a, 2X) e^(-2X)
            ln_q = np.log(X / x0)
            count = dens * (X / c) ** n_v * (1 + n_v * ln_q)
            k = a + n_v + n_v / (1 + n_v * ln_q)
            return (log_scale + a * np.log(g * X) + np.log(2 * kve(a, 2 * X))
                    + np.log(2 * count) - np.log(2 - k / X)) / 2

        # X suffices when log_need(X) <= X, which grows like (a/2) log X:
        # from the least X the bound holds at, this climbs in a few steps
        X = np.maximum(x0, a / 2 + n_v + 0.5)
        while True:
            need = log_need(X)
            grow = need > X
            if not grow.any():
                return X, tol / 10 * np.exp(2 * (need - X))
            X = np.where(grow, need + 1e-3, X)

    def term1(self, s: complex, tol: float = 1e-12):
        return self._shaped(np.exp(s * np.log(self.P_red))
                            * self.zeta_b.value(2 * s, tol))

    def term2(self, s: complex, tol: float = 1e-12):
        return self._shaped(np.exp((1 - s) * np.log(self.P_red))
                            * self.zeta_a.value(2 * s - 1, tol))

    def term3(self, s: complex, tol: float = 1e-10):
        """The Bessel pair sum of the expansion: pref/(w/2) times the sum
        over pairs (one alpha of each +-pair, every beta*) of weight
        r^(s-1/2) K_nu(x) e(phase), x = c |alpha| |beta*|, c = n_v pi |y|,
        r = |N(beta*/(alpha y))|, nu = n_v (s - 1/2), weight 2 pi at a
        complex place.  Each node sums its pairs up to its _pair_cutoff X,
        all nodes in one _pair_data and one Bessel call.  It raises
        ConvergenceError when a node's rounding floor eps * |pref|/(w/2) *
        sum |term| exceeds tol/10, naming that node's X, tail(X) as
        last_delta, tol and its pairs."""
        # the pairs list one alpha of each +-pair: the free action of the w
        # units is divided out as w/2
        orbit_div = self.F.w / 2
        # B_F carries a factor 2 pi at a complex place
        weight = (2 * math.pi) ** (self.n_v - 1)
        ny = np.ravel(self.ny)
        n = ny.size
        pref = _cpow(self.Va, s) * _cpow(self.Vb, s - 1) \
            * np.exp(s * np.log(ny))
        scale = np.abs(pref) / orbit_div
        X, tail = self._pair_cutoff(s, scale * weight, tol)
        args, phases, ratios, node = self._pair_data(X)
        kv = bessel_k_batch(self.n_v * (s - 0.5), args,
                            tol=float(tol / np.max(np.maximum(scale, 1e-8)))
                            / 50)
        terms = weight * np.exp((s - 0.5) * np.log(ratios)) * kv \
            * np.exp(2j * math.pi * phases)
        total = np.bincount(node, terms.real, n) \
            + 1j * np.bincount(node, terms.imag, n)
        floor = np.finfo(float).eps * scale \
            * np.bincount(node, np.abs(terms), n)
        # a NaN floor (terms past the range of doubles) raises too
        below = ~(floor <= tol / 10)
        if below.any():
            i = int(np.argmax(below))
            raise ConvergenceError(
                f"Bessel pair sum at cutoff X = {X[i]:g} lies below its "
                f"rounding floor: eps*sum|term| = {floor[i]:.3g} > "
                f"tol/10 = {tol / 10:.3g}", cutoff=float(X[i]),
                last_delta=float(tail[i]), tol=tol,
                points=int(np.count_nonzero(node == i)))
        return self._shaped(pref * total / orbit_div)

    def ehat_expansion(self, s: complex, tol: float = 1e-10):
        """Ehat(Lambda, s) through the three-term formula, on the reduced
        presentation (ideal_a, ideal_b, x_red, y_red); needs pseudo-basis
        data."""
        self._require_presentation("expansion path")
        s = complex(s)
        return self.term1(s, tol) + self.term2(s, tol) + self.term3(s, tol)

    # ------------------------------------------------------------ lattice path

    def dual_lattice(self) -> OFLattice:
        if self._dual is None:
            self._dual = self.lattice.dual()
        return self._dual

    def ehat_lattice(self, s: complex, tol: float = 1e-10) -> complex:
        """Ehat(Lambda, s) through the split Mellin integral; works from the
        Z-basis alone (any lattice, including duals), all s off the poles."""
        dual = self.dual_lattice()
        return theta_split(self.F, s, self.lattice.M, self.lattice.covolume,
                           dual.M, dual.covolume, tol)

    # ------------------------------------------------------------------- shared

    def ehat(self, s: complex, tol: float = 1e-10, method: str = "auto") -> complex:
        if method == "direct":
            return gamma_F(self.F, 2 * complex(s)) * self.e_direct(s, tol)
        if method == "expansion":
            return self.ehat_expansion(s, tol)
        if method == "lattice":
            return self.ehat_lattice(s, tol)
        if method != "auto":
            raise ValueError(f"unknown method {method!r}")
        if self.lattice.z is not None:
            return self.ehat_expansion(s, tol)
        return self.ehat_lattice(s, tol)

    def e_value(self, s: complex, tol: float = 1e-10, method: str = "auto") -> complex:
        return self.ehat(s, tol, method) / gamma_F(self.F, 2 * complex(s))

    # ------------------------------------------------------------ Laurent data

    def residue(self) -> float:
        """Residue of Ehat at s = 1 (= C_F/2 for every lattice; the pole comes
        from the xi(2s-1, a) term, whose residue in s is C_F/2)."""
        return self.CF / 2

    def h_value(self, tol: float = 1e-10):
        """The limit-formula function h(z, a, b) of the given presentation:
        (2/C_F) [ P xi(2, b) + V(a) |Ny| S(1) ]; real, with the imaginary
        part of the pair sum cancelling between conjugate pairs.  It is
        evaluated on the reduced presentation and carried over through the
        invariant h - log P."""
        self._require_presentation("h")
        out = (2.0 / self.CF) * (self.term1(1.0, tol) + self.term3(1.0, tol))
        imag = np.ravel(np.imag(out))
        worst = imag[np.argmax(np.abs(imag))]
        if abs(worst) > 1e-8:
            raise ConvergenceError(
                f"imaginary part {worst} of h did not cancel")
        return self._shaped(np.real(out) + np.log(self.P / self.P_red))

    def ct(self, tol: float = 1e-10):
        """Constant term of Ehat at s = 1:
        CT xi(s, a) + (C_F/2)(h - log P)."""
        ct_xi = self.zeta_a.laurent_ct(tol)
        return self._shaped(
            ct_xi + (self.CF / 2) * (self.h_value(tol) - np.log(self.P)))

    def ct_lattice(self, tol: float = 1e-10) -> float:
        """Constant term through the lattice path (independent bookkeeping):
        zeta.theta_split_ct of the lattice and its dual."""
        dual = self.dual_lattice()
        return theta_split_ct(self.F, self.lattice.M, self.lattice.covolume,
                              dual.M, dual.covolume, tol)

    def h_lattice(self, tol: float = 1e-10) -> float:
        """h of the given presentation through the lattice path: ct_lattice
        solved for h in ct = CT xi(s, a) + (C_F/2)(h - log P)."""
        if self.lattice.z is None:
            raise DegenerateLatticeError("h needs pseudo-basis data")
        return (2.0 / self.CF) * (self.ct_lattice(tol)
                                  - self.zeta_a.laurent_ct(tol)) \
            + math.log(self.P)


# ---------------------------------------------------------------------------
# helpers


# The smooth cutoff of e_direct: weight 1 for N <= aB, falling to 0 at N = B
# as 1 - P((N/B - a)/(1 - a)), P the degree-(2k+1) smoothstep (the
# regularized incomplete beta I_x(k+1, k+1)).  Its k vanishing derivatives
# at both ends set how fast the truncation error falls with B.
_SMOOTH_K = 6
_SMOOTH_A = 0.25
# e_direct accepts S(B) from the observed decay only when each of its last
# three doubling changes is at most this factor of the one before: once the
# smoothed sum reaches its asymptotic regime its error falls ~100x per doubling
_DECAY_RATIO = 1 / 16
# C(2k+1, j) for j = k+1, ..., 2k+1: P(x) = sum_j C(2k+1, j) x^j (1-x)^(2k+1-j)
_SMOOTH_BINOM = [math.comb(2 * _SMOOTH_K + 1, j)
                 for j in range(_SMOOTH_K + 1, 2 * _SMOOTH_K + 2)]
_BAND_BLOCK = 1 << 15
# the most pairs (alpha, beta*) one expansion pair sum builds, all nodes
# together: its arrays take about 100 bytes a pair at their peak
_PAIR_CAP = 10_000_000


def _band_weight(q: np.ndarray) -> np.ndarray:
    """The smooth weight 1 - P(q) = P(1 - q) at q = (N/B - a)/(1 - a) in
    (0, 1], overwriting q.  In Bernstein form, with y = 1 - q and r = y/q,
    P(y) = y^(k+1) q^k sum_i C(2k+1, k+1+i) r^i: a sum of positive terms
    (Horner in r), so the weight keeps its relative accuracy near both
    ends, and q > 0 keeps r finite."""
    y = 1 - q
    r = y / q
    acc = r * _SMOOTH_BINOM[-1]
    acc += _SMOOTH_BINOM[-2]
    for c in reversed(_SMOOTH_BINOM[:-2]):
        acc *= r
        acc += c
    acc *= y
    q *= y
    for _ in range(_SMOOTH_K):
        acc *= q
    return acc


def _smooth_band_sums(norms, terms, mass, B: float):
    """(sum terms phi, sum mass phi) over norms in (aB, B], phi the smooth
    weight; blocks of _BAND_BLOCK norms keep the temporaries in cache."""
    cut, scale = _SMOOTH_A * B, 1.0 / ((1 - _SMOOTH_A) * B)
    total, total_mass = 0j, 0.0
    for i in range(0, norms.size, _BAND_BLOCK):
        block = slice(i, i + _BAND_BLOCK)
        q = norms[block] - cut
        q *= scale
        weight = _band_weight(q)
        total += complex(np.dot(terms[block], weight))
        total_mass += float(np.dot(mass[block], weight))
    return total, total_mass


def _tail_quadrature():
    """log u and the weights P'((u-a)/(1-a)) du of the 40-point
    Gauss-Legendre rule on [a, 1]; P'(t) = (2k+1) C(2k, k) (t (1-t))^k."""
    x, wts = np.polynomial.legendre.leggauss(40)
    t = (x + 1) / 2
    k = _SMOOTH_K
    dP = (2 * k + 1) * math.comb(2 * k, k) * (t * (1 - t)) ** k
    return np.log(_SMOOTH_A + (1 - _SMOOTH_A) * t), wts / 2 * dP


_TAIL_LOGU, _TAIL_WEIGHTS = _tail_quadrature()


def _smooth_tail_factor(s: complex) -> complex:
    """c(s) = 1/(2s-2) + int_a^1 u^(1-2s) P((u-a)/(1-a)) du, the integral of
    u^(1-2s) (1 - phi(u)) over u > a.  Integrated by parts it is
    int_a^1 u^(2-2s) dP / (2s-2), whose integrand is a smooth bump: no
    cancellation between 1/(2s-2) and the integral, and a fixed 40-point
    Gauss-Legendre sum meets 1e-14 relative for real s up to 10 (real
    arithmetic for real s)."""
    return complex(np.dot(_TAIL_WEIGHTS, np.exp((2 - 2 * s) * _TAIL_LOGU))) \
        / (2 * s - 2)


# SL2(Z) reduction steps before _sl2z_reduce gives up; a float x is a dyadic
# rational, so the reduction ends, and from y = 1e-300 it takes ~240 steps
_REDUCTION_STEPS = 1000


def _sl2z_reduce(x: np.ndarray, y: np.ndarray):
    """Each x + iy (y > 0) of two 1-d arrays moved by SL2(Z) into
    |x| <= 1/2, |x + iy| >= 1 (up to 1e-12), so that y >= sqrt(3)/2:
    translate x to its nearest integer (halves to even) and invert while
    |z| < 1, each point for as many steps as it needs.  Each inversion
    raises y.  Raises DegenerateLatticeError when |z|^2 underflows to 0 (a
    translated x of 0 with y below ~1e-154) and ConvergenceError after
    _REDUCTION_STEPS steps."""
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    moving = np.ones(x.shape, bool)
    for _ in range(_REDUCTION_STEPS):
        xm, ym = x[moving], y[moving]
        # + 0.0 makes rint's -0.0 a +0.0, as an integer rounding gives
        xm -= np.rint(xm) + 0.0
        n = xm * xm + ym * ym
        if not n.all():
            raise DegenerateLatticeError(
                f"SL2(Z) reduction: |z|^2 underflows at y = "
                f"{ym[np.argmin(n)]:.3g}")
        inside = n < 1 - 1e-12
        xm[inside], ym[inside] = -xm[inside] / n[inside], ym[inside] / n[inside]
        x[moving], y[moving] = xm, ym
        moving[moving] = inside
        if not moving.any():
            return x, y
    raise ConvergenceError(
        f"SL2(Z) reduction did not end in {_REDUCTION_STEPS} steps "
        f"(reached y = {y[np.argmax(moving)]:.3g})")


def _complex_points(M: np.ndarray, r_max: float) -> np.ndarray:
    """One of each pair +-point of the nonzero points of the lattice of
    dimension d = 1 or 2 with basis M and |point| <= r_max, as complex
    numbers (the real line, or the plane)."""
    units = np.array([1, 1j])[:M.shape[0]] @ M
    return np.concatenate([np.zeros(0, dtype=complex),
                           *(units @ cs for _, cs in
                             ball_points(M, r_max, coeffs=True))])
