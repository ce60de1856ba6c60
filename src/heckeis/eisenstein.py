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
  over, in real arithmetic: N^(-2s) is the real power N^(-2 Re s) times
  the phase e^(i theta), theta = -2 Im s log N, whose cos and sin come from
  a table-driven kernel on real arrays (_phase).  It accepts the sum when
  a doubling moves it by at most tol/16, or when each of the last three
  changes is at most 1/16 of the one before and the rest they predict is
  below tol/16.  It raises when tol/16 lies below its rounding floor
  eps |V^s| (2/w) sum phi ||lambda||^(-2 Re s) (1 + 2 |Im s| log B).
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
  below its rounding floor eps * sum |term|.  It runs on O w + O, a
  scaled copy of the lattice with the same Ehat: a = alpha O, b = beta O
  (class number one), a z + b = beta (O w + O) with w = (alpha/beta) z
  SL2(O_F)-reduced (_sl2_reduce), so |Ny| >= 1 - R_F^2 > 0 however small
  the given y is.  An evaluator from at_point may hold arrays of points
  (the torus nodes of one refinement level): each point keeps its own
  cutoff and tests, while the pairs of all points form one array, with
  one Bessel call.
* ehat_lattice: the Gaussian Mellin integral over the idele norm, split
  and Poisson-dualized, zeta.theta_split of the lattice; an exponentially
  convergent sum requiring only Z-lattice data.  Ehat is the same for
  every mu L, so the split point is free: it is taken on L rescaled to
  covolume 1, mu = V^(-1/d), where V V* = 1 and the dual L* is a turned
  copy of mu L with the same norms, so both halves sum over one listing
  of mu L,

      Ehat = Psi(s, mu L) + Psi(1-s, mu L) + C_F (1/(2s-2) - 1/(2s)).

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
import functools
import math

import numpy as np

from . import numerics
from .basefield import FracIdeal, dual_ideal
from .errors import (ConvergenceError, DegenerateLatticeError,
                     EnumerationCapError)
from .lattice import OFLattice, ball_points, ideal_embedding_matrix
# upper_incomplete_gamma stays bound here: perfbench/test_perfbench.py counts it
from .specialfun import (_bessel_k_scaled, bessel_k_batch, gamma_F,
                         upper_incomplete_gamma)
from .zeta import (c_F, completed_zeta, ideal_generator, theta_split,
                   theta_split_ct)


def _cpow(base: float, s: complex) -> complex:
    return cmath.exp(s * math.log(base))


class EisensteinEvaluator:
    """Evaluator bound to one lattice; immutable after construction."""

    def __init__(self, lattice: OFLattice):
        self.lattice = lattice
        self.F = lattice.field
        self.CF = c_F(self.F)
        if lattice.z is not None:
            # The expansion runs on O w + O, w = (alpha/beta) z reduced: for
            # a = alpha O, b = beta O, a z + b = beta (O w + O), with the
            # same Ehat.  None of this depends on z: at_point shares it.
            F = self.F
            self.n_v = F.degree
            (self.bstar, self.zeta, self.bmin, self.Mo, self.Mbstar,
             self.pair_density) = _field_data(F)
            self.V = math.sqrt(abs(F.discriminant))
            a, b = lattice.ideal_a, lattice.ideal_b
            self.ratio = _generator_ratio(F, a, a.gen, b, b.gen)
            self._place(lattice.z.x_part, lattice.z.y_part)

    def _place(self, x, y):
        """Set the data that depend on z = x + y j: x, y and P = N(a)/N(b)
        |Ny| of the given presentation, and x_red, y_red and P_red = |Ny_red|
        of the reduced point w.  x and y may be arrays, one entry per node:
        each datum is then an array of their broadcast shape, and so is
        every value of the expansion route; scalars are nodes of shape ()."""
        x, y = np.broadcast_arrays(x, y)
        self.shape = x.shape
        self.x, self.y = x, y
        wx, wy = self.ratio * x.ravel(), self.ratio * y.ravel()
        self.P = np.abs(wy).reshape(self.shape) ** self.n_v
        self.x_red, self.y_red = (v.reshape(self.shape)
                                  for v in _sl2_reduce(self.F, wx, wy))
        self.P_red = np.abs(self.y_red) ** self.n_v

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
        z (alpha/beta, b* = dual(O), xi(s, O)) and builds no lattice, so
        only the expansion route works on it: term1-3, ehat_expansion,
        h_value and ct.  Its values equal those of an evaluator built on
        OFLattice(F, a, z, b) bit for bit: y must be nonzero, and over Q z
        is taken with y > 0 (-z spans the same lattice).  With arrays x, y
        it is one evaluator of all those points (see _place)."""
        self._require_presentation("at_point")
        if np.any(np.equal(y, 0)):
            raise DegenerateLatticeError("y-part of z must be invertible")
        if self.F.is_rational:
            flip = y < 0
            x, y = np.where(flip, -x, x), np.where(flip, -y, y)
        ev = copy.copy(self)
        ev.lattice = None
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
        re-weighted.  Both run on real arrays: N^(-2 Re s), and for complex
        s the real and imaginary parts of N^(-2s) = N^(-2 Re s) e^(i theta),
        theta = -2 Im s log N, which _phase forms from a table of cos and
        sin at 2 pi j/4096 and short polynomials, within eps (2 + |theta|)
        of each term relative to N^(-2 Re s) (numpy's complex exp is a
        scalar loop: ~40 ns a point against ~15 on a 2-core x86-64 VM).  It
        works on the arrays norm_chunks yields as they come: ball_points
        sizes them (lattice._CHUNK_POINTS) so that the temporaries of each
        stay in cache, and _phase goes through them in sub-blocks of
        _PHASE_BLOCK.  It accepts S(B_k) when the doubling to B_k moved the
        value by d_k <= tol/16, or when the changes predict that the rest lies
        below tol/16: with rho the largest of the ratios d_k/d_(k-1),
        d_(k-1)/d_(k-2), d_(k-2)/d_(k-3), rho <= _DECAY_RATIO and
        rho^2 d_(k-1) <= tol/16 (rho d_(k-1) is the change the trend
        predicts for this doubling, and never below d_k).
        It raises ConvergenceError when tol/16 lies below its rounding floor
        eps |V^s| (2/w) sum phi N^(-2 Re s) (1 + 2 |Im s| log B): each
        phase rounds at about |theta| eps, whichever kernel forms it; or
        after numerics.MAX_REFINEMENTS doublings.  The error carries the
        cutoff, the last change, tol and the number of points enumerated."""
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
            # n^(-2 Re s), then for complex s the real and imaginary parts of
            # n^(-2s) = n^(-2 Re s) e^(i theta), theta = -2 Im s log n; in
            # place, so that a block allocates little more than its results
            logs = np.log(norms)
            if not s.imag:
                logs *= -2 * s.real
                return (np.exp(logs, out=logs),)
            mass = logs * (-2 * s.real)
            np.exp(mass, out=mass)
            return (mass, *_phase(logs, -2 * s.imag, mass))

        # the doubling difference can understate the true truncation error by
        # an order of magnitude when lattice-shell oscillations dominate, so
        # the acceptance threshold carries a 16x safety factor
        eps_scale = np.finfo(float).eps * 2 * abs(Vs) / w
        lo, B = 0.0, max(8.0, 2.0 * V ** (1.0 / lat.dim))
        # the plain sums over N <= aB of each array of powers, and the band
        # (aB, B] as chunks (norms, powers) carried over to the next doubling
        inner = [0.0] * (3 if s.imag else 1)
        band = []
        points, prev, changes = 0, None, []
        for _ in range(numerics.MAX_REFINEMENTS + 1):
            for norms in lat.norm_chunks(B, lo):
                points += norms.size
                band.append((norms, powers(norms)))
            kept = []
            for n, parts in band:
                plain = n <= _SMOOTH_A * B
                if plain.any():
                    # these norms leave the band for the plain sums
                    for i, part in enumerate(parts):
                        inner[i] += float(np.sum(part[plain]))
                    out = ~plain
                    n, parts = n[out], [part[out] for part in parts]
                if n.size:
                    kept.append((n, parts))
            band = kept
            sums = inner[:]
            for n, parts in band:
                for i, add in enumerate(_smooth_band_sums(n, parts, B)):
                    sums[i] += add
            # sum phi N^(-2 Re s), and sum phi N^(-2s)
            total_mass = sums[0]
            total = complex(*sums[1:]) if s.imag else complex(total_mass)
            # each phase theta = -2 Im s log N rounds at about |theta| eps
            floor = eps_scale * total_mass \
                * (1 + 2 * abs(s.imag) * math.log(B))
            cur = 2 * Vs * total / w + tail * _cpow(B, 2 - 2 * s)
            delta = math.inf if prev is None else abs(cur - prev)
            if floor > tol / 16:
                raise ConvergenceError(
                    f"direct sum at B = {B:g} lies below its rounding floor: "
                    f"eps*|V^s|*2*sum phi|term|*(1 + 2|Im s| log B)/w = "
                    f"{floor:.3g} > tol/16 = {tol / 16:.3g}; use the "
                    f"expansion", cutoff=B, last_delta=delta, tol=tol,
                    points=points)
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
        """Arrays describing, for each node, the pairs (alpha, beta*) in
        O x dual(O) whose Bessel argument n_v pi |alpha y beta*| is at most
        that node's cutoff hi (a per-node array, or a scalar for every
        node): (bessel args, phase exponents Tr(x alpha beta*), norm ratios
        |N(beta*/(alpha y))|, node indices into the flattened nodes), the
        pairs of each node in one run, in node order; x, y reduced."""
        n_v = self.n_v
        x_red, y_red = np.ravel(self.x_red), np.abs(np.ravel(self.y_red))
        c = n_v * math.pi * y_red
        hi = np.broadcast_to(hi, c.shape)
        # the candidate lists carry slack: the test on the computed arguments
        # below decides the edge
        cap = hi / c * (1 + 1e-9)
        reach = float(cap.max())
        # one alpha of each pair +-alpha, and every beta*; the least nonzero
        # |alpha| is 1, the least |beta*| bmin (b* is principal)
        alphas = _complex_points(self.Mo, reach / self.bmin)
        betas = _complex_points(self.Mbstar, reach)
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
        """Per node, the least X (to within 2.5e-4) with tail(X) <= tol/10,
        and tail(X): a proven bound on scale * sum |r^(s-1/2) K_nu(x)| over
        the pairs with x > X.  With a = n_v |Re s - 1/2|, the least |alpha|
        1 and the least |beta*| beta_min = N(b*)^(1/n_v):
        |K_nu| <= K_a (|u^(nu-1)| = u^(Re nu - 1), K_(-a) = K_a); r^(Re s
        - 1/2) <= (g x)^a, g = 1/(c |y|) for Re s >= 1/2 and
        |y|/(c beta_min^2) below; e^(2x) K_a(x) = int e^(-x (sqrt u -
        1/sqrt u)^2) u^(a-1) du does not increase with x, and is at most
        sqrt(pi/x) (1 - b/(4x))^-(a+1/2), b = max(a - 1/2, 0), for 4x > b
        (DLMF 10.32.8 at z = 2x with (1 + t/(4x))^(a-1/2) <= e^(b t/(4x));
        exact at a = 1/2).  At most N(t) = D (t/c)^n_v (1 + n_v log Q)
        pairs have x <= t, Q = t/(c beta_min) >= 1: over Q, #{m >= 1,
        k != 0 : m |k| <= Q} <= 2Q (1 + log Q); over an imaginary field at
        most pi (r + rho)^2/covol <= p r^2 points have |l| <= r >= l_min
        (cells lie within rho = sum |b_i|/2 of their points), p = pi (1 +
        rho/l_min)^2/covol, and summing p_b (t/c)^2/|alpha|^2 over alpha by
        parts gives D = p_a p_b/2 (pair_density).  As N(t) t^a grows at
        most like (t/X)^k, k = a + n_v + n_v/(1 + n_v log Q(X)), summation
        by parts gives, for X >= c beta_min and X > k/2,
        tail(X) <= scale (g X)^a K_a(X) 2 N(X)/(2 - k/X)."""
        n_v = self.n_v
        y = np.abs(np.ravel(self.y_red))
        c = n_v * math.pi * y
        a = n_v * abs(s.real - 0.5)
        b = max(a - 0.5, 0.0)
        g = 1 / (c * y) if s.real >= 0.5 else y / (c * self.bmin ** 2)
        x0 = c * self.bmin
        # log(10 scale/tol) and the factors of (g X)^a 2 N(X) that do not
        # depend on X
        base = np.log(10 / tol * np.maximum(scale, 1e-300)) + a * np.log(g) \
            + math.log(2 * self.pair_density) - n_v * np.log(c)
        ln_x0 = np.log(x0)

        def log_need(X):
            # half of log(10 e^(2X) tail(X)/tol), kv the bound on e^(2X)
            # K_a(X), lq = 1 + n_v log Q; the start keeps 4X > b, X > k/2
            ln_X = np.log(X)
            lq = 1 + n_v * (ln_X - ln_x0)
            k = a + n_v + n_v / lq
            kv = np.sqrt(math.pi / X) * (1 - b / (4 * X)) ** -(a + 0.5)
            return (base + (a + n_v) * ln_X
                    + np.log(lq * kv / (2 - k / X))) / 2

        # X suffices when log_need(X) <= X; the least such X* is the fixed
        # point of log_need, which grows like ((a + n_v - 1/2)/2) log X.
        # Each step climbs by at least 2.5e-4; where log_need increases up
        # to X*, no step from below X* ends more than 2.5e-4 above it
        X = np.maximum(x0, a / 2 + n_v + 0.5)
        need = log_need(X)
        while (todo := need > X).any():
            X = np.where(todo, need + 2.5e-4, X)
            need = log_need(X)
        return X, tol / 10 * np.exp(2 * (need - X))

    def term1(self, s: complex, tol: float = 1e-12):
        return self._shaped(_power(self.P_red, s) * self.zeta.value(2 * s, tol))

    def term2(self, s: complex, tol: float = 1e-12):
        return self._shaped(_power(self.P_red, 1 - s)
                            * self.zeta.value(2 * s - 1, tol))

    def term3(self, s: complex, tol: float = 1e-10):
        """The Bessel pair sum of the expansion: pref/(w/2) times the sum
        over pairs (one alpha of each +-pair, every beta*) of weight
        r^(s-1/2) K_nu(x) e(phase), x = c |alpha| |beta*|, c = n_v pi |y|,
        r = |N(beta*/(alpha y))|, nu = n_v (s - 1/2), weight 2 pi at a
        complex place.  Each node sums its pairs up to its _pair_cutoff X,
        all nodes in one _pair_data and one Bessel call, which holds K_nu to
        a few eps K_(|Re nu|)(x) whatever tol asks.  It raises
        ConvergenceError when a node's rounding floor exceeds tol/10, naming
        that node's X, tail(X) as last_delta, tol and its pairs: eps *
        |pref|/(w/2) * sum |term| at a real s, and at a complex s the same
        with weight r^(Re s - 1/2) K_(|Re nu|)(x) in place of |term|."""
        # the pairs list one alpha of each +-pair: the free action of the w
        # units is divided out as w/2
        orbit_div = self.F.w / 2
        # B_F carries a factor 2 pi at a complex place
        weight = (2 * math.pi) ** (self.n_v - 1)
        pref = _cpow(self.V, 2 * s - 1) * _power(np.ravel(self.P_red), s)
        n = pref.size
        scale = np.abs(pref) / orbit_div
        X, tail = self._pair_cutoff(s, scale * weight, tol)
        args, phases, ratios, node = self._pair_data(X)
        nu = self.n_v * (s - 0.5)
        kv = bessel_k_batch(nu, args)
        terms = weight * np.exp((s - 0.5) * np.log(ratios)) * kv \
            * np.exp(2j * math.pi * phases)
        total = np.bincount(node, terms.real, n) \
            + 1j * np.bincount(node, terms.imag, n)
        if s.imag:
            # the kernel's error at a complex order is a few eps K_(Re nu)(x),
            # which |K_nu(x)| understates by up to e^(pi |Im nu|/2)
            mags = weight * ratios ** (s.real - 0.5) \
                * _bessel_k_scaled(abs(nu.real), args) \
                * np.exp(-2.0 * args)
        else:
            mags = np.abs(terms)
        floor = np.finfo(float).eps * scale * np.bincount(node, mags, n)
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
        presentation O w + O (x_red, y_red); needs pseudo-basis data."""
        self._require_presentation("expansion path")
        s = complex(s)
        return self.term1(s, tol) + self.term2(s, tol) + self.term3(s, tol)

    # ------------------------------------------------------------ lattice path

    def ehat_lattice(self, s: complex, tol: float = 1e-10) -> complex:
        """Ehat(Lambda, s) through the split Mellin integral; works from the
        Z-basis alone (any O_F-lattice, including duals), all s off the
        poles."""
        return theta_split(self.F, s, self.lattice.M, self.lattice.covolume,
                           tol)

    # ------------------------------------------------------------ Laurent data

    def residue(self) -> float:
        """Residue of Ehat at s = 1 (= C_F/2 for every lattice; the pole comes
        from the xi(2s-1, a) term, whose residue in s is C_F/2)."""
        return self.CF / 2

    def h_value(self, tol: float = 1e-10):
        """The limit-formula function h(z, a, b) of the given presentation:
        (2/C_F) [ P xi(2, b) + V(a) |Ny| S(1) ]; real, with the imaginary
        part of the pair sum cancelling between conjugate pairs.  It is
        evaluated on the reduced presentation O w + O and carried over
        through the invariant h - log P."""
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
        CT xi(s, a) + (C_F/2)(h - log P), with xi(s, a) = xi(s, O)."""
        ct_xi = self.zeta.laurent_ct(tol)
        return self._shaped(
            ct_xi + (self.CF / 2) * (self.h_value(tol) - np.log(self.P)))

    def ct_lattice(self, tol: float = 1e-10) -> float:
        """Constant term through the lattice path (independent bookkeeping):
        zeta.theta_split_ct of the lattice."""
        return theta_split_ct(self.F, self.lattice.M, self.lattice.covolume,
                              tol)

    def h_lattice(self, tol: float = 1e-10) -> float:
        """h of the given presentation through the lattice path: ct_lattice
        solved for h in ct = CT xi(s, a) + (C_F/2)(h - log P)."""
        self._require_presentation("h")
        return (2.0 / self.CF) * (self.ct_lattice(tol)
                                  - self.zeta.laurent_ct(tol)) \
            + math.log(self.P)


# ---------------------------------------------------------------------------
# helpers


@functools.lru_cache(maxsize=None)
def _field_data(F):
    """The expansion's data that depend on the base field alone, built once
    per field and shared by its evaluators: b* = dual(O), xi(., O), the
    least |beta*| bmin = N(b*)^(1/n_v) (b* is principal), the bases Mo and
    Mbstar of O and b* (read-only), and the pair density of
    _pair_cutoff."""
    n_v = F.degree
    unit = FracIdeal.unit_ideal(F)
    bstar = dual_ideal(F, unit)
    bmin = float(bstar.absolute_norm()) ** (1 / n_v)
    Mo, Mbstar = ideal_embedding_matrix(unit), ideal_embedding_matrix(bstar)
    Mo.flags.writeable = Mbstar.flags.writeable = False
    pair_density = 2 / bmin if n_v == 1 else math.prod(
        math.pi * (1 + np.linalg.norm(M, axis=0).sum() / (2 * m)) ** 2
        / abs(np.linalg.det(M)) for M, m in ((Mo, 1), (Mbstar, bmin))) / 2
    return bstar, completed_zeta(F, unit), bmin, Mo, Mbstar, pair_density


@functools.lru_cache(maxsize=512)
def _generator_ratio(F, a: FracIdeal, gen_a, b: FracIdeal, gen_b) -> complex:
    """alpha/beta exact, then embedded (N(a)/N(b) over Q), for the
    generators alpha of a and beta of b that ideal_generator gives; built
    once per pair of ideals and the generators they were given (gen_a,
    gen_b: the key parts that ideal equality does not see)."""
    return F.embed(ideal_generator(a) / ideal_generator(b))


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


def _smooth_band_sums(norms, parts, B: float):
    """sum part phi over norms in (aB, B] for each array of powers in parts,
    phi the smooth weight."""
    q = norms - _SMOOTH_A * B
    q *= 1.0 / ((1 - _SMOOTH_A) * B)
    weight = _band_weight(q)
    return [float(np.dot(part, weight)) for part in parts]


# e_direct's phase e^(i theta): cos and sin of 2 pi j/M from a table, and of
# the reduced argument r, |r| <= pi/M, from short polynomials (Tang, ACM TOMS
# 15, 1989), on real arrays: numpy's complex exp, cos and sin are scalar libm
# loops, 20-40x slower a point than its real exp.  M = 2^12 keeps the
# truncation of the polynomials below 2.2e-18; the kernel runs over
# sub-blocks of _PHASE_BLOCK points, whose ten or so temporaries of 64 KB
# each stay in cache and below glibc's mmap threshold
_PHASE_M = 1 << 12
_PHASE_STEP = 2 * math.pi / _PHASE_M
_PHASE_BLOCK = 8192


def _phase_table():
    """cos and sin of 2 pi j/M, j = 0 .. M - 1, from angles in [0, pi/4]
    and the symmetries of the circle: taken directly, the angle near 2 pi
    rounds at about eps 2 pi, which is large against its small sine."""
    m = np.arange(_PHASE_M // 4)
    low = m <= _PHASE_M // 8
    a = _PHASE_STEP * np.where(low, m, _PHASE_M // 4 - m)
    qc = np.where(low, np.cos(a), np.sin(a))
    qs = np.where(low, np.sin(a), np.cos(a))
    return (np.concatenate([qc, -qs, -qc, qs]),
            np.concatenate([qs, qc, -qs, -qc]))


_PHASE_COS, _PHASE_SIN = _phase_table()
# adding 1.5 * 2^52 to |u| <= 2^51 rounds it to an integer, which then fills
# the low bits of the sum's significand
_ROUND_SHIFT = 1.5 * 2.0 ** 52


def _phase(logs: np.ndarray, t: float, mass: np.ndarray) -> np.ndarray:
    """mass cos(theta) and mass sin(theta), theta = t logs, for 1-d arrays
    logs and mass: one array of shape (2, logs.size), from real numpy
    operations alone, _PHASE_BLOCK points at a time.

    u = logs t/(2 pi/M) is reduced by whole turns to |u| <= M/2 (exact),
    k = rint(u) and r = (u - k) 2 pi/M (u - k is exact).  cos r =
    1 - r^2/2 + r^4/24 and sin r = r - r^3/6 within 2.2e-18 for
    |r| <= pi/M; the table gives cos and sin of 2 pi j/M at j = k mod M,
    and the angle sum combines them.  Every finite theta takes this path,
    with no warning.  Against mpmath's expj at the exact theta = t logs,
    |theta| <= 1e4 and mass 1 (tests/test_eisenstein.py), the error was at
    most 0.92 eps (1 + |theta|): u rounds at about |theta| eps, as theta
    itself does in any kernel.  With a mass the bound is
    eps |mass| (2 + |theta|)."""
    out = np.empty((2, logs.size))
    scale = t / _PHASE_STEP
    for a in range(0, logs.size, _PHASE_BLOCK):
        b = a + _PHASE_BLOCK
        u = logs[a:b] * scale
        turns = u * (1.0 / _PHASE_M)
        np.rint(turns, out=turns)
        turns *= _PHASE_M
        u -= turns
        k = u + _ROUND_SHIFT
        j = k.view(np.int64) & (_PHASE_M - 1)
        k -= _ROUND_SHIFT
        u -= k
        u *= _PHASE_STEP
        r2 = u * u
        m = mass[a:b]
        # mass cos r and mass sin r
        mc = r2 * (1 / 24)
        mc -= 0.5
        mc *= r2
        mc *= m
        mc += m
        ms = r2 * (-1 / 6)
        ms += 1
        ms *= u
        ms *= m
        c, sn = _PHASE_COS.take(j), _PHASE_SIN.take(j)
        re = np.multiply(c, mc, out=out[0, a:b])
        re -= sn * ms
        im = np.multiply(sn, mc, out=out[1, a:b])
        im += c * ms
    return out


@functools.lru_cache(maxsize=None)
def _tail_quadrature(panels: int):
    """log u and the weights P'((u-a)/(1-a)) du of the 40-point
    Gauss-Legendre rule on each of `panels` equal parts of [a, 1];
    P'(t) = (2k+1) C(2k, k) (t (1-t))^k."""
    x, wts = np.polynomial.legendre.leggauss(40)
    t = ((np.arange(panels)[:, None] + (x + 1) / 2) / panels).ravel()
    k = _SMOOTH_K
    dP = (2 * k + 1) * math.comb(2 * k, k) * (t * (1 - t)) ** k
    return (np.log(_SMOOTH_A + (1 - _SMOOTH_A) * t),
            np.tile(wts / (2 * panels), panels) * dP)


def _smooth_tail_factor(s: complex) -> complex:
    """c(s) = 1/(2s-2) + int_a^1 u^(1-2s) P((u-a)/(1-a)) du, the integral of
    u^(1-2s) (1 - phi(u)) over u > a.  Integrated by parts it is
    int_a^1 u^(2-2s) dP / (2s-2), whose integrand is a smooth bump: no
    cancellation between 1/(2s-2) and the integral.  A 40-point
    Gauss-Legendre sum meets 1e-14 relative for real s up to 10 (real
    arithmetic for real s); u^(-2i Im s) turns 0.44 |Im s| times over
    [a, 1], so the rule runs on ceil(|Im s|/10) equal panels: on one, it
    was 1.7e-4 off at s = 1.8 + 30i."""
    logu, weights = _tail_quadrature(max(1, math.ceil(abs(s.imag) / 10)))
    return complex(np.dot(weights, np.exp((2 - 2 * s) * logu))) / (2 * s - 2)


# reduction steps before _sl2_reduce gives up; over Q a float x is a dyadic
# rational, so the reduction ends, and from y = 1e-300 it takes ~240 steps
_REDUCTION_STEPS = 1000


def _nearest_integer(F, x: np.ndarray) -> np.ndarray:
    """The element of O_F nearest to each x: np.rint over Q.  Over an
    imaginary field, x rounded within the row Z + v omega (v integral)
    nearest it, or within the next row where that is strictly nearer."""
    if F.is_rational:
        # + 0.0 makes rint's -0.0 a +0.0, as an integer rounding gives
        return np.rint(x) + 0.0
    omega = F.omega_embeddings()[0]
    v = x.imag / omega.imag
    rows = np.rint(v) + np.array([[0.0], [1.0]]) * np.sign(v - np.rint(v))
    near = np.rint(x.real - rows * omega.real) + rows * omega
    return near[np.argmin(np.abs(x - near), axis=0), np.arange(x.size)]


def _sl2_reduce(F, x: np.ndarray, y: np.ndarray):
    """Each x + y j of two 1-d arrays (real, y > 0, over Q) moved by
    SL2(O_F) into |x| <= R_F, |x|^2 + |y|^2 >= 1 (up to 1e-12): translate x
    by its nearest element of O_F and invert (x, y) -> (-conj x, y)/(|x|^2
    + |y|^2) while that is < 1, each point as often as it needs.  The
    covering radius R_F of O_F is < 1 for the five norm-Euclidean base
    fields (Swan, Adv. Math. 6, 1971).  Raises DegenerateLatticeError when
    |x|^2 + |y|^2 underflows to 0 and ConvergenceError after
    _REDUCTION_STEPS steps."""
    x, y = np.array(x), np.array(y)
    moving = np.ones(x.shape, bool)
    for _ in range(_REDUCTION_STEPS):
        xm, ym = x[moving], y[moving]
        xm -= _nearest_integer(F, xm)
        n = np.abs(xm) ** 2 + np.abs(ym) ** 2
        if not n.all():
            raise DegenerateLatticeError(
                f"SL2(O_F) reduction: |x|^2 + |y|^2 underflows at |y| = "
                f"{abs(ym[np.argmin(n)]):.3g}")
        inside = n < 1 - 1e-12
        xm[inside] = -np.conj(xm[inside]) / n[inside]
        ym[inside] /= n[inside]
        x[moving], y[moving] = xm, ym
        moving[moving] = inside
        if not moving.any():
            return x, y
    raise ConvergenceError(
        f"SL2(O_F) reduction did not end in {_REDUCTION_STEPS} steps "
        f"(reached |y| = {abs(y[np.argmax(moving)]):.3g})")


def _power(base: np.ndarray, t: complex) -> np.ndarray:
    """base^t for an array base > 0; ConvergenceError, before any overflow,
    where a value lies near or past the range of doubles (e^709 = 8e307)."""
    exponent = t * np.log(base)
    if np.max(exponent.real) > 709:
        raise ConvergenceError(
            f"expansion prefactor |Ny|^({t}) lies past the range of doubles")
    return np.exp(exponent)


def _complex_points(M: np.ndarray, r_max: float) -> np.ndarray:
    """One of each pair +-point of the nonzero points of the lattice of
    dimension d = 1 or 2 with basis M and |point| <= r_max, as complex
    numbers (the real line, or the plane)."""
    units = np.array([1, 1j])[:M.shape[0]] @ M
    return np.concatenate([np.zeros(0, dtype=complex),
                           *(units @ cs for _, cs in
                             ball_points(M, r_max, coeffs=True))])
