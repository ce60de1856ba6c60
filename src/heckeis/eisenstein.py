"""The Eisenstein series of an O_F-lattice and its completion.

Three evaluation routes, kept structurally independent so they can certify
each other:

* e_direct: the defining orbit sum V^s sum ||lambda||^(-2s) truncated at a
  norm cutoff, with an integral estimate of the tail added and a doubling
  check (Re s > 1 only; the region where the raw series converges).
* ehat_expansion: the three-term formula

      Ehat = P^s xi(2s, b) + P^(1-s) xi(2s-1, a)
           + V(a)^s V(b)^(s-1) |Ny|^s * sum_{(alpha, beta*)}
             e(Tr(x alpha beta*)) B_F(alpha y, beta*, s - 1/2),

  P = (N(a)/N(b)) |Ny|, over nonzero pairs in a x dual(b) modulo units
  (the unit group is finite and acts freely, so the sum runs over all
  pairs divided by w_F).  Valid for all s away from the poles.
* ehat_lattice: the Gaussian Mellin integral over the idele norm, split at
  |N t| = 1 and Poisson-dualized; an exponentially convergent sum over the
  points of the lattice and of its dual requiring only Z-lattice data

      Ehat = Psi(s, L) + Psi(1-s, L*) + C_F (V^(s-1)/(2s-2) - V^s/(2s)).

The residue at s = 1 is C_F/2; the constant term is produced in closed form
from the h function and the constant term of xi.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Tuple

import numpy as np

from .basefield import FieldDescriptor, FracIdeal, dual_ideal
from .errors import ConvergenceError, DegenerateLatticeError, PoleError
from .lattice import OFLattice, ball_points
from .precision import DEFAULT, PrecisionConfig
from .specialfun import bessel_k_batch, gamma_F, upper_incomplete_gamma
from .zeta import _ideal_embedding_matrix, c_F, completed_zeta

_POLE_RADIUS = 1e-8


def _cpow(base: float, s: complex) -> complex:
    return cmath.exp(s * math.log(base))


class EisensteinEvaluator:
    """Evaluator bound to one lattice; immutable after construction."""

    def __init__(self, lattice: OFLattice, config: PrecisionConfig = DEFAULT):
        self.lattice = lattice
        self.F = lattice.field
        self.config = config
        self.CF = c_F(self.F)
        self._dual: Optional[OFLattice] = None
        self._pairs: dict = {}
        if lattice.z is not None:
            if lattice.scale is not None:
                # modular invariance: the right scale factor never changes
                # Ehat, so evaluate the unscaled pseudo-basis lattice
                self._exp_lattice = OFLattice(
                    self.F, lattice.ideal_a, lattice.z, lattice.ideal_b,
                    config=config)
            else:
                self._exp_lattice = lattice
            la = self._exp_lattice
            self.ideal_a, self.ideal_b = la.ideal_a, la.ideal_b
            self.bstar = dual_ideal(self.F, self.ideal_b)
            self.zeta_a = completed_zeta(self.F, self.ideal_a, config)
            self.zeta_b = completed_zeta(self.F, self.ideal_b, config)
            self.x = la.z.x_part
            self.y = la.z.y_part
            self.ny = abs(self.y) if self.F.is_rational else abs(self.y) ** 2
            if self.ny < 1e-10:
                raise DegenerateLatticeError(
                    "|N(y)| below 1e-10: expansion ill-conditioned")
            self.na = float(self.ideal_a.absolute_norm())
            self.nb = float(self.ideal_b.absolute_norm())
            disc = abs(self.F.discriminant)
            self.Va = math.sqrt(disc) * self.na
            self.Vb = math.sqrt(disc) * self.nb
            self.P = (self.na / self.nb) * self.ny

    # ------------------------------------------------------------------ direct

    def e_direct(self, s: complex, tol: float = 1e-9) -> complex:
        """E(Lambda, s) by truncated orbit summation plus integral tail
        correction; requires Re s > 1.05."""
        s = complex(s)
        if s.real <= 1.05:
            raise ConvergenceError(
                "direct summation converges too slowly for Re s <= 1.05; "
                "use the expansion path")
        lat = self.lattice
        V = lat.covolume
        w = lat.field.w
        kappa = 2 * math.pi if lat.field.is_rational else 4 * math.pi ** 2

        def tail(B: float) -> complex:
            return _cpow(V, s) * kappa * _cpow(B, 2 - 2 * s) \
                / (w * V * (2 * s - 2))

        def partial(B: float) -> complex:
            acc = 0j
            for norms in lat.norm_chunks(B):
                acc += complex(np.sum(np.exp(-2 * s * np.log(norms))))
            return _cpow(V, s) * acc / w

        # the doubling difference can understate the true truncation error by
        # an order of magnitude when lattice-shell oscillations dominate, so
        # the acceptance threshold carries a 16x safety factor
        B = max(8.0, 2.0 * V ** (1.0 / lat.dim))
        prev = partial(B) + tail(B)
        for _ in range(self.config.quad_max_doublings):
            B *= 2.0
            cur = partial(B) + tail(B)
            if abs(cur - prev) <= tol / 16:
                return cur
            prev = cur
        raise ConvergenceError(
            f"direct sum did not stabilize at tol={tol}; use the expansion")

    # --------------------------------------------------------------- expansion

    def _pair_data(self, L: float):
        """Arrays describing the pairs (alpha, beta*) with Bessel argument
        n_v pi |alpha y beta*| <= L: (bessel args, phase exponents
        Tr(x alpha beta*), norm ratios |N(beta*/(alpha y))|)."""
        key = round(L, 6)
        hit = self._pairs.get(key)
        if hit is not None:
            return hit
        if self.F.is_rational:
            a = self.na
            bs = float(self.bstar.absolute_norm())
            ay = abs(self.y)
            mn_max = L / (math.pi * a * bs * ay)
            ms, ns = [], []
            m = 1
            while m <= mn_max:
                n_max = int(mn_max / m)
                for n in range(1, n_max + 1):
                    ms.extend((m, m))
                    ns.extend((n, -n))
                m += 1
            if not ms:
                out = (np.zeros(0), np.zeros(0), np.zeros(0))
                self._pairs[key] = out
                return out
            ms = np.array(ms, dtype=float)
            ns = np.array(ns, dtype=float)
            args = math.pi * a * bs * ay * ms * np.abs(ns)
            phases = self.x * (a * ms) * (bs * ns)
            ratios = (bs * np.abs(ns)) / (a * ms * ay)
            out = (args, phases, ratios)
        else:
            Ma = _ideal_embedding_matrix(self.ideal_a)
            Mb = _ideal_embedding_matrix(self.bstar)
            ay = abs(self.y)
            cap = L / (2 * math.pi * ay)
            n_cap = self.config.enum_point_cap
            betas = _complex_points(Mb, cap / _min_abs(Ma, n_cap), n_cap)
            if betas.size == 0:
                out = (np.zeros(0), np.zeros(0), np.zeros(0))
                self._pairs[key] = out
                return out
            alphas = _complex_points(Ma, cap / np.abs(betas).min(), n_cap)
            aabs = np.abs(alphas)
            babs = np.abs(betas)
            order = np.argsort(babs)
            betas, babs = betas[order], babs[order]
            alist, blist = [], []
            for al, aa in zip(alphas, aabs):
                k = np.searchsorted(babs, cap / aa, side="right")
                if k:
                    alist.append(np.full(k, al))
                    blist.append(betas[:k])
            if not alist:
                out = (np.zeros(0), np.zeros(0), np.zeros(0))
                self._pairs[key] = out
                return out
            av = np.concatenate(alist)
            bv = np.concatenate(blist)
            args = 2 * math.pi * np.abs(av) * np.abs(bv) * ay
            prod = av * bv
            phases = 2.0 * (complex(self.x) * prod).real
            ratios = (np.abs(bv) / (np.abs(av) * ay)) ** 2
            out = (args, phases, ratios)
        self._pairs[key] = out
        return out

    def _bessel_sum(self, s: complex, L: float, tol: float) -> Tuple[complex, complex]:
        """The pair sum at threshold L and at threshold L - 2 (for the
        doubling check); order s - 1/2 enters through the field signature."""
        args, phases, ratios = self._pair_data(L)
        if args.size == 0:
            return 0j, 0j
        nu = (s - 0.5) if self.F.is_rational else (2 * s - 1)
        kv = bessel_k_batch(nu, args, tol=tol, config=self.config)
        if self.F.is_rational:
            terms = np.exp((s - 0.5) * np.log(ratios)) * kv
        else:
            terms = 2 * math.pi * np.exp((s - 0.5) * np.log(ratios)) * kv
        terms = terms * np.exp(2j * math.pi * phases)
        full = complex(np.sum(terms))
        inner = complex(np.sum(terms[args <= L - 2.0]))
        return full, inner

    def term1(self, s: complex, tol: float = None) -> complex:
        return _cpow(self.P, s) * self.zeta_b.value(2 * s, tol)

    def term2(self, s: complex, tol: float = None) -> complex:
        return _cpow(self.P, 1 - s) * self.zeta_a.value(2 * s - 1, tol)

    def term3(self, s: complex, tol: float = 1e-10) -> complex:
        # over Q the enumeration lists one representative per unit orbit
        # (m > 0); over imaginary quadratic fields it lists all pairs, so the
        # free unit action is divided out
        orbit_div = 1 if self.F.is_rational else self.F.w
        pref = _cpow(self.Va, s) * _cpow(self.Vb, s - 1) * _cpow(self.ny, s)
        scale = abs(pref) / orbit_div
        pair_tol = tol / max(scale, 1e-8)
        L = -math.log(min(pair_tol, 0.1)) + 5.0 + 2.0
        for _ in range(12):
            full, inner = self._bessel_sum(s, L, pair_tol / 50)
            if abs(full - inner) * scale <= tol / 10:
                return pref * full / orbit_div
            L += 2.0
        raise ConvergenceError("Bessel pair sum truncation did not stabilize")

    def ehat_expansion(self, s: complex, tol: float = 1e-10) -> complex:
        """Ehat(Lambda, s) through the three-term formula; needs the
        pseudo-basis presentation."""
        if self.lattice.z is None:
            raise DegenerateLatticeError(
                "expansion path needs pseudo-basis data")
        s = complex(s)
        return self.term1(s, tol) + self.term2(s, tol) + self.term3(s, tol)

    # ------------------------------------------------------------ lattice path

    def dual_lattice(self) -> OFLattice:
        if self._dual is None:
            self._dual = self.lattice.dual()
        return self._dual

    def _psi_at_cut(self, s: complex, lat: OFLattice, cut: float) -> complex:
        rational = self.F.is_rational
        bound = math.sqrt(cut / math.pi) if rational else cut / (2 * math.pi)
        total = 0j
        for norms in lat.norm_chunks(bound):
            if rational:
                xs = math.pi * norms * norms
                order = s
            else:
                xs = 2 * math.pi * norms
                order = 2 * s
            gv = np.array([upper_incomplete_gamma(order, x, tol=1e-15)
                           for x in xs], dtype=complex)
            total += complex(np.sum(np.exp(-order * np.log(xs)) * gv))
        if rational:
            total *= 0.5
        return _cpow(lat.covolume, s) * self.CF * total

    def psi(self, s: complex, lat: OFLattice, tol: float) -> complex:
        """Psi(s, L) = V^s C_F sum_{l != 0} int_{|Nt| >= 1} f(t l) |Nt|^{2s};
        entire in s, Gaussian-fast."""
        cut = -math.log(min(tol, 0.5)) + self.config.tail_margin \
            + 4.0 * max(1.0, abs(complex(s).real)) + 8.0
        val = self._psi_at_cut(s, lat, cut)
        for _ in range(24):
            nxt = self._psi_at_cut(s, lat, cut + 6.0)
            if abs(nxt - val) <= tol / 10:
                return nxt
            cut += 6.0
            val = nxt
        raise ConvergenceError("lattice-path tail did not stabilize")

    def ehat_lattice(self, s: complex, tol: float = 1e-10) -> complex:
        """Ehat(Lambda, s) through the split Mellin integral; works from the
        Z-basis alone (any lattice, including duals), all s off the poles."""
        s = complex(s)
        if abs(s) < _POLE_RADIUS or abs(s - 1) < _POLE_RADIUS:
            raise PoleError("Ehat has simple poles at s = 0, 1",
                            location=s, residue=self.CF / 2)
        V = self.lattice.covolume
        lnV = math.log(V)
        pole_part = self.CF * (cmath.exp((s - 1) * lnV) / (2 * s - 2)
                               - cmath.exp(s * lnV) / (2 * s))
        return self.psi(s, self.lattice, tol) \
            + self.psi(1 - s, self.dual_lattice(), tol) + pole_part

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

    def h_value(self, tol: float = 1e-10) -> float:
        """The limit-formula function h(z, a, b): (2/C_F) [ P xi(2, b)
        + V(a) |Ny| S(1) ]; real, with the imaginary part of the pair sum
        cancelling between conjugate pairs."""
        if self.lattice.z is None:
            raise DegenerateLatticeError("h needs pseudo-basis data")
        t1 = self.term1(1.0, tol)
        t3 = self.term3(1.0, tol)
        out = (2.0 / self.CF) * (t1 + t3)
        if abs(out.imag) > 1e-8:
            raise ConvergenceError(
                f"imaginary part {out.imag} of h did not cancel")
        return out.real

    def ct(self, tol: float = 1e-10) -> float:
        """Constant term of Ehat at s = 1:
        CT xi(s, a) + (C_F/2)(h - log P)."""
        ct_xi = self.zeta_a.laurent_ct(tol)
        return ct_xi + (self.CF / 2) * (self.h_value(tol) - math.log(self.P))

    def ct_lattice(self, tol: float = 1e-10) -> float:
        """Constant term through the lattice path (independent bookkeeping):
        Psi(1, L) + Psi(0, L*) + (C_F/2)(log V - V)."""
        V = self.lattice.covolume
        val = self.psi(1.0, self.lattice, tol) \
            + self.psi(0.0, self.dual_lattice(), tol) \
            + self.CF * (math.log(V) / 2 - V / 2)
        return val.real


# ---------------------------------------------------------------------------
# helpers


def _min_abs(M: np.ndarray, cap: int) -> float:
    """Minimal |alpha| over nonzero points of the 2-d lattice with basis M
    (the ball reaching the shorter basis vector holds a nonzero point)."""
    r = float(np.linalg.norm(M, axis=0).min())
    return math.sqrt(min(float(r2.min()) for r2 in ball_points(M, r, cap)))


def _complex_points(M: np.ndarray, r_max: float, cap: int) -> np.ndarray:
    """All nonzero points of the 2-d lattice with basis M and |point| <= r_max,
    as complex numbers."""
    pts = [complex(M[0, 0], M[1, 0]) * cs[0] + complex(M[0, 1], M[1, 1]) * cs[1]
           for _, cs in ball_points(M, r_max, cap, coeffs=True)]
    return np.concatenate([np.zeros(0, dtype=complex), *pts])


# ---------------------------------------------------------------------------
# module-level operation surface


def eisenstein_direct(lat: OFLattice, s: complex, tol: float = 1e-9,
                      config: PrecisionConfig = DEFAULT) -> complex:
    return EisensteinEvaluator(lat, config).e_direct(s, tol)


def eisenstein_expansion(lat: OFLattice, s: complex, tol: float = 1e-10,
                         config: PrecisionConfig = DEFAULT) -> complex:
    return EisensteinEvaluator(lat, config).ehat_expansion(s, tol)


def eisenstein_lattice_sum(lat: OFLattice, s: complex, tol: float = 1e-10,
                           config: PrecisionConfig = DEFAULT) -> complex:
    return EisensteinEvaluator(lat, config).ehat_lattice(s, tol)


def h_function(F: FieldDescriptor, z, ideal_a: FracIdeal, ideal_b: FracIdeal,
               tol: float = 1e-10, config: PrecisionConfig = DEFAULT) -> float:
    """h(z, a, b) for z given as a DNumber (or x + y j data via DNumber)."""
    lat = OFLattice(F, ideal_a, z, ideal_b, config=config)
    return EisensteinEvaluator(lat, config).h_value(tol)


def functional_equation_check(lat: OFLattice, s: complex, tol: float = 1e-9,
                              config: PrecisionConfig = DEFAULT):
    """Compare Ehat(L, s) with Ehat(L*, 1-s), the dual side evaluated through
    the lattice-sum route; returns a VerificationReport."""
    import time

    from .reports import VerificationReport
    t0 = time.perf_counter()
    ev = EisensteinEvaluator(lat, config)
    lhs = ev.ehat(s, tol / 4)
    rhs = EisensteinEvaluator(lat.dual(), config).ehat_lattice(1 - s, tol / 4)
    ms = int(round((time.perf_counter() - t0) * 1000))
    return VerificationReport(
        command="functional-equation", field_label=lat.field.label,
        parameters={"s": complex(s), "volume": lat.covolume, "tol": tol},
        lhs=lhs, rhs=rhs, tolerance=tol, wall_time_ms=ms)


def eisenstein_residue(lat: OFLattice, config: PrecisionConfig = DEFAULT) -> float:
    return EisensteinEvaluator(lat, config).residue()


def eisenstein_ct(lat: OFLattice, tol: float = 1e-10,
                  config: PrecisionConfig = DEFAULT) -> float:
    return EisensteinEvaluator(lat, config).ct(tol)
