"""The integral representation of completed zeta functions of quadratic
fields K by the base-field Eisenstein series, over the norm-one torus modulo
squared relative units, together with the induced limit-formula comparison.

Base field Q only (real or imaginary quadratic K).  For an ideal presented
as A = a*z + b with rational ideals a, b and z in K, the twisted lattices

    rho(u~ A) = (a z_u + b) * rho(u~),      z_u = rho(u~ z) / rho(u~),

are plain pseudo-basis lattices in C, so the whole Eisenstein machinery
applies to every node.  Near t = eps0 the nodes z_u have |y| down to 1e-4;
the expansion evaluates each node at the SL2(Z)-reduced point of
(N a/N b) z_u, so every node costs about the same, while h_value and y keep
describing z_u itself (the limit formula integrates h - log|y|).  After that
reduction every node has a = b = Z, so the nodes build no lattice: their
evaluator is EisensteinEvaluator.at_point of one evaluator that HeckeSetup
builds once (at t = 1) and that holds b*, xi(s, Z), the norms and the
volumes for all nodes.

The quadrature evaluates each refinement level as one batch: the new nodes
of a level, both signs, make one array evaluator (HeckeSetup.evaluator_at
with arrays sign, t), whose reduction, xi terms and Bessel pair sum run on
arrays, with one pair array and one Bessel call for the level.  A single
node is the same code on arrays of one entry.

Real K: the torus splits into two sign components, each a circle of length
log eps0 in t-coordinates, where eps0 = eps^4 and w_rel = 2 when the
fundamental unit has norm -1, and eps0 = eps^2, w_rel = 1 when it has
norm +1 (the case split is confirmed against the zeta oracle by the test
suite before being relied on).  Imaginary K: the integrand is constant and
the torus has measure 4 pi / w_K.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .basefield import FieldDescriptor, FracIdeal, QuadElement, make_field
from .dalgebra import DNumber
from .eisenstein import EisensteinEvaluator
from .errors import UnsupportedFieldError
from .lattice import OFLattice
from .numerics import nested_trapezoid
from .specialfun import gamma_F
from .zeta import c_F, completed_zeta, xi_K_laurent


class HeckeSetup:
    """A quadratic field K with an ideal A = a*z + b (a, b rational ideals,
    z in K), embeddings oriented so that z' > z for real K, and the unit
    data driving the torus quadrature."""

    def __init__(self, K: FieldDescriptor, ideal_A: Optional[FracIdeal] = None):
        if K.kind != "quadratic":
            raise UnsupportedFieldError("K must be quadratic over Q")
        self.K = K
        self.F = make_field("Q")
        if ideal_A is None:
            ideal_A = FracIdeal.unit_ideal(K)
        self.ideal_A = ideal_A
        q, a, b, c = ideal_A.hnf
        from fractions import Fraction
        self.ideal_a = FracIdeal(self.F, gen=q)
        self.ideal_b = FracIdeal(self.F, gen=q * a)
        self.z_K = QuadElement(K, Fraction(b), Fraction(c))

        if K.is_real_quadratic:
            e1, e2 = self.z_K.embeddings()
            if e1 == e2:
                raise UnsupportedFieldError("z generates Q, not K")
            # orientation z' > z
            self.zw, self.zwp = (e1, e2) if e2 > e1 else (e2, e1)
            self.unit_norm = K.fundamental_unit_norm
            if self.unit_norm == -1:
                self.w_rel = 2
                self.eps0 = math.exp(4 * K.regulator)
            else:
                self.w_rel = 1
                self.eps0 = math.exp(2 * K.regulator)
            self.measure = 2.0 * math.log(self.eps0)
        else:
            self.w_rel = 1
            self.eps0 = None
            self.measure = 4.0 * math.pi / K.w
            zc = K.embed(self.z_K, 0)
            self.base_lattice = OFLattice(
                self.F, self.ideal_a,
                DNumber.from_xy(self.F, zc.real, zc.imag),
                self.ideal_b)

    # -- the lattice family ----------------------------------------------------

    def lift_components(self, sign, t):
        """The lift u~ of u = (sign*t, 1/(sign*t)): components at (w, w');
        elementwise for arrays sign, t."""
        if not np.all((sign == 1) | (sign == -1)):
            raise ValueError("sign must be +-1")
        rt = np.sqrt(t)
        return sign * rt, 1.0 / rt

    def z_u(self, sign, t):
        """z_u = rho(u~ z)/rho(u~) in C; elementwise for arrays sign, t."""
        uw, uwp = self.lift_components(sign, t)
        return (uw * self.zw + 1j * (uwp * self.zwp)) / (uw + 1j * uwp)

    def lattice_at(self, sign: int, t: float) -> OFLattice:
        """rho(u~ A) = (a z_u + b) rho(u~) as a pseudo-basis lattice."""
        if not self.K.is_real_quadratic:
            raise UnsupportedFieldError("lattice family exists for real K")
        if not (1.0 <= t < self.eps0 * (1 + 1e-12)):
            raise ValueError(f"t={t} outside the domain [1, eps0)")
        uw, uwp = self.lift_components(sign, t)
        zu = self.z_u(sign, t)
        scale = DNumber.from_xy(self.F, uw, uwp)
        return OFLattice(self.F, self.ideal_a,
                         DNumber.from_xy(self.F, zu.real, zu.imag),
                         self.ideal_b, scale=scale)

    @cached_property
    def _node_template(self) -> EisensteinEvaluator:
        """The evaluator of a z + b at the node t = 1, sign +1; built on the
        first node, so that a setup that evaluates none pays nothing."""
        if not self.K.is_real_quadratic:
            raise UnsupportedFieldError("the torus nodes exist for real K")
        zu = self.z_u(1, 1.0)
        lat = OFLattice(self.F, self.ideal_a,
                        DNumber.from_xy(self.F, zu.real, zu.imag),
                        self.ideal_b)
        return EisensteinEvaluator(lat)

    def evaluator_at(self, sign, t) -> EisensteinEvaluator:
        """The expansion evaluator of a z_u + b (the lattice rho(u~ A) up to
        the scale rho(u~)), equal bit for bit to one built on that lattice;
        it supports the expansion route only (EisensteinEvaluator.at_point).
        With arrays sign and/or t it is one evaluator of all those nodes,
        whose values are arrays of their broadcast shape."""
        template = self._node_template
        zu = self.z_u(sign, t)
        return template.at_point(zu.real, zu.imag)


def _torus_quadrature(setup: HeckeSetup, node_fn, tol: float):
    """Sum over both sign components of int_1^eps0 node_fn(sign, t) dt/t by
    the trapezoid rule in log t over the period log eps0 (the integrand is
    periodic there, so the rule converges geometrically and its nodes nest),
    from 8 nodes per sign.  node_fn takes the arrays (signs, ts) of all new
    nodes of a refinement level, both signs, and returns their values."""
    period = math.log(setup.eps0)

    def integrand(taus: np.ndarray) -> np.ndarray:
        # math.exp node by node: the t values of a scalar evaluation
        ts = np.array([math.exp(tau) for tau in taus])
        signs = np.repeat([1, -1], ts.size)
        return np.asarray(node_fn(signs, np.tile(ts, 2)), dtype=complex)

    return complex(nested_trapezoid(
        integrand, lambda h: np.arange(round(period / h)), period / 8, tol / 2,
        "torus quadrature"))


def hecke_integral(setup: HeckeSetup, s: complex, tol: float = 1e-8) -> complex:
    """(1/w_rel) int over the norm-one torus mod squared relative units of
    Ehat(rho(u~ A), s).  Equals the completed zeta of the class of A^{-1}."""
    s = complex(s)
    if setup.K.is_imaginary_quadratic:
        ev = EisensteinEvaluator(setup.base_lattice)
        return (setup.measure / setup.w_rel) * ev.ehat_expansion(s, tol / 20)

    node_tol = tol / (8.0 * setup.measure)

    def nodes(signs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return setup.evaluator_at(signs, ts).ehat_expansion(s, node_tol)

    return _torus_quadrature(setup, nodes, tol) / setup.w_rel


def hecke_laurent(setup: HeckeSetup, tol: float = 1e-8) -> Tuple[float, float]:
    """(residue, constant term) at s = 1 of the torus integral, from the
    per-node Laurent data of Ehat (residue C_F/2 is node independent)."""
    CF = c_F(setup.F)
    if setup.K.is_imaginary_quadratic:
        ev = EisensteinEvaluator(setup.base_lattice)
        fac = setup.measure / setup.w_rel
        return fac * CF / 2, fac * ev.ct(tol / 20)
    residue = setup.measure * (CF / 2) / setup.w_rel

    node_tol = tol / (8.0 * setup.measure)

    def nodes(signs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return setup.evaluator_at(signs, ts).ct(node_tol)

    ct = _torus_quadrature(setup, nodes, tol) / setup.w_rel
    return residue, ct.real


def xi_K_oracle(K: FieldDescriptor, s: complex) -> complex:
    """d_K^{s/2} Gamma_K(s) zeta_K(s) through the Dirichlet-series route
    (class number 1)."""
    from .zeta import class_number, zeta_K
    if class_number(K) != 1:
        raise UnsupportedFieldError("oracle route needs class number 1")
    s = complex(s)
    dK = abs(K.discriminant)
    return cmath.exp((s / 2) * math.log(dK)) * gamma_F(K, s) * zeta_K(K, s)


def relative_klf_check(setup: HeckeSetup, tol: float = 1e-8) -> dict:
    """Both sides of the relative limit formula

        CT xi_K(s, A) / C_K = 2 CT xi_F(s, a)/C_F - log(N a / N b)
            + (C_F / (2 w_rel C_K)) * int (h(z_u, a, b) - log|N y_u|) du

    for real quadratic K with A = a z + b over rational ideals.  Returns the
    per-term breakdown; the left side is computed independently through the
    zeta(s) L(s, chi) factorization and again from the Laurent data of the
    torus integral.
    """
    if not setup.K.is_real_quadratic:
        raise UnsupportedFieldError("the relative limit formula check needs real K")
    K = setup.K
    CF = c_F(setup.F)
    CK = c_F(K)

    # xi_K(s, A) depends only on the ideal class of A; for class number 1 it
    # equals xi_K(s, O), which is what xi_K_laurent computes.
    res_K, ct_K = xi_K_laurent(K)
    lhs = ct_K / res_K          # res_K = C_K for class number one

    _, ct_hecke = hecke_laurent(setup, tol)
    lhs_hecke = ct_hecke / CK

    czq = completed_zeta(setup.F, setup.ideal_a)
    ct_xi_F = czq.laurent_ct()
    term_ct = 2.0 * ct_xi_F / CF
    term_log = -math.log(float(setup.ideal_a.absolute_norm()
                               / setup.ideal_b.absolute_norm()))

    node_tol = tol * CK / 4.0

    def nodes(signs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        ev = setup.evaluator_at(signs, ts)
        return ev.h_value(node_tol) - np.log(np.abs(ev.y))

    integral = _torus_quadrature(setup, nodes, tol * CK).real
    term_int = CF / (2 * setup.w_rel * CK) * integral

    rhs = term_ct + term_log + term_int
    return {
        "lhs": lhs,
        "lhs_hecke": lhs_hecke,
        "rhs": rhs,
        "abs_error": abs(lhs - rhs),
        "terms": {
            "ct_xi_F_term": term_ct,
            "log_norm_term": term_log,
            "quadrature_term": term_int,
            "torus_measure": setup.measure,
            "ct_xi_K": ct_K,
            "C_K": CK,
        },
    }


def torus_measure_identity(setup: HeckeSetup) -> Tuple[float, float]:
    """(measure of the torus domain, 2 w_rel C_K / C_F): equal numbers by the
    residue comparison of the integral formula."""
    CK = c_F(setup.K)
    CF = c_F(setup.F)
    return setup.measure, 2.0 * setup.w_rel * CK / CF


def classical_real_quadratic_integral(setup: HeckeSetup, s: complex,
                                      tol: float = 1e-8) -> complex:
    """The classical normalization: 2 d^{-s/2} Gamma(s)/Gamma(s/2)^2 *
    int_1^{eps^2} E(z_t, s) dt/t over the positive lift only."""
    if not setup.K.is_real_quadratic:
        raise UnsupportedFieldError("real quadratic only")
    s = complex(s)
    K = setup.K
    gamma2s = gamma_F(setup.F, 2 * s)
    node_tol = tol / 16.0
    # eps0 = eps^(2 w_rel): t -> t^(1/w_rel) maps [1, eps0] onto [1, eps^2]
    # and scales the measure dt/t by 1/w_rel
    w = setup.w_rel

    def nodes(signs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        out = np.zeros(ts.shape, complex)
        plus = signs > 0
        out[plus] = setup.evaluator_at(1, ts[plus] ** (1.0 / w)) \
            .ehat_expansion(s, node_tol)
        return out

    integral_E = _torus_quadrature(setup, nodes, tol * w) / (w * gamma2s)
    dK = abs(K.discriminant)
    from .specialfun import complex_gamma
    pref = 2.0 * cmath.exp(-(s / 2) * math.log(dK)) * complex_gamma(s) \
        / complex_gamma(s / 2) ** 2
    return pref * integral_E
