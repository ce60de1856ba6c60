"""The integral representation of completed zeta functions of quadratic
fields K by the base-field Eisenstein series, over the norm-one torus modulo
units, together with the induced limit-formula comparison.

Base field Q only (real or imaginary quadratic K).  For an ideal presented
as A = a*z + b with rational ideals a, b and z in K, and rho: K_R -> C the
measure-preserving map (z_w, z_w') -> z_w + z_w' i of a real K, the twisted
lattices

    rho(u~ A) = (a z_tau + b) * rho(u~),      z_tau = rho(u~ z) / rho(u~),

are plain pseudo-basis lattices in C up to the scale rho(u~), which leaves
Ehat unchanged, so the whole Eisenstein machinery applies to every node.
The torus has one coordinate, tau = log t for u = (t, 1/t): the lift
u~ = (e^(tau/2), e^(-tau/2)) puts z_tau at hyperbolic arc length tau along
the geodesic from z_w' to z_w, in the closed form of HeckeSetup.node.
Over the period [-R, R) the nodes have |y| = |h| sech(tau) >= |h| sech(R)
(the half-width h = (z_w - z_w')/2); the expansion evaluates each node at the
SL2(Z)-reduced point of (N a/N b) z_tau, so every node costs about the
same, while h_value and y keep describing z_tau itself (the limit formula
integrates h - log|y|).  The nodes build no lattice: their evaluator is
EisensteinEvaluator.at_point of one evaluator that HeckeSetup builds once
(at tau = 0).

The quadrature evaluates each refinement level as one batch: the new nodes
of a level make one array evaluator (HeckeSetup.evaluator_at with an array
tau), whose reduction, xi terms and Bessel pair sum run on arrays, with one
pair array and one Bessel call for the level; the first two levels make one
batch (numerics.nested_trapezoid).  A single node is the same code on
arrays of one entry.

Real K: the torus splits into two sign components, which carry the same
integrand: the node of the lift u~ = (-e^(tau/2), e^(-tau/2)) is the
complex conjugate of the node of (e^(tau/2), e^(-tau/2)), and the lattice
a conj(z) + b is the mirror image of a z + b, with the same norms, so Ehat,
h and log|y| agree there.  A unit of norm -1 maps one component to the
other, so for either unit norm the integrand has period 2R in tau (R the
regulator), the torus modulo units has measure 4R, and the quadrature
evaluates one period of the sign +1 component, counted twice.  Imaginary
K: the integrand is constant and the torus has measure 4 pi / w_K.
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
from .errors import ConvergenceError, UnsupportedFieldError
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
            # centre and half-width of the geodesic from z_w' to z_w
            self.m = (self.zw + self.zwp) / 2
            self.h = (self.zw - self.zwp) / 2
            self.period = 2 * K.regulator
            self.measure = 2.0 * self.period
        else:
            self.measure = 4.0 * math.pi / K.w
            zc = K.embed(self.z_K, 0)
            self.base_lattice = OFLattice(
                self.F, self.ideal_a,
                DNumber.from_xy(self.F, zc.real, zc.imag),
                self.ideal_b)

    # -- the lattice family ----------------------------------------------------

    def node(self, tau):
        """The node rho(u~ z)/rho(u~) = x + y i of the lift u~ = (e^(tau/2),
        e^(-tau/2)) on the sign +1 component, as (x, y): the point at
        hyperbolic arc length tau from m + |h| i along the geodesic from
        z_w' to z_w, of centre m = self.m and half-width h = self.h,

            x = m + h tanh(tau),      y = |h| sech(tau),

        and sech(tau) = 2 e/(1 + e^2), e = e^(-|tau|), which neither
        overflows nor cancels.  Elementwise for an array tau."""
        e = np.exp(-np.abs(tau))
        return (self.m + self.h * np.tanh(tau),
                abs(self.h) * (2 * e / (1 + e * e)))

    @cached_property
    def _node_template(self) -> EisensteinEvaluator:
        """The evaluator of a z + b at the node tau = 0; built on the first
        node, so that a setup that evaluates none pays nothing."""
        if not self.K.is_real_quadratic:
            raise UnsupportedFieldError("the torus nodes exist for real K")
        x, y = self.node(0.0)
        lat = OFLattice(self.F, self.ideal_a, DNumber.from_xy(self.F, x, y),
                        self.ideal_b)
        return EisensteinEvaluator(lat)

    def evaluator_at(self, tau) -> EisensteinEvaluator:
        """The expansion evaluator of a z_tau + b at the node z_tau = node(tau)
        (the lattice rho(u~ A) up to the scale rho(u~)), equal bit for bit
        to one built on that lattice; it supports the expansion route only
        (EisensteinEvaluator.at_point).  With an array tau it is one
        evaluator of all those nodes, whose values are arrays of tau's
        shape."""
        template = self._node_template
        return template.at_point(*self.node(tau))


def _torus_quadrature(setup: HeckeSetup, node_fn, tol: float):
    """The integral of node_fn over both sign components of the torus modulo
    units (see the module docstring): twice int_{-R}^{R} node_fn(tau) dtau
    over the sign +1 component.  The trapezoid rule over this period (the
    integrand is periodic, so the rule converges geometrically and its nodes
    nest) starts from 8 nodes and stops when a halving moves the returned
    value by at most tol/2.  node_fn takes the array of all new nodes tau of
    a refinement level and returns their values.

    Rounding x = m + h tanh(tau) moves the node at tau by a hyperbolic
    distance of up to eps cosh(tau) (|m| + |h|)/|h|.  ConvergenceError
    before the first node when that reaches 1 at tau = R, where the nodes
    carry no digits, and after convergence when the trapezoid sum of
    |value| times it over the nodes, an estimate of the rounding error of
    the value, exceeds tol/8."""
    R = setup.period / 2
    shift = np.finfo(float).eps * (abs(setup.m) + abs(setup.h)) / abs(setup.h)
    # log(shift cosh R), formed in logs since cosh overflows past R = 710
    log_worst = math.log(shift / 2) + R + math.log1p(math.exp(-2 * R))
    if log_worst >= 0:
        raise ConvergenceError(
            f"torus quadrature: regulator {R:.6g} is too large: rounding "
            f"moves the nodes near tau = +-R by e^{log_worst:.3g} >= 1",
            tol=tol, points=0)
    seen = {"rounding": 0.0, "nodes": 0}

    def values(taus: np.ndarray) -> np.ndarray:
        vals = 2 * np.asarray(node_fn(taus), dtype=complex)
        seen["rounding"] += shift * float(np.sum(np.abs(vals) * np.cosh(taus)))
        seen["nodes"] += taus.size
        return vals

    value = complex(nested_trapezoid(
        values, lambda step: np.arange(-round(R / step), round(R / step)),
        R / 4, tol / 2, "torus quadrature"))
    step = 2 * R / seen["nodes"]
    rounding = step * seen["rounding"]
    if rounding > tol / 8:
        raise ConvergenceError(
            f"torus quadrature: rounding estimate {rounding:.3g} of the value "
            f"> tol/8 = {tol / 8:.3g} (regulator {R:.6g}, nodes "
            f"{seen['nodes']})", cutoff=step, last_delta=rounding, tol=tol,
            points=seen["nodes"])
    return value


def hecke_integral(setup: HeckeSetup, s: complex, tol: float = 1e-8) -> complex:
    """The integral over the norm-one torus modulo units of Ehat(rho(u~ A),
    s).  Equals the completed zeta of the class of A^{-1}."""
    s = complex(s)
    if setup.K.is_imaginary_quadratic:
        ev = EisensteinEvaluator(setup.base_lattice)
        return setup.measure * ev.ehat_expansion(s, tol / 20)

    node_tol = tol / (8.0 * setup.measure)

    def nodes(taus: np.ndarray) -> np.ndarray:
        return setup.evaluator_at(taus).ehat_expansion(s, node_tol)

    return _torus_quadrature(setup, nodes, tol)


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
            + (C_F / (2 C_K)) * int (h(z_tau, a, b) - log|N y_tau|) du

    for real quadratic K with A = a z + b over rational ideals, the integral
    over the norm-one torus modulo units (measure 4R).  Returns the
    per-term breakdown; the left side comes from the zeta(s) L(s, chi)
    factorization, independent of the one torus integral on the right.
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

    czq = completed_zeta(setup.F, setup.ideal_a)
    ct_xi_F = czq.laurent_ct()
    term_ct = 2.0 * ct_xi_F / CF
    term_log = -math.log(float(setup.ideal_a.absolute_norm()
                               / setup.ideal_b.absolute_norm()))

    # the term's own integrand at the caller's tol: a node error d moves the
    # term by at most CF/(2 CK) * measure * d = CF d (measure = 4R = 2 CK),
    # so h at tol/4 leaves tol/2 for the quadrature and tol/8 for rounding
    coef = CF / (2 * CK)
    node_tol = tol / 4.0

    def nodes(taus: np.ndarray) -> np.ndarray:
        ev = setup.evaluator_at(taus)
        return coef * (ev.h_value(node_tol) - np.log(np.abs(ev.y)))

    term_int = _torus_quadrature(setup, nodes, tol).real

    rhs = term_ct + term_log + term_int
    return {
        "lhs": lhs,
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
    """(measure of the torus modulo units, 2 C_K / C_F): equal numbers by the
    residue comparison of the integral formula (both 4R for real K)."""
    CK = c_F(setup.K)
    CF = c_F(setup.F)
    return setup.measure, 2.0 * CK / CF

