"""Arithmetic in the product algebra D_F (one complex plane per real place,
one Hamilton quaternion algebra per complex place), the multiplicative norm,
the additive character exponent, and the transfer maps between K_R and D_F
for quadratic extensions K of Q.

Quaternions are stored in the C + Cj split (two complex coordinates), since
x-part / y-part extraction is the dominant operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .basefield import FieldDescriptor, make_field
from .errors import UnsupportedFieldError


@dataclass(frozen=True)
class Quaternion:
    """x + y*j with complex x, y; j*c = conj(c)*j for complex c."""

    x: complex
    y: complex

    @classmethod
    def from_coords(cls, r: float, i: float, j: float, k: float) -> "Quaternion":
        return cls(complex(r, i), complex(j, k))

    @property
    def coords(self):
        return (self.x.real, self.x.imag, self.y.real, self.y.imag)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(
                self.x * other.x - self.y * other.y.conjugate(),
                self.x * other.y + self.y * other.x.conjugate())
        # complex / real scalar acting by left multiplication
        c = complex(other)
        return Quaternion(c * self.x, c.conjugate() * self.y)

    def __rmul__(self, other):
        c = complex(other)
        return Quaternion(c * self.x, c * self.y)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.x.conjugate(), -self.y)

    def abs2(self) -> float:
        return abs(self.x) ** 2 + abs(self.y) ** 2

    def __abs__(self) -> float:
        return math.sqrt(self.abs2())

    def inverse(self) -> "Quaternion":
        n = self.abs2()
        if n == 0.0:
            raise ZeroDivisionError("zero quaternion")
        c = self.conjugate()
        return Quaternion(c.x / n, c.y / n)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


# basis quaternions
Q_ONE = Quaternion(1 + 0j, 0j)
Q_I = Quaternion(1j, 0j)
Q_J = Quaternion(0j, 1 + 0j)
Q_K = Quaternion(0j, 1j)


Component = Union[complex, Quaternion]


@dataclass(frozen=True)
class DNumber:
    """An element of D_F: one component per infinite place of F."""

    field: FieldDescriptor
    components: tuple

    @classmethod
    def from_xy(cls, field: FieldDescriptor, x, y) -> "DNumber":
        """Build from the x/y split: z = x + y*j_F with x, y in F_R.

        For F = Q both are floats, for imaginary quadratic F both complex.
        """
        if field.is_rational:
            return cls(field, (complex(float(x), float(y)),))
        if field.is_imaginary_quadratic:
            return cls(field, (Quaternion(complex(x), complex(y)),))
        raise UnsupportedFieldError(f"{field.label} is not a supported base field")

    @property
    def x_part(self):
        """x in the decomposition z = x + y*j_F (float for Q, complex else)."""
        c = self.components[0]
        if isinstance(c, Quaternion):
            return c.x
        return c.real

    @property
    def y_part(self):
        c = self.components[0]
        if isinstance(c, Quaternion):
            return c.y
        return c.imag

    def __mul__(self, other: "DNumber") -> "DNumber":
        return DNumber(self.field, tuple(
            a * b for a, b in zip(self.components, other.components)))

    def __add__(self, other: "DNumber") -> "DNumber":
        return DNumber(self.field, tuple(
            a + b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "DNumber":
        return DNumber(self.field, tuple(-a for a in self.components))

    def scalar_mul(self, scalars) -> "DNumber":
        """Left multiplication by an element of F_R (one scalar per place)."""
        if not isinstance(scalars, (list, tuple)):
            scalars = (scalars,)
        return DNumber(self.field, tuple(
            s * c if isinstance(c, Quaternion) else complex(s) * c
            for s, c in zip(scalars, self.components)))

    def inverse(self) -> "DNumber":
        return DNumber(self.field, tuple(
            c.inverse() if isinstance(c, Quaternion) else 1.0 / c
            for c in self.components))

    def is_zero(self) -> bool:
        return all(c == 0 or (isinstance(c, Quaternion) and c.is_zero())
                   for c in self.components)


def dnorm(z: DNumber) -> float:
    """The multiplicative norm on D_F: product of |z_v| over real places and
    |z_v|^2 over complex places.  Agrees with |N_{F/Q}| on F_R."""
    out = 1.0
    for c in z.components:
        if isinstance(c, Quaternion):
            out *= c.abs2()
        else:
            out *= abs(c)
    return out


def psi_exponent(z: DNumber) -> float:
    """Exponent e of the additive character: psi(z) = exp(2 pi i e), where
    e = Tr_{F/Q}(x) and z = x + y*j_F."""
    out = 0.0
    for c in z.components:
        if isinstance(c, Quaternion):
            out += 2.0 * c.x.real
        else:
            out += c.real
    return out


# ---------------------------------------------------------------------------
# transfer maps K_R -> D_F for quadratic K


def _check_signature(K: FieldDescriptor, F: FieldDescriptor):
    if not F.is_rational:
        raise UnsupportedFieldError(
            "transfer maps are implemented over the base field Q")
    if K.kind != "quadratic":
        raise UnsupportedFieldError("K must be quadratic")


def rho(K: FieldDescriptor, z_components: Sequence, F: FieldDescriptor = None) -> DNumber:
    """The measure-preserving F_R-linear map K_R -> D_F.

    Real K: z = (z_w, z_w') maps to z_w + z_w'*i in C.
    Imaginary K: z = (z_w,) maps to (1+i)*z_w.
    """
    F = F or make_field("Q")
    _check_signature(K, F)
    if K.d > 0:
        zw, zwp = z_components
        return DNumber.from_xy(F, float(zw), float(zwp))
    (zw,) = tuple(z_components) if isinstance(z_components, (list, tuple)) else (z_components,)
    t = (1 + 1j) * complex(zw)
    return DNumber.from_xy(F, t.real, t.imag)


def rho_star(K: FieldDescriptor, z_components: Sequence, F: FieldDescriptor = None) -> DNumber:
    """The companion map with the conjugate convention: real K sends z to
    z_w - z_w'*i, imaginary K to (1-i)*z_w.  The dual lattice of
    rho(u*A) is rho_star(u^{-1} * dual(A))."""
    F = F or make_field("Q")
    _check_signature(K, F)
    if K.d > 0:
        zw, zwp = z_components
        return DNumber.from_xy(F, float(zw), -float(zwp))
    (zw,) = tuple(z_components) if isinstance(z_components, (list, tuple)) else (z_components,)
    t = (1 - 1j) * complex(zw)
    return DNumber.from_xy(F, t.real, t.imag)
