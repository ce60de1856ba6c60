"""The product algebra D_F (one complex plane per real place, one Hamilton
quaternion algebra per complex place): quaternion arithmetic and the
elements z = x + y j_F that an O_F-lattice a z + b is built from.

Quaternions are stored in the C + Cj split (two complex coordinates), since
x-part / y-part extraction is the dominant operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .basefield import FieldDescriptor
from .errors import UnsupportedFieldError


@dataclass(frozen=True)
class Quaternion:
    """x + y*j with complex x, y; j*c = conj(c)*j for complex c."""

    x: complex
    y: complex

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

    def __neg__(self) -> "DNumber":
        return DNumber(self.field, tuple(-a for a in self.components))
