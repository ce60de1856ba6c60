"""The elements z = x + y j_F of the product algebra D_F (one complex plane
per real place, one Hamilton quaternion algebra per complex place) that an
O_F-lattice a z + b is built from.

The library only reads the x and y parts of z, so a quaternion is the
record of its two complex coordinates in the C + Cj split.  Quaternion
products, where a check needs them, are products of 2 x 2 complex matrices
(see verify's h-gl2-matrix check).
"""

from __future__ import annotations

from dataclasses import dataclass

from .basefield import FieldDescriptor
from .errors import UnsupportedFieldError


@dataclass(frozen=True)
class Quaternion:
    """x + y*j with complex x, y."""

    x: complex
    y: complex


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
