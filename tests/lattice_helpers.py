"""Lattices and a lattice comparison that several test modules share."""

from fractions import Fraction

import numpy as np

from heckeis.basefield import FracIdeal, make_field
from heckeis.dalgebra import DNumber
from heckeis.lattice import OFLattice

Q = make_field("Q")


def lat_q(x, y, a=1, b=1):
    """a z + b over Q with z = x + y i and a, b rational generators."""
    return OFLattice(Q, FracIdeal(Q, gen=Fraction(a)),
                     DNumber.from_xy(Q, x, y), FracIdeal(Q, gen=Fraction(b)))


def lat_quat(F, x, y):
    """O z + O over an imaginary quadratic F, z = x + y j."""
    O = FracIdeal.unit_ideal(F)
    return OFLattice(F, O, DNumber.from_xy(F, x, y), O)


def same_span(M, N):
    """Whether the columns of M and N span one Z-lattice: N = M C with C
    integral and det C = +-1."""
    C = np.linalg.solve(M, N)
    R = np.round(C)
    return bool(np.all(np.abs(C - R) < 1e-9)) \
        and round(abs(np.linalg.det(R))) == 1
