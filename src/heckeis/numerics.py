"""Small numerical utilities: extrapolation and quadrature nodes."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def neville_at_zero(hs: Sequence[float], vals: Sequence[complex]) -> complex:
    """Polynomial extrapolation of samples (h_i, f(h_i)) to h = 0."""
    hs = list(map(float, hs))
    table = list(map(complex, vals))
    n = len(table)
    for level in range(1, n):
        for i in range(n - level):
            h0, h1 = hs[i], hs[i + level]
            table[i] = (h0 * table[i + 1] - h1 * table[i]) / (h0 - h1)
    return table[0]


def gauss_legendre_nodes(n: int, a: float, b: float):
    """Nodes and weights for the interval [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
