"""Small numerical utilities: polynomial extrapolation to zero and the
nested trapezoid sum behind the torus quadrature and the verify suite's
literal-integral reference of K."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

# the cap on the refinements of an adaptive loop: the halvings of every
# nested trapezoid sum (torus, verify's K reference) and the cutoff
# doublings of the direct Eisenstein sum
MAX_REFINEMENTS = 14
# extra decay margin (in nats) of the Gaussian truncation
TAIL_MARGIN = 8.0


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


def nested_trapezoid(f: Callable[[np.ndarray], np.ndarray],
                     grid: Callable[[float], np.ndarray], h: float, tol: float,
                     what: str) -> np.ndarray:
    """h * sum of f(k h) over the integers k of grid(h), summed over the last
    axis of f's values (one entry per node).

    The step is halved until two levels differ by at most `tol` in every
    entry.  grid(h / 2) must contain 2k for every k of grid(h), so that each
    level evaluates f only at the new odd multiples of the halved step.  The
    first two levels are always needed, so the first call of f takes the
    nodes of grid(h) followed by the new ones of grid(h / 2), and both sums
    come from it.  Raises ConvergenceError once tol lies below a level's
    rounding floor eps * h * sum |f| in some entry, where halving further
    would only chase rounding, or after MAX_REFINEMENTS halvings; either
    error carries the last step as its cutoff, the last change, tol and the
    nodes evaluated.
    """
    def odd(h):
        k = grid(h)
        return k[k % 2 != 0] * h

    coarse = grid(h) * h
    vals = f(np.concatenate([coarse, odd(h / 2.0)]))
    nodes = vals.shape[-1]
    cur = h * vals[..., :coarse.size].sum(axis=-1)
    mag = h * np.abs(vals[..., :coarse.size]).sum(axis=-1)
    vals = vals[..., coarse.size:]
    delta = float("inf")
    for halving in range(MAX_REFINEMENTS):
        h /= 2.0
        if halving:
            vals = f(odd(h))
            nodes += vals.shape[-1]
        nxt = cur / 2.0 + h * vals.sum(axis=-1)
        mag = mag / 2.0 + h * np.abs(vals).sum(axis=-1)
        delta = float(np.max(np.abs(nxt - cur)))
        floor = np.finfo(float).eps * float(np.max(mag))
        if tol < floor:
            raise ConvergenceError(
                f"{what} lies below its rounding floor: eps*h*sum|f| = "
                f"{floor:.3g} > tol {tol:.3g} at step {h:.3g}, nodes {nodes}",
                cutoff=h, last_delta=delta, tol=tol, points=nodes)
        if delta <= tol:
            return nxt
        cur = nxt
    raise ConvergenceError(
        f"{what} did not converge: halvings {MAX_REFINEMENTS}, nodes {nodes}, "
        f"last change {delta:.3g} > tol {tol:.3g}",
        cutoff=h, last_delta=delta, tol=tol, points=nodes)
