"""Order statistics of the benchmark report."""

from __future__ import annotations

import math
from typing import Sequence

TAIL_BEYOND = 10


def rank(p: int, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100))


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """The highest integer percentile whose nearest-rank sample among n has
    at least `beyond` samples above it."""
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    # p n / 100 <= n - beyond, so rank(p, n) <= n - beyond
    return 100 * (n - beyond) // n


def harrell_davis(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta(q(n+1), (1-q)(n+1))
    weighted mean of the order statistics.  A deck mixes checks of very
    different cost, so neighbouring order statistics can differ by half;
    the weighting keeps one check crossing such a gap from moving the
    estimate by the whole gap."""
    n = len(values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    if a < 1 or b < 1:
        raise ValueError(f"quantile {q} needs more than {n} samples")
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)

    def mass(lo: float, hi: float, m: int = 64) -> float:
        h = (hi - lo) / m               # composite Simpson, m even
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, m))
        return (pdf(lo) + pdf(hi) + inner) * h / 3

    weights = [mass(i / n, (i + 1) / n) for i in range(n)]
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, sorted(values))) / total
