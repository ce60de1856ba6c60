"""Reference kernels that gauge the machine's speed during a pass.

On a shared host the speed of a core drifts by half or more between runs
minutes apart (other tenants on the same cores, caches and memory).  The
worker times its workload's kernel between checks.  A kernel does not call
heckeis, so the ratio of a check's time to the kernel's time cancels the
machine's speed and keeps the library's.  Code slows by different amounts
under the same contention, so each workload has the kernel whose slowdown
tracked its own best (perfbench/README.md, *Calibration*):

- direct-sums: enumerate a 4-dimensional box of lattice points, take their
  norms and sum complex powers of them over arrays of megabytes, as
  `norm_chunks` and `e_direct` do;
- continuation and torus: the continued fraction of the incomplete gamma
  function in Python complex arithmetic, as `upper_incomplete_gamma` does.
  The torus workload's Bessel batches are thousands of calls of small
  numpy operations, which slow like interpreted code.
"""

from __future__ import annotations

import math

import numpy as np

# nominal CPU time of a kernel: scaled times read as times on a machine
# where the workload's kernel takes exactly this long (on a shared 2-core
# x86-64 VM, Python 3.11, numpy 2.4, both kernels took 30-50 ms)
NOMINAL_S = 0.025

_BOX = np.arange(-12, 13, dtype=float)


def enumeration() -> complex:
    a, b, c, d = np.meshgrid(_BOX, _BOX, _BOX, _BOX, indexing="ij")
    norms = ((a + 0.3 * b) ** 2 + (0.9 * b) ** 2
             + (c + 0.2 * d + 0.1 * a) ** 2 + (1.1 * d) ** 2).ravel()
    norms = norms[norms > 0.5]
    return complex(np.sum(np.exp(-2.0 * (2.5 + 0.5j) * np.log(norms))))


def _continued_fraction(s: complex, x: float, steps: int = 40) -> complex:
    """Lentz's method for the continued fraction of Gamma(s, x)."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, steps):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if d != 0 else tiny)
        c = b + an / c
        if c == 0:
            c = tiny
        h *= d * c
    return math.exp(-x) * h


def continued_fractions() -> complex:
    return sum(_continued_fraction(complex(0.5 + 1e-4 * k, 0.9), 2.0 + 0.005 * k)
               for k in range(1800))


KERNELS = {"direct-sums": enumeration, "continuation": continued_fractions,
           "torus": continued_fractions}
