"""Working-precision configuration.

All analytic code takes a PrecisionConfig; exact (rational) data never
depends on it.  Conversion from exact field elements to floats happens at
embedding time only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PrecisionConfig:
    # absolute tolerance targeted by special-function evaluations
    target_abs_tol: float = 1e-12
    # cap on the refinements of an adaptive loop: the halvings of every
    # nested trapezoid sum (Bessel integral, torus) and the cutoff
    # doublings of the direct Eisenstein sum
    quad_max_doublings: int = 14
    # cap on lattice points visited by a single enumeration
    enum_point_cap: int = 400_000_000
    # extra decay margin (in nats) for Gaussian / Bessel truncations
    tail_margin: float = 8.0

    def __post_init__(self):
        if not (1e-14 <= self.target_abs_tol <= 1e-4):
            raise ValueError(
                f"target_abs_tol must lie in [1e-14, 1e-4], got {self.target_abs_tol}"
            )


DEFAULT = PrecisionConfig()

ENV_VAR = "HECKE_EIS_PRECISION"


def config_from_env(base: PrecisionConfig = DEFAULT) -> PrecisionConfig:
    """Return `base` with target_abs_tol overridden by $HECKE_EIS_PRECISION."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return base
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be a float, got {raw!r}") from exc
    return replace(base, target_abs_tol=tol)
