"""Machine-readable verification reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict


@dataclass
class VerificationReport:
    """Record of one identity check: |lhs - rhs| against a tolerance."""

    command: str
    field_label: str
    parameters: Dict
    lhs: complex
    rhs: complex
    tolerance: float
    wall_time_ms: int = 0

    @property
    def abs_error(self) -> float:
        return abs(complex(self.lhs) - complex(self.rhs))

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "field": self.field_label,
            "parameters": _jsonable(self.parameters),
            "lhs": {"re": complex(self.lhs).real, "im": complex(self.lhs).imag},
            "rhs": {"re": complex(self.rhs).real, "im": complex(self.rhs).imag},
            "absError": self.abs_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "wallTimeMs": int(self.wall_time_ms),
        }

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.command} ({self.field_label}) "
                f"absError={self.abs_error:.3e} tol={self.tolerance:.1e}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def reports_to_json(reports) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)
