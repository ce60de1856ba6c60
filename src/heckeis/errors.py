"""Exception types shared across the package."""


class HeckeisError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedFieldError(HeckeisError, ValueError):
    """A field was requested in a role it does not support."""


class DegenerateLatticeError(HeckeisError, ValueError):
    """Lattice data with a non-invertible y-part (or ill-conditioned norm)."""


class PoleError(HeckeisError, ArithmeticError):
    """Evaluation was requested at (or too close to) a pole.

    Carries the pole location and, when known, the residue there so that
    callers can switch to the Laurent-coefficient API.
    """

    def __init__(self, message, location=None, residue=None):
        super().__init__(message)
        self.location = location
        self.residue = residue


class ConvergenceError(HeckeisError, ArithmeticError):
    """An adaptive scheme hit its cap before reaching the requested tolerance.

    Raise sites that know how far they got set the keyword attributes: the
    last cutoff reached, the change of the last refinement, the requested
    tolerance and the number of points visited (None where not set).
    """

    def __init__(self, message, *, cutoff=None, last_delta=None, tol=None,
                 points=None):
        super().__init__(message)
        self.cutoff = cutoff
        self.last_delta = last_delta
        self.tol = tol
        self.points = points


class EnumerationCapError(HeckeisError, ValueError):
    """A lattice enumeration would exceed the point cap."""
