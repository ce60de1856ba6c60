"""Eisenstein series over Q and imaginary quadratic base fields, completed
zeta functions with dual-lattice functional equations, Kronecker-type limit
formulas, and the integral representation of quadratic-extension zeta
functions, with numerical certification utilities."""

from .basefield import (FieldDescriptor, FracIdeal, QuadElement, dual_ideal,
                        make_field, parse_field)
from .dalgebra import DNumber, Quaternion, dnorm, psi_exponent, rho, rho_star
from .eisenstein import EisensteinEvaluator
from .errors import (ConvergenceError, DegenerateLatticeError,
                     EnumerationCapError, HeckeisError, PoleError,
                     UnsupportedFieldError)
from .heckeint import (HeckeSetup, hecke_integral, hecke_laurent,
                       relative_klf_check, torus_measure_identity, xi_K_oracle)
from .lattice import OFLattice
from .reports import VerificationReport, reports_to_json
from .specialfun import bessel_k, gamma_F, upper_incomplete_gamma
from .verify import run_suite
from .zeta import (CompletedZeta, c_F, class_number, completed_zeta,
                   dirichlet_l, hurwitz_zeta, partial_zeta_series,
                   riemann_zeta, zeta_K, zeta_K_class)

__version__ = "0.1.0"
