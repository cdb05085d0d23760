"""Koopman-operator common Lyapunov certificates for switched systems.

The package certifies global uniform asymptotic stability of a switched
family of analytic vector fields on a polydisk.  It builds truncated
Koopman generator matrices over a monomial basis, simultaneously
triangularizes the Jacobians when their Lie algebra is solvable, runs a
weight recursion that yields a diagonal common Lyapunov function, and
audits the resulting certificate by switched simulation.
"""

# The rest of the API is imported from the submodules.  These imports
# also load analysis, certificate, config and switchsim, through which
# benchmarks/tracer.py resolves the names it wraps.
from .analysis import analyze_family
from .config import example1_config, example2_config
from .multiindex import build_basis
from .switchsim import audit_certificate, random_signal
from .vectorfield import PolyVectorField, SwitchedFamily

__version__ = "0.1.0"

__all__ = [
    "PolyVectorField",
    "SwitchedFamily",
    "analyze_family",
    "audit_certificate",
    "build_basis",
    "example1_config",
    "example2_config",
    "random_signal",
]
