"""Koopman-operator common Lyapunov certificates for switched systems.

The package certifies global uniform asymptotic stability of a switched
family of analytic vector fields on a polydisk.  It builds truncated
Koopman generator matrices over a monomial basis, simultaneously
triangularizes the Jacobians when their Lie algebra is solvable, runs a
weight recursion that yields a diagonal common Lyapunov function, and
audits the resulting certificate by switched simulation.
"""

import importlib

# The rest of the API is imported from the submodules.  These imports
# also load analysis, certificate and config, through which
# benchmarks/tracer.py resolves the names it wraps.
from .analysis import analyze_family
from .config import example1_config, example2_config
from .multiindex import build_basis
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


# The audit layer, switchsim, loads on the first call of one of these two
# functions or the first access to ``koopman_clf.switchsim``, so that the
# analysis path never compiles or runs it.  The two stay plain functions
# of this module, which benchmarks/tracer.py wraps by name.
def audit_certificate(*args, **kwargs):
    """``switchsim.audit_certificate``, which see."""
    from .switchsim import audit_certificate

    return audit_certificate(*args, **kwargs)


def random_signal(*args, **kwargs):
    """``switchsim.random_signal``, which see."""
    from .switchsim import random_signal

    return random_signal(*args, **kwargs)


def __getattr__(name):
    if name == "switchsim":
        return importlib.import_module(f"{__name__}.switchsim")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
