"""Koopman-operator common Lyapunov certificates for switched systems.

The package certifies global uniform asymptotic stability of a switched
family of analytic vector fields on a polydisk.  It builds truncated
Koopman generator matrices over a monomial basis, simultaneously
triangularizes the Jacobians when their Lie algebra is solvable, runs a
weight recursion that yields a diagonal common Lyapunov function, and
audits the resulting certificate by switched simulation.
"""

from .analysis import CertificateReport, analyze_family, load_report
from .certificate import (
    CommonLyapunovFunction,
    WeightScheme,
    build_operator,
    certified_radius_dd,
    check_dd_condition,
    check_poly_condition,
    convergence_check,
    epsilon_sequence,
)
from .config import SimulationParams, SystemConfig, example1_config, example2_config
from .koopman import KoopmanMatrix, build_matrix
from .liealg import (
    NotSimultaneouslyTriangularizable,
    close_under_bracket,
    is_solvable,
    linear_clf,
    simultaneous_triangularize,
)
from .multiindex import MultiIndexBasis, build_basis, order_key
from .switchsim import (
    AuditSummary,
    SwitchingSignal,
    audit_certificate,
    integrate_switched,
    random_signal,
)
from .vectorfield import (
    PolyVectorField,
    SwitchedFamily,
    boundary_invariance_check,
    lie_bracket,
)

__version__ = "0.1.0"

__all__ = [
    "AuditSummary",
    "CertificateReport",
    "CommonLyapunovFunction",
    "KoopmanMatrix",
    "MultiIndexBasis",
    "NotSimultaneouslyTriangularizable",
    "PolyVectorField",
    "SimulationParams",
    "SwitchedFamily",
    "SwitchingSignal",
    "SystemConfig",
    "WeightScheme",
    "analyze_family",
    "audit_certificate",
    "boundary_invariance_check",
    "build_basis",
    "build_matrix",
    "build_operator",
    "certified_radius_dd",
    "check_dd_condition",
    "check_poly_condition",
    "close_under_bracket",
    "convergence_check",
    "epsilon_sequence",
    "example1_config",
    "example2_config",
    "integrate_switched",
    "is_solvable",
    "lie_bracket",
    "linear_clf",
    "load_report",
    "order_key",
    "random_signal",
    "simultaneous_triangularize",
]
