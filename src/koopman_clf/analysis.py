"""End-to-end certificate construction and the serializable report.

The pipeline: Jacobian Lie-algebra closure and solvability, common flag,
change to flag coordinates, truncated generator matrices, scheme
condition, weight recursion, series convergence, boundary evidence.
"""

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .certificate import (
    WeightScheme,
    build_operator,
    certified_radius_dd,
    check_poly_condition,
    convergence_check,
    dominance_xi_min,
    epsilon_sequence,
)
from .liealg import (
    NotSimultaneouslyTriangularizable,
    close_under_bracket,
    is_solvable,
    simultaneous_triangularize,
)
from .multiindex import build_basis
from .vectorfield import (
    PolyVectorField,
    SwitchedFamily,
    add_terms,
    boundary_invariance_check,
    poly_mul,
)

STAGE_EXIT = {"solvability": 2, "stability": 3, "scheme": 3, "convergence": 4}

_KIND_ALIASES = {
    "poly": "polynomial",
    "polynomial": "polynomial",
    "dd": "diagonal_dominance",
    "diagonal_dominance": "diagonal_dominance",
}


def substitute_linear(field_, P, P_inv):
    """Coefficients of the transformed field w -> P^{-1} F(P w).

    Exact coefficient arithmetic up to floating point products; any
    tail_l1 data is dropped (a general linear substitution does not
    transport l1 tail norms).
    """
    n = field_.dimension
    P = np.asarray(P, dtype=complex)
    P_inv = np.asarray(P_inv, dtype=complex)
    zero = (0,) * n
    lin = []
    for s in range(n):
        form = {}
        for t in range(n):
            if P[s, t] != 0:
                key = tuple(1 if c == t else 0 for c in range(n))
                form[key] = P[s, t]
        lin.append(form)
    pow_cache = {}

    def lin_pow(s, p):
        if p == 0:
            return {zero: 1.0 + 0j}
        got = pow_cache.get((s, p))
        if got is None:
            got = poly_mul(lin_pow(s, p - 1), lin[s])
            pow_cache[(s, p)] = got
        return got

    composed = []
    for j in range(n):
        acc = {}
        for beta, a in field_.components[j].items():
            term = {zero: a}
            for s in range(n):
                if beta[s]:
                    term = poly_mul(term, lin_pow(s, beta[s]))
            add_terms(acc, term.items())
        composed.append(acc)
    comps = []
    for l in range(n):
        acc = {}
        for j in range(n):
            c = P_inv[l, j]
            if c == 0:
                continue
            add_terms(acc, ((key, c * v) for key, v in composed[j].items()))
        comps.append(acc)
    return PolyVectorField(comps, truncated=field_.truncated)


def _clip_subdiagonal_linear(field_, tol):
    """Zero out sub-diagonal linear dust left by a numerical flag change.

    Returns (field, clipped_max).  Raises when a sub-diagonal linear
    coefficient exceeds ``tol``: the flag construction was inconsistent.
    """
    n = field_.dimension
    clipped = 0.0
    comps = []
    for l in range(n):
        table = dict(field_.components[l])
        for r in range(l):
            key = tuple(1 if c == r else 0 for c in range(n))
            a = table.get(key)
            if a is None:
                continue
            if abs(a) > tol:
                raise ValueError(
                    f"sub-diagonal linear coefficient {a} of component {l} "
                    "exceeds the flag-consistency tolerance"
                )
            clipped = max(clipped, abs(a))
            del table[key]
        comps.append(table)
    if clipped == 0.0:
        return field_, 0.0
    return (
        PolyVectorField(comps, tail_l1=field_.tail_l1, truncated=field_.truncated),
        clipped,
    )


@dataclass
class CertificateReport:
    """Everything the pipeline established, JSON-serializable."""

    dimension: int
    truncation_degree: int
    basis_size: int
    num_subsystems: int
    scheme_kind: str
    eta_requested: float = 0.5
    certified: bool = False
    failure: dict = None
    xi: float = None
    kappa: float = None
    solvable: bool = None
    derived_series_dims: list = None
    closure_dim: int = None
    P: np.ndarray = None
    P_inv: np.ndarray = None
    T_list: tuple = None
    eigenvalues: tuple = None
    residual: float = None
    cond_P: float = None
    term_counts: list = None
    poly_condition: dict = None
    dd_condition: dict = None
    q_sup: float = None
    q_by_degree: dict = None
    epsilon: np.ndarray = None
    eta_effective: float = None
    rho_certified: float = None
    convergence: dict = None
    invariance: list = dc_field(default_factory=list)
    warnings: list = dc_field(default_factory=list)

    @property
    def exit_code(self):
        if self.certified:
            return 0
        return STAGE_EXIT.get(self.failure["stage"], 1) if self.failure else 1

    def to_json_dict(self):
        tri = None
        if self.P is not None:
            tri = {
                "P": _cmat(self.P),
                "P_inv": _cmat(self.P_inv),
                "T": [_cmat(T) for T in self.T_list],
                "eigenvalues": [_cvec(e) for e in self.eigenvalues],
                "residual": float(self.residual),
                "cond_P": float(self.cond_P),
            }
        return {
            "certified": bool(self.certified),
            "failure": self.failure,
            "dimension": int(self.dimension),
            "truncation_degree": int(self.truncation_degree),
            "basis_size": int(self.basis_size),
            "num_subsystems": int(self.num_subsystems),
            "scheme": {
                "kind": self.scheme_kind,
                "xi": _opt_float(self.xi),
                "kappa": _opt_float(self.kappa),
            },
            "solvability": {
                "solvable": self.solvable,
                "derived_series_dims": self.derived_series_dims,
                "closure_dim": self.closure_dim,
            },
            "triangularization": tri,
            "term_counts": self.term_counts,
            "poly_condition": _cond_dict(self.poly_condition),
            "dd_condition": _cond_dict(self.dd_condition),
            "q_sup": _opt_float(self.q_sup),
            "q_by_degree": _degree_list(self.q_by_degree),
            "epsilon": None
            if self.epsilon is None
            else [float(e) for e in self.epsilon],
            "eta": {
                "requested": float(self.eta_requested),
                "effective": _opt_float(self.eta_effective),
            },
            "rho_certified": _opt_float(self.rho_certified),
            "convergence": self.convergence,
            "invariance": self.invariance,
            "warnings": list(self.warnings),
        }

    def to_json(self):
        """Strict JSON of ``to_json_dict``; a non-finite float, which only
        a failed report holds, is written as null."""
        doc = _finite_or_none(self.to_json_dict())
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite_or_none(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_none(v) for v in obj]
    return obj


def _opt_float(x):
    return None if x is None else float(x)


def _c(z):
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def _cvec(v):
    return [_c(z) for z in np.asarray(v).ravel()]


def _cmat(M):
    return [[_c(z) for z in row] for row in np.asarray(M)]


def _degree_list(by_degree):
    if by_degree is None:
        return None
    return [
        {"degree": int(d), "value": float(v)} for d, v in sorted(by_degree.items())
    ]


def _cond_dict(cond):
    if cond is None:
        return None
    out = {}
    for key, val in cond.items():
        if key == "by_degree":
            out[key] = _degree_list(val)
        elif key == "argmax":
            out[key] = (
                None
                if val is None
                else {k: int(v) for k, v in val.items()}
            )
        elif isinstance(val, bool):
            out[key] = val
        elif isinstance(val, (int, np.integer)):
            out[key] = int(val)
        elif isinstance(val, (float, np.floating)):
            out[key] = float(val)
        else:
            out[key] = val
    return out


def load_report(data):
    """Rebuild the fields of a serialized report needed downstream.

    Accepts the dict form of ``to_json_dict``; returns a CertificateReport
    with numeric arrays restored (epsilon, P, P_inv).
    """
    rep = CertificateReport(
        dimension=data["dimension"],
        truncation_degree=data["truncation_degree"],
        basis_size=data["basis_size"],
        num_subsystems=data["num_subsystems"],
        scheme_kind=data["scheme"]["kind"],
    )
    rep.certified = data["certified"]
    rep.failure = data["failure"]
    rep.xi = data["scheme"]["xi"]
    rep.kappa = data["scheme"]["kappa"]
    rep.rho_certified = data["rho_certified"]
    rep.convergence = data["convergence"]
    rep.warnings = list(data.get("warnings", []))
    if data.get("epsilon") is not None:
        rep.epsilon = np.array(data["epsilon"], dtype=float)
    tri = data.get("triangularization")
    if tri is not None:
        rep.P = _mat_from(tri["P"])
        rep.P_inv = _mat_from(tri["P_inv"])
        rep.residual = tri["residual"]
        rep.cond_P = tri["cond_P"]
    return rep


def _mat_from(rows):
    return np.array(
        [[complex(c["re"], c["im"]) for c in row] for row in rows], dtype=complex
    )


def analyze_family(
    family,
    truncation_degree,
    scheme_kind="polynomial",
    xi=None,
    kappa=None,
    eta=0.5,
    rho_request=None,
    invariance_samples=8,
    tol=1e-10,
):
    """Run the full certificate pipeline on a switched family.

    Returns a CertificateReport; certification failures are recorded in
    ``report.failure`` (stage: solvability, stability, scheme, or
    convergence) rather than raised, so the report always documents how
    far the analysis got.
    """
    if isinstance(family, (list, tuple)):
        family = SwitchedFamily(family)
    if truncation_degree < 2:
        raise ValueError("truncation_degree must be at least 2")
    kind = _KIND_ALIASES.get(scheme_kind)
    if kind is None:
        raise ValueError(f"unknown scheme kind {scheme_kind!r}")
    if rho_request is not None and not 0 < rho_request <= 1:
        raise ValueError("rho_request must lie in (0, 1]")
    n = family.dimension
    basis = build_basis(n, truncation_degree)
    report = CertificateReport(
        dimension=n,
        truncation_degree=truncation_degree,
        basis_size=basis.size,
        num_subsystems=len(family),
        scheme_kind=kind,
        eta_requested=eta,
    )

    jac = family.jacobians_at_origin()
    algebra = close_under_bracket(jac, tol)
    solvable, dims = is_solvable(algebra, tol)
    report.solvable = bool(solvable)
    report.derived_series_dims = [int(d) for d in dims]
    report.closure_dim = int(algebra.dim)
    if not solvable:
        report.failure = {
            "stage": "solvability",
            "message": (
                "the Lie algebra generated by the Jacobians is not solvable: "
                f"derived series dimensions {dims} do not reach zero"
            ),
        }
        return report
    try:
        tri = simultaneous_triangularize(jac, tol)
    except NotSimultaneouslyTriangularizable as exc:
        report.failure = {
            "stage": "solvability",
            "message": (
                "solvability holds numerically but no common flag was "
                f"found: {exc}"
            ),
        }
        return report
    report.P = tri.P
    report.P_inv = tri.P_inv
    report.T_list = tri.T_list
    report.eigenvalues = tri.eigenvalues
    report.residual = tri.residual
    report.cond_P = tri.cond_P
    if any(np.any(lam.real >= 0) for lam in tri.eigenvalues):
        report.failure = {
            "stage": "stability",
            "message": (
                "a subsystem Jacobian has an eigenvalue with non-negative "
                "real part; every subsystem must be exponentially stable "
                "at the origin"
            ),
        }
        return report

    identity = bool(np.array_equal(tri.P, np.eye(n, dtype=complex)))
    if identity:
        hats = list(family.fields)
    else:
        if any(f.tail_l1 is not None for f in family.fields):
            report.warnings.append(
                "tail_l1 norms dropped: the flag change of coordinates is "
                "not the identity, absolute sums beyond the stored "
                "coefficients are no longer exact"
            )
        hats = [substitute_linear(f, tri.P, tri.P_inv) for f in family.fields]
    scale = max(1.0, max(float(np.max(np.abs(J))) for J in jac))
    cleaned = []
    clip_max = 0.0
    for h in hats:
        h2, clipped = _clip_subdiagonal_linear(h, 1e-9 * scale)
        clip_max = max(clip_max, clipped)
        cleaned.append(h2)
    if clip_max > 0:
        report.warnings.append(
            f"sub-diagonal linear dust up to {clip_max:.3e} removed after "
            "the change to flag coordinates"
        )
    hats = cleaned

    ops = [build_operator(h, basis) for h in hats]
    report.term_counts = [int(op.coupling_count) for op in ops]

    if kind == "polynomial":
        xi_val = 0.99 if xi is None else float(xi)
        scheme = WeightScheme("polynomial", xi_val)
        report.xi = xi_val
        cond = check_poly_condition(ops, basis)
        report.poly_condition = cond
        if cond["pass"] and cond["extrapolated"] >= 1.0:
            report.warnings.append(
                "per-degree ratio maxima extrapolate to a limit >= 1; the "
                "certificate rests on the truncation-exact scan"
            )
        if not cond["pass"]:
            report.failure = {
                "stage": "scheme",
                "message": (
                    "uniform-split condition failed: the xi-free coupling "
                    f"ratio reaches {cond['q_sup']:.6g} >= 1 at degree "
                    f"{basis.degree(cond['argmax']['j'])}"
                ),
            }
            return report
        rho = 1.0
    else:
        jac_hat = [h.jacobian_at_origin() for h in hats]
        xi_min = dominance_xi_min(jac_hat)
        if xi is None:
            xi_val = max(1.01 * xi_min, 1e-6)
        else:
            xi_val = float(xi)
        if xi_val >= 1.0:
            report.xi = xi_val
            report.failure = {
                "stage": "scheme",
                "message": (
                    "no admissible xi: the dominance inequalities require "
                    f"xi > {xi_min:.6g}"
                ),
            }
            return report
        kappa_val = 0.98 * (1.0 - xi_val) if kappa is None else float(kappa)
        scheme = WeightScheme("diagonal_dominance", xi_val, kappa_val)
        report.xi = xi_val
        report.kappa = kappa_val
        rho_star, detail = certified_radius_dd(ops, basis, jac_hat, xi_val, kappa_val)
        report.dd_condition = detail
        if rho_star <= 0.0:
            if not detail["dominance_ok"]:
                msg = (
                    "diagonal-dominance inequalities fail at "
                    f"xi={xi_val:.6g} (need xi > {detail['xi_min']:.6g})"
                )
            elif detail["same_degree_sup"] >= 1.0:
                msg = (
                    "same-degree coupling ratio reaches "
                    f"{detail['same_degree_sup']:.6g} >= 1"
                )
            else:
                msg = (
                    "coupling ratios are not finite: same-degree sup "
                    f"{detail['same_degree_sup']:.6g}, cross-degree sup "
                    f"{detail['cross_sup']:.6g}, extrapolated "
                    f"{detail['extrapolated']:.6g}"
                )
            report.failure = {"stage": "scheme", "message": msg}
            return report
        rho = rho_star
    if rho_request is not None:
        rho = min(rho, float(rho_request))

    eps, eta_eff, q_sup, q_by_degree = epsilon_sequence(
        ops, basis, scheme, eta=eta, rho=rho
    )
    report.epsilon = eps
    report.eta_effective = float(eta_eff)
    report.q_sup = float(q_sup)
    report.q_by_degree = q_by_degree
    if eta_eff < eta:
        report.warnings.append(
            f"headroom eta reduced from {eta:.6g} to {eta_eff:.6g} to keep "
            "the certified series summable"
        )

    conv = convergence_check(eps, basis, rho)
    report.convergence = {
        "partial_sum": float(conv.partial_sum),
        "tail_bound": float(conv.tail_bound),
        "ratio": float(conv.ratio),
        "convergent": bool(conv.convergent),
    }
    if not conv.convergent:
        report.failure = {
            "stage": "convergence",
            "message": (
                f"weight series diverges at rho={rho:.6g}: per-degree decay "
                f"ratio {conv.ratio:.6g} times rho^2 is not below one"
            ),
        }
        return report
    totals = (conv.partial_sum, conv.tail_bound, conv.ratio)
    finite = np.all(np.isfinite(eps)) and np.all(np.isfinite(totals))
    if not (finite and np.all(eps > 0)):
        report.failure = {
            "stage": "convergence",
            "message": (
                "weights or convergence numbers are not finite and positive: "
                f"smallest weight {np.min(eps):.6g}, partial sum "
                f"{conv.partial_sum:.6g}, tail bound {conv.tail_bound:.6g}, "
                f"ratio {conv.ratio:.6g}"
            ),
        }
        return report

    report.rho_certified = float(rho)
    for i, h in enumerate(hats):
        br = boundary_invariance_check(h, rho, samples=invariance_samples)
        report.invariance.append(
            {
                "subsystem": i,
                "rho": float(rho),
                "holds": bool(br.holds),
                "worst_value": float(br.worst_value),
                "worst_point": _cvec(br.worst_point),
                "samples": int(br.samples),
                "margin": float(br.margin),
            }
        )
        if not br.holds:
            report.warnings.append(
                f"polydisk of radius {rho:.6g} shows an outward field "
                f"sample for subsystem {i}; forward invariance evidence "
                "is negative"
            )
    report.certified = True
    return report


def export_epsilon_csv(report, fh):
    """Weights indexed by basis position and exponent."""
    basis = build_basis(report.dimension, report.truncation_degree)
    fh.write("index,exponents,epsilon\n")
    for k in range(1, basis.size + 1):
        alpha = " ".join(str(a) for a in basis.alpha(k))
        fh.write(f"{k},{alpha},{float(report.epsilon[k - 1])!r}\n")


def export_ratios_csv(report, fh):
    """Per-degree maxima of the scheme-weighted coupling ratio."""
    fh.write("degree,max_ratio\n")
    for d, v in sorted((report.q_by_degree or {}).items()):
        fh.write(f"{d},{float(v)!r}\n")
