"""End-to-end certificate construction and the serializable report.

The pipeline: Jacobian Lie-algebra closure and solvability, common flag,
change to flag coordinates, truncated generator matrices, scheme
condition, weight recursion, series convergence, boundary evidence.
"""

import math
from dataclasses import asdict, dataclass, field as dc_field
from json.encoder import encode_basestring_ascii

import numpy as np

from .certificate import (
    WeightScheme,
    build_operator,
    certified_radius_dd,
    check_poly_condition,
    convergence_check,
    coupling_scan,
    dominance_xi_min,
    epsilon_sequence,
)
from .config import _json_float, _json_typed
from .liealg import (
    NotSimultaneouslyTriangularizable,
    TriangularizationResult,
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
    triangularization: TriangularizationResult = None
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
        tri = self.triangularization
        if tri is not None:
            tri = {
                "P": _cmat(tri.P),
                "P_inv": _cmat(tri.P_inv),
                "T": [_cmat(T) for T in tri.T_list],
                "eigenvalues": [_cvec(e) for e in tri.eigenvalues],
                "residual": float(tri.residual),
                "cond_P": float(tri.cond_P),
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
        chunks = []
        _encode_json(self.to_json_dict(), "\n", chunks.append)
        chunks.append("\n")
        return "".join(chunks)


def _encode_json(obj, newline, emit):
    """Emit the text of ``json.dumps(obj, sort_keys=True, indent=2)`` in one
    pass, with every non-finite float written as null.  ``newline`` is a
    line break followed by the indent of ``obj``'s own line.  A list of
    floats is joined in one call unless it holds a non-finite value (only
    the reprs 'nan' and 'inf' contain an 'n')."""
    if isinstance(obj, str):
        emit(encode_basestring_ascii(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    elif isinstance(obj, float):
        emit(float.__repr__(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        emit("[" + inner)
        try:
            text = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:  # not all floats
            text = None
        if text is not None and "n" not in text:
            emit(text)
        else:
            for i, value in enumerate(obj):
                if i:
                    emit("," + inner)
                _encode_json(value, inner, emit)
        emit(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        emit("{" + inner)
        for i, (key, value) in enumerate(sorted(obj.items())):
            if i:
                emit("," + inner)
            emit(encode_basestring_ascii(key) + ": ")
            _encode_json(value, inner, emit)
        emit(newline + "}")
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable"
        )


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
    return {**cond, "by_degree": _degree_list(cond["by_degree"])}


def load_report(data):
    """Rebuild the fields of a serialized report that an audit reads.

    Accepts the dict form of ``to_json_dict``; returns a CertificateReport
    with its sizes, scheme kind, verdict, radius and numeric arrays
    (epsilon, P, P_inv).  A report without a triangularization gets the
    identity for P and P_inv.  Raises
    ValueError naming the field when one is missing, of the wrong JSON
    type or out of range; the weight count is checked against the
    dimension and degree before anything is sized by them.
    """
    _json_typed("report", data, dict, "an object")

    def get(key, types, what, null=False, ok=lambda v: True):
        if key not in data:
            raise ValueError(f"report field '{key}' is missing")
        value = data[key]
        if value is None and null:
            return None
        # a bool is neither an integer nor a number
        if (isinstance(value, bool) != (types is bool)
                or not isinstance(value, types) or not ok(value)):
            raise ValueError(f"report field '{key}' must be {what}, got {value!r}")
        return value

    n, N, size, subsystems = (
        get(key, int, f"an integer >= {low}", ok=lambda v, low=low: v >= low)
        for key, low in (("dimension", 1), ("truncation_degree", 2),
                         ("basis_size", 1), ("num_subsystems", 1))
    )
    if _basis_size_up_to(n, N, size) != size:
        raise ValueError(
            f"report field 'basis_size' is {size}, not C(N + n, n) - 1 for "
            f"dimension {n} and truncation_degree {N}"
        )
    eps = get("epsilon", list, "a list or null", null=True)
    if eps is not None and len(eps) != size:
        raise ValueError(
            f"report field 'epsilon' holds {len(eps)} weights, not basis_size {size}"
        )
    scheme = get("scheme", dict, "an object")
    rep = CertificateReport(
        dimension=n,
        truncation_degree=N,
        basis_size=size,
        num_subsystems=subsystems,
        scheme_kind=_json_typed(
            "report field 'scheme.kind'", scheme.get("kind"), str, "a string"
        ),
    )
    rep.certified = get("certified", bool, "true or false")
    rep.rho_certified = _report_float("rho_certified", get(
        "rho_certified", (int, float), "a number in (0, 1] or null", null=True,
        ok=lambda v: 0 < v <= 1,
    ))
    if eps is not None:
        # null is a non-finite weight, which only a failed report holds
        rep.epsilon = np.array([
            math.nan if e is None else _report_float(f"epsilon[{i}]", e)
            for i, e in enumerate(eps)
        ])
        if np.any(rep.epsilon < 0):
            i = int(np.argmax(rep.epsilon < 0))
            raise ValueError(f"report field 'epsilon[{i}]' is negative: {eps[i]!r}")
    tri = get("triangularization", dict, "an object or null", null=True)
    if tri is None:
        rep.P = rep.P_inv = np.eye(n, dtype=complex)
    else:
        rep.P, rep.P_inv = (
            _report_matrix(f"triangularization.{key}", tri.get(key), n)
            for key in ("P", "P_inv")
        )
    return rep


def _report_float(key, value):
    """A finite JSON number of a report as a float; None stays None."""
    if value is None:
        return None
    value = _json_float(f"report field '{key}'", value)
    if not math.isfinite(value):
        raise ValueError(f"report field '{key}' must be finite, got {value!r}")
    return value


def _report_matrix(key, rows, n):
    """An n x n list of {"re", "im"} objects of a report as a complex array."""
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(row, list) and len(row) == n for row in rows)):
        raise ValueError(f"report field '{key}' must be {n} lists of {n} entries")
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            where = f"{key}[{i}][{j}]"
            if not (isinstance(c, dict) and c.get("re") is not None
                    and c.get("im") is not None):
                raise ValueError(
                    f"report field '{where}' must be an object with numbers re and im"
                )
            out[i, j] = complex(_report_float(where + ".re", c["re"]),
                                _report_float(where + ".im", c["im"]))
    return out


def _basis_size_up_to(n, N, cap):
    """C(N + n, n) - 1, the basis size of dimension n up to degree N, or
    cap + 1 as soon as it exceeds ``cap``."""
    m, count = min(n, N), 1
    for i in range(1, m + 1):
        count = count * (N + n - m + i) // i  # C(N + n - m + i, i)
        if count - 1 > cap:
            return cap + 1
    return count - 1


class _Failure(Exception):
    """A hypothesis of the certificate that does not hold: raised with the
    stage and the message that ``analyze_family`` records in the report."""


def analyze_family(
    family,
    truncation_degree,
    scheme_kind="polynomial",
    xi=None,
    kappa=None,
    eta=0.5,
    rho_request=None,
):
    """Run the full certificate pipeline on a switched family.

    Returns a CertificateReport; certification failures are recorded in
    ``report.failure`` (stage: solvability, stability, scheme, or
    convergence) rather than raised, so the report always documents how
    far the analysis got.  A ``LinAlgError`` from the Lie closure, the
    solvability test or the triangularization is a solvability failure.
    A derived dominance xi >= 1 is a scheme failure; a caller's xi or
    kappa that the scheme refuses raises ValueError before any analysis.
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
    # only a derived dominance xi waits for the flag coordinates; any other
    # scheme checks the caller's xi and kappa before the analysis starts
    scheme = None
    if kind == "polynomial" or xi is not None:
        scheme = _weight_scheme(kind, xi, kappa)
    basis = build_basis(family.dimension, truncation_degree)
    report = CertificateReport(
        dimension=family.dimension,
        truncation_degree=truncation_degree,
        basis_size=basis.size,
        num_subsystems=len(family),
        scheme_kind=kind,
        eta_requested=eta,
    )
    try:
        _certify(report, family, basis, scheme, kappa, rho_request)
    except _Failure as exc:
        stage, message = exc.args
        report.failure = {"stage": stage, "message": message}
    return report


def _weight_scheme(kind, xi, kappa):
    """``WeightScheme(kind, xi, kappa)`` with the defaults: polynomial xi
    0.99, dominance kappa 0.98 (1 - xi)."""
    if kind == "polynomial":
        xi = 0.99 if xi is None else xi
    elif kappa is None:
        kappa = 0.98 * (1.0 - xi)
    return WeightScheme(kind, float(xi), None if kappa is None else float(kappa))


def _certify(report, family, basis, scheme, kappa, rho_request):
    """The pipeline behind ``analyze_family``: fills ``report`` stage by
    stage and raises _Failure at the first hypothesis that fails.  With
    ``scheme`` None, the dominance xi is derived from the flag
    coordinates' Jacobians and the scheme built with ``kappa``."""
    n = family.dimension
    kind = report.scheme_kind
    eta = report.eta_requested
    jac = family.jacobians_at_origin()
    try:
        algebra = close_under_bracket(jac)
        solvable, dims = is_solvable(algebra)
        report.solvable = bool(solvable)
        report.derived_series_dims = [int(d) for d in dims]
        report.closure_dim = int(algebra.dim)
        if not solvable:
            raise _Failure(
                "solvability",
                "the Lie algebra generated by the Jacobians is not solvable: "
                f"derived series dimensions {dims} do not reach zero",
            )
        tri = simultaneous_triangularize(jac)
    except NotSimultaneouslyTriangularizable as exc:
        raise _Failure(
            "solvability",
            f"solvability holds numerically but no common flag was found: {exc}",
        ) from None
    except np.linalg.LinAlgError as exc:
        raise _Failure(
            "solvability",
            f"linear algebra failed in the solvability analysis: {exc}",
        ) from None
    report.P, report.P_inv, report.triangularization = tri.P, tri.P_inv, tri
    if any(np.any(lam.real >= 0) for lam in tri.eigenvalues):
        raise _Failure(
            "stability",
            "a subsystem Jacobian has an eigenvalue with non-negative real "
            "part; every subsystem must be exponentially stable at the origin",
        )

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

    if kind == "diagonal_dominance":
        xi_min = dominance_xi_min([h.jacobian_at_origin() for h in hats])
    if scheme is None:
        xi = max(1.01 * xi_min, 1e-6)
        if xi >= 1.0:
            report.xi = xi
            raise _Failure(
                "scheme",
                "no admissible xi: the dominance inequalities require "
                f"xi > {xi_min:.6g}",
            )
        scheme = _weight_scheme(kind, xi, kappa)
    report.xi, report.kappa = scheme.xi, scheme.kappa
    scan = coupling_scan(ops, basis, scheme)
    if kind == "polynomial":
        cond = check_poly_condition(scan, basis)
        report.poly_condition = cond
        if not cond["pass"]:
            raise _Failure(
                "scheme",
                "uniform-split condition failed: the xi-free coupling ratio "
                f"reaches {cond['q_sup']:.6g} >= 1 at degree "
                f"{basis.degree(cond['argmax']['j'])}",
            )
        if cond["extrapolated"] >= 1.0:
            report.warnings.append(
                "per-degree ratio maxima extrapolate to a limit >= 1; the "
                "certificate rests on the truncation-exact scan"
            )
        rho = 1.0
    else:
        rho, detail = certified_radius_dd(scan, basis, xi_min)
        report.dd_condition = detail
        if rho <= 0.0:
            if not detail["dominance_ok"]:
                msg = (
                    "diagonal-dominance inequalities fail at "
                    f"xi={scheme.xi:.6g} (need xi > {detail['xi_min']:.6g})"
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
            raise _Failure("scheme", msg)
    if rho_request is not None:
        rho = min(rho, float(rho_request))

    eps, eta_eff, q_sup, q_by_degree = epsilon_sequence(
        scan, basis, eta=eta, rho=rho
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
    report.convergence = asdict(conv)
    if not conv.convergent:
        raise _Failure(
            "convergence",
            f"weight series diverges at rho={rho:.6g}: per-degree decay "
            f"ratio {conv.ratio:.6g} times rho^2 is not below one",
        )
    totals = (conv.partial_sum, conv.tail_bound, conv.ratio)
    finite = np.all(np.isfinite(eps)) and np.all(np.isfinite(totals))
    if not (finite and np.all(eps > 0)):
        raise _Failure(
            "convergence",
            "weights or convergence numbers are not finite and positive: "
            f"smallest weight {np.min(eps):.6g}, partial sum "
            f"{conv.partial_sum:.6g}, tail bound {conv.tail_bound:.6g}, "
            f"ratio {conv.ratio:.6g}",
        )

    report.rho_certified = float(rho)
    for i, h in enumerate(hats):
        br = boundary_invariance_check(h, rho)
        report.invariance.append(
            {
                "subsystem": i,
                "rho": float(rho),
                "holds": bool(br.holds),
                "worst_value": float(br.worst_value),
                "worst_point": _cvec(br.worst_point),
                "samples": int(br.samples),
                "margin": 0.0,
            }
        )
        if not br.holds:
            report.warnings.append(
                f"polydisk of radius {rho:.6g} shows an outward field "
                f"sample for subsystem {i}; forward invariance evidence "
                "is negative"
            )
    report.certified = True


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
