"""End-to-end certificate construction and the serializable report.

The pipeline: Jacobian Lie-algebra closure and solvability, common flag,
change to flag coordinates, truncated generator matrices, scheme
condition, weight recursion, series convergence, and the face bounds
that prove the certified polydisk forward invariant.
"""

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .certificate import (
    TAIL_DEGREE_CAP,
    WeightScheme,
    _square_scaled_up,
    build_operator,
    certified_radius_dd,
    check_kappa,
    check_poly_condition,
    convergence_check,
    coupling_scan,
    dominance_xi_min,
    epsilon_sequence,
)
from .liealg import (
    NotSimultaneouslyTriangularizable,
    TriangularizationResult,
    close_under_bracket,
    is_solvable,
    simultaneous_triangularize,
)
from .multiindex import build_basis, checked_float, checked_int
from .rounding import upper
from .vectorfield import (
    PolyVectorField,
    SwitchedFamily,
    add_terms,
    boundary_invariance_check,
    poly_mul,
)

STAGE_EXIT = {
    "solvability": 2, "stability": 3, "scheme": 3, "convergence": 4, "region": 3,
}

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


class CertificateReport:
    """Everything the pipeline established, JSON-serializable.

    The five fields the constructor requires come first; every other
    field is a class attribute holding its default until a keyword of
    the constructor or a stage of the pipeline sets it.  Each report has
    its own ``warnings`` list.
    """

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
    region: dict = None
    warnings: list

    def __init__(self, dimension, truncation_degree, basis_size, num_subsystems,
                 scheme_kind, **optional):
        self.dimension = dimension
        self.truncation_degree = truncation_degree
        self.basis_size = basis_size
        self.num_subsystems = num_subsystems
        self.scheme_kind = scheme_kind
        self.warnings = []
        for key, value in optional.items():
            if key not in CertificateReport.__annotations__:
                raise TypeError(
                    f"CertificateReport got an unexpected keyword argument {key!r}"
                )
            setattr(self, key, value)

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
            else np.asarray(self.epsilon, dtype=float).tolist(),
            "eta": {
                "requested": float(self.eta_requested),
                "effective": _opt_float(self.eta_effective),
            },
            "rho_certified": _opt_float(self.rho_certified),
            "convergence": self.convergence,
            "region": self.region,
            "warnings": list(self.warnings),
        }

    def to_json(self):
        """``strict_json`` of ``to_json_dict``; a non-finite float, which
        only a failed report holds, is written as null."""
        return strict_json(self.to_json_dict())


def strict_json(obj):
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)`` and a line
    break, with every non-finite float written as null."""
    chunks = []
    _encode_json(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _encode_json(obj, newline, emit):
    """Emit the text of ``json.dumps(obj, sort_keys=True, indent=2)`` in one
    pass, with every non-finite float written as null.  ``newline`` is a
    line break followed by the indent of ``obj``'s own line.  A list of
    floats (``_float_list``) and a record of numbers (``_number_record``)
    are each written as one string."""
    if isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        items = sorted(obj.items())
        text = _number_record(items, "," + inner)
        if text is not None:
            emit("{" + inner + text + newline + "}")
            return
        emit("{" + inner)
        for i, (key, value) in enumerate(items):
            if i:
                emit("," + inner)
            emit(encode_basestring_ascii(key) + ": ")
            _encode_json(value, inner, emit)
        emit(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        text = _float_list(obj, "," + inner)
        if text is not None:
            emit("[" + inner + text + newline + "]")
            return
        emit("[" + inner)
        for i, value in enumerate(obj):
            if i:
                emit("," + inner)
            _encode_json(value, inner, emit)
        emit(newline + "]")
    elif isinstance(obj, str):
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
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable"
        )


def _float_list(values, sep):
    """The reprs of ``values`` joined by ``sep`` (``_float_reprs``) when
    every value is a finite ``float``; else None.  Only the reprs 'nan' and
    'inf' contain an 'n', and a non-finite value is written as null."""
    if set(map(type, values)) != {float}:
        return None
    text = sep.join(_float_reprs(values))
    return None if "n" in text else text


def _float_reprs(values):
    """The reprs of a list of floats, one ``float.__repr__`` call per
    distinct value.  A list that holds a zero gets one call per value,
    since 0.0 == -0.0 would share one repr."""
    distinct = dict.fromkeys(values)
    if 0.0 in distinct:
        return map(float.__repr__, values)
    return map(dict(zip(distinct, map(float.__repr__, distinct))).__getitem__, values)


_NUMBER_REPR = {int: int.__repr__, float: float.__repr__}


def _number_record(items, sep):
    """The ``"key": value`` lines of sorted dict items joined by ``sep``
    when every value is a finite ``float`` or an ``int`` (not a bool);
    else None."""
    lines = []
    for key, value in items:
        number_repr = _NUMBER_REPR.get(type(value))
        if number_repr is None:
            return None
        text = number_repr(value)
        if "n" in text:  # inf or nan, written as null
            return None
        lines.append(encode_basestring_ascii(key) + ": " + text)
    return sep.join(lines)


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
    ``report.failure`` (stage: solvability, stability, scheme,
    convergence, or region) rather than raised, so the report always
    documents how far the analysis got.  A polydisk whose face bounds do
    not prove it forward invariant is a region failure.  A ``LinAlgError``
    from the Lie closure, the solvability test or the triangularization is
    a solvability failure.
    A derived dominance xi >= 1 is a scheme failure, and so, under the
    polynomial scheme, is a field in flag coordinates that stores a term
    above the truncation degree or declares a ``tail_l1`` above its stored
    sum.  A caller's xi, kappa, eta or rho_request that is refused raises
    ValueError before any analysis; only the dominance scheme's
    ``xi + kappa < 1`` waits for a derived xi.
    """
    if isinstance(family, (list, tuple)):
        family = SwitchedFamily(family)
    truncation_degree = checked_int("truncation_degree", truncation_degree, 2)
    kind = _KIND_ALIASES.get(scheme_kind)
    if kind is None:
        raise ValueError(f"unknown scheme kind {scheme_kind!r}")
    for name, value in (("xi", xi), ("kappa", kappa), ("rho_request", rho_request)):
        if value is not None:
            checked_float(name, value)
    if rho_request is not None and not 0 < rho_request <= 1:
        raise ValueError("rho_request must lie in (0, 1]")
    eta = checked_float("eta", eta)
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta!r}")
    # a derived dominance xi, and with it the check of xi + kappa, waits
    # for the flag coordinates; every other check of xi and kappa runs here
    scheme = None
    if kind == "polynomial" or xi is not None:
        scheme = _weight_scheme(kind, xi, kappa)
    elif kappa is not None:
        check_kappa(kappa)
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

    identity = tri.P.tolist() == [[float(i == j) for j in range(n)] for i in range(n)]
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
    # hats keeps the dust, which the face bounds count
    cleaned, clipped = zip(*(_clip_subdiagonal_linear(h, 1e-9 * scale) for h in hats))
    clip_max = max(clipped)
    if clip_max > 0:
        report.warnings.append(
            f"sub-diagonal linear dust up to {clip_max:.3e} removed after "
            "the change to flag coordinates"
        )

    ops = [build_operator(h, basis) for h in cleaned]
    report.term_counts = [int(op.coupling_count) for op in ops]

    if kind == "diagonal_dominance":
        if not (identity and clip_max == 0):
            jac = [h.jacobian_at_origin() for h in cleaned]
        xi_min = dominance_xi_min(jac)
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
    if kind == "polynomial":
        _require_scanned(hats, basis.max_degree)
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
    report.convergence = conv._asdict()
    if not conv.convergent:
        if _square_scaled_up(conv.ratio, rho) < 1.0:  # as convergence_check
            reason = (f"the tail's term ratio is not below one at the "
                      f"{TAIL_DEGREE_CAP}-degree cap")
        else:
            reason = (f"per-degree decay ratio {conv.ratio:.6g} times rho^2 "
                      "is not below one")
        raise _Failure(
            "convergence", f"weight series diverges at rho={rho:.6g}: {reason}"
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

    report.region = _region(boundary_invariance_check(hats, rho))
    if not report.region["proved"]:
        raise _Failure("region", f"polydisk of radius {rho:.6g} is not proved "
                                 f"forward invariant: {report.region['reason']}")
    report.rho_certified = float(rho)
    report.certified = True


def _require_scanned(fields, degree):
    """Raise a scheme failure unless the polynomial scheme's scan, which
    reads the stored terms of degree <= ``degree`` only, sees all of each
    field: no stored term above it, and no declared ``tail_l1`` above the
    stored sum (an ``fsum``, rounded up as the face bound rounds it down)."""
    for i, f in enumerate(fields):
        for l, comp in enumerate(f.components):
            top = max(map(sum, comp), default=0)
            reason = None
            if top > degree:
                reason = f"stores a term of degree {top}"
            elif f.tail_l1 is not None:
                stored = f.stored_l1[l]
                if f.tail_l1[l] > upper(stored, stored, 8):
                    reason = (f"declares tail_l1 {f.tail_l1[l]!r} above its "
                              f"stored sum {stored!r}")
            if reason is not None:
                raise _Failure("scheme", "the polynomial scheme scans the stored "
                               f"terms up to degree {degree} only: subsystem {i}, "
                               f"component {l} {reason}")


def _region(face_bounds):
    """The report's ``region`` block from the face bounds of
    ``boundary_invariance_check``: the first largest bound, and the first
    face whose bound is not negative, or else the first subsystem with no
    bounds, as the reason the polydisk is not proved invariant."""
    faces = [(i, l, b) for i, bounds in enumerate(face_bounds)
             for l, b in enumerate(bounds or ())]
    worst = max(faces, key=lambda face: face[2], default=None)  # first of ties
    reasons = [f"subsystem {i}, face {l}: bound {b!r} is not negative"
               for i, l, b in faces if not b < 0]
    reasons += [f"subsystem {i} is a truncated series with no tail_l1"
                for i, bounds in enumerate(face_bounds) if bounds is None]
    return {"face_bounds": face_bounds,
            "worst": worst and dict(zip(("subsystem", "face", "bound"), worst)),
            "proved": not reasons, "reason": reasons[0] if reasons else None}


def export_epsilon_csv(report, fh):
    """Weights indexed by basis position and exponent."""
    basis = build_basis(report.dimension, report.truncation_degree)
    weights = _float_reprs(np.asarray(report.epsilon, dtype=float).tolist())
    exponents = (" ".join(map(str, alpha)) for alpha in basis.exponents[1:].tolist())
    fh.write("index,exponents,epsilon\n")
    fh.write("".join(
        f"{k},{alpha},{weight}\n"
        for k, (alpha, weight) in enumerate(zip(exponents, weights, strict=True), 1)
    ))


def export_ratios_csv(report, fh):
    """Per-degree maxima of the scheme-weighted coupling ratio."""
    fh.write("degree,max_ratio\n")
    for d, v in sorted((report.q_by_degree or {}).items()):
        fh.write(f"{d},{float(v)!r}\n")
