"""Certificate pipeline: weight schemes, coupling ratios, and the
assembled stability analysis.

The certified object is a weighted sum of squared monomials of the state
in flag coordinates,

    V(z) = sum_k eps_k |(P^{-1} z)^{alpha(k)}|^2,

whose decrease along every subsystem follows from bounding, for each
coupled pair of basis positions, the ratio

    Q_jk = |entry(k, j)|^2 / (4 |Re lam_j| |Re lam_k| b_jk b_kj)

where the b-weights split each diagonal decay budget across its couplings.
Two splitting schemes are implemented: a uniform one for polynomial
fields (``polynomial``) and a sum-proportional one for analytic fields
(``diagonal_dominance``).

One analysis scans the coupled pairs once: ``coupling_scan`` computes
every pair's ratio with its scheme's one formula, and the scheme
condition, the certified radius and the weight recursion all read it.
V's evaluator, ``CommonLyapunovFunction``, runs in the audit only and
lives in ``kernels``.
"""

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .koopman import build_matrix
from .rounding import upper

EPSILON_FLOOR = 1e-12
ETA_FLOOR = 1e-9
TAIL_DEGREE_CAP = 200000  # degrees past N that the convergence tail sums


class WeightScheme:
    """Diagonal-budget splitting rule with its parameters.

    kind ``polynomial``: every coupled pair gets xi / (2 K) where K counts
    the field's non-diagonal-linear coefficients.  kind
    ``diagonal_dominance``: same-degree pairs get xi / (n^2 - n), pairs
    across degrees get kappa/2 weighted by the entry's share of the
    absolute row or column sum.
    """

    def __init__(self, kind, xi, kappa=None):
        if kind not in ("polynomial", "diagonal_dominance"):
            raise ValueError(f"unknown scheme kind {kind!r}")
        if not 0 < xi < 1:
            raise ValueError("xi must lie in (0, 1)")
        if kind == "polynomial":
            if kappa is not None:
                raise ValueError("polynomial scheme takes no kappa")
        else:
            if kappa is None or not 0 < kappa < 1:
                raise ValueError("diagonal_dominance needs kappa in (0, 1)")
            if xi + kappa >= 1:
                raise ValueError("need xi + kappa < 1")
        self.kind, self.xi, self.kappa = kind, xi, kappa


class SubsystemOperator(NamedTuple):
    """One subsystem's truncated generator with cached absolute sums."""

    kmat: object
    coupling_count: int
    re_decay: np.ndarray  # |Re lam_k|, index 0 unused
    col_sums: np.ndarray  # sum_l |entry(l, j)| into column j
    row_sums: np.ndarray  # sum_j |entry(k, j)| out of row k (tail aware)


def build_operator(field_hat, basis):
    """Generator matrix of one subsystem with the decay rates and absolute
    sums the schemes read, all from the matrix's (k, j, v) arrays.

    The row sum of position k over the full infinite basis is
    sum_l alpha_l(k) ||F_l||_{l1}, with exact component norms (tail_l1
    aware); it equals sum_j |entry(k, j)| when no two coefficients of one
    component land on the same target, as for the families treated here.
    """
    kmat = build_matrix(field_hat, basis)
    k, j, v = kmat.k, kmat.j, kmat.v
    if np.any(v[j < k] != 0):
        raise ValueError(
            "generator matrix has entries below the diagonal; the field's "
            "Jacobian is not upper triangular"
        )
    M = basis.size
    re_decay = np.zeros(M + 1)
    on = j == k
    re_decay[k[on]] = -v[on].real
    if np.any(re_decay[1:] <= 0):
        raise ValueError("generator diagonal must have negative real part")
    # each column adds up its entries in row order
    col_sums = np.bincount(j, np.hypot(v.real, v.imag), M + 1)
    row_sums = np.zeros(M + 1)
    for l in range(basis.dimension):
        row_sums += basis.exponents[:, l] * field_hat.l1_norm(l)
    return SubsystemOperator(
        kmat=kmat,
        coupling_count=field_hat.coupling_count(),
        re_decay=re_decay,
        col_sums=col_sums,
        row_sums=row_sums,
    )


def _coupled_pairs(ops, basis):
    """Coupled pairs k < j of every operator as arrays, with the inputs of
    their ratios, ordered by subsystem, then row k, then column j: a sup is
    attributed to the first pair that reaches it in this order.  Each
    operator's pairs read its own decay rates and sums; stored entries are
    never exact zeros (see ``build_matrix``)."""
    parts = []
    for i, op in enumerate(ops):
        up = op.kmat.j > op.kmat.k
        k, j, v = op.kmat.k[up], op.kmat.j[up], op.kmat.v[up]
        parts.append((
            np.full(len(k), i), k, j, np.hypot(v.real, v.imag),
            np.full(len(k), op.coupling_count), op.re_decay[j], op.re_decay[k],
            op.col_sums[j] * op.row_sums[k],
        ))
    i, k, j, e, count, decay_j, decay_k, sums = map(np.concatenate, zip(*parts))
    degree = basis.exponents.sum(axis=1)
    return SimpleNamespace(
        i=i, k=k, j=j, e=e, count=count, decay_j=decay_j, decay_k=decay_k,
        sums=sums, degree=degree[j], same=degree[j] == degree[k],
    )


def coupling_scan(ops, basis, scheme):
    """The coupled pairs of ``ops`` with their ``scheme`` and the ratio
    Q_jk of every pair as ``q``: under the polynomial scheme r / xi^2 with
    the xi-free r = (K e)^2 / (decay_j decay_k), kept as ``r``; under the
    dominance scheme (D e / xi)^2 / (decay_j decay_k) for a same-degree
    pair, D = (n^2 - n) / 2, and col_sums[j] row_sums[k] /
    (kappa^2 decay_j decay_k) across degrees."""
    p = _coupled_pairs(ops, basis)
    p.scheme = scheme
    if scheme.kind == "polynomial":
        t = p.count * p.e
        with np.errstate(over="ignore"):  # an overflow is inf: the scan fails
            p.r = t * t / (p.decay_j * p.decay_k)
        p.q = p.r / scheme.xi**2
        return p
    n = basis.dimension
    D = (n * n - n) / 2.0
    s, c = p.same, ~p.same
    p.q = np.empty(len(s))
    t = D * p.e[s] / scheme.xi
    with np.errstate(over="ignore"):
        p.q[s] = t * t / (p.decay_j[s] * p.decay_k[s])
    p.q[c] = p.sums[c] / (scheme.kappa**2 * p.decay_j[c] * p.decay_k[c])
    return p


def _sup_by_degree(p, q, basis):
    """Sup, its first pair, and per-degree maxima keyed by target degree;
    all-zero degrees are left out, and a NaN ratio propagates to both."""
    top = np.zeros(basis.max_degree + 1)
    with np.errstate(invalid="ignore"):
        np.maximum.at(top, p.degree, q)
    by_degree = {int(d): float(top[d]) for d in np.flatnonzero(top)}
    m = int(np.argmax(q)) if q.size else None
    if m is None or q[m] == 0.0:
        return 0.0, None, by_degree
    arg = {"subsystem": int(p.i[m]), "k": int(p.k[m]), "j": int(p.j[m])}
    return float(q[m]), arg, by_degree


def _extrapolate(by_degree):
    """Limit estimate of an eventually-increasing per-degree max sequence.

    Fits value = a + b / degree on the trailing window by least squares,
    centred and summed with ``math.fsum`` so that no BLAS kernel rounds
    it, and keeps the fit only when it exceeds the computed maximum;
    returns (estimate, source) with source either "computed" or
    "extrapolated".  The estimate is NaN when some maximum is not finite.
    """
    items = [(d, v) for d, v in sorted(by_degree.items()) if d >= 2]
    if not all(math.isfinite(v) for _, v in items):
        return math.nan, "computed"
    computed = max((v for _, v in items), default=0.0)
    window = items[-8:]
    if len(window) < 3:
        return computed, "computed"
    vals = [v for _, v in window]
    if any(b < a - 1e-12 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:])):
        return computed, "computed"
    t = [1.0 / d for d, _ in window]
    t_mean, v_mean = math.fsum(t) / len(t), math.fsum(vals) / len(t)
    dt = [s - t_mean for s in t]
    slope = math.fsum(a * (v - v_mean) for a, v in zip(dt, vals))
    est = v_mean - slope / math.fsum(a * a for a in dt) * t_mean
    return (est, "extrapolated") if est > computed else (computed, "computed")


def check_poly_condition(scan, basis):
    """Sup of the xi-free polynomial-scheme ratio over a polynomial scan.

    The certificate condition of the uniform scheme holds (with radius 1)
    exactly when the supremum stays strictly below one.
    """
    if scan.scheme.kind != "polynomial":
        raise ValueError("the polynomial condition needs a polynomial scan")
    sup, arg, by_degree = _sup_by_degree(scan, scan.r, basis)
    est, source = _extrapolate(by_degree)
    return {
        "q_sup": sup,
        "argmax": arg,
        "by_degree": by_degree,
        "extrapolated": est,
        "source": source,
        "pass": bool(sup < 1.0),
        "slack": 1.0 - sup,
    }


def dominance_xi_min(jacobians):
    """Smallest xi for which both diagonal-dominance inequalities hold.

    For every subsystem and every upper pair (q, r), q < r, requires

        |J_qr|  < (2 xi / (n^2 - n)) |Re J_qq|
        |J_qr|^2 < (2 xi / (n^2 - n))^2 |Re J_qq| |Re J_rr|

    Returns 0.0 when all off-diagonal entries vanish.  The pairs are
    walked in Python, in subsystem then row-major order, with numpy's
    float rules: a zero denominator gives inf, and a nan propagates
    through every maximum.
    """
    worst = 0.0
    for J in np.asarray(jacobians, dtype=complex).tolist():
        D = len(J) * (len(J) - 1) / 2
        for q, row in enumerate(J):
            req = abs(row[q].real)
            for r in range(q + 1, len(J)):
                try:
                    a = abs(row[r])  # hypot, as np.hypot rounds it
                except OverflowError:
                    a = math.inf
                if a == 0:
                    continue
                w = _quotient(D * a, req)
                w2 = _quotient(D * a, math.sqrt(req * abs(J[r][r].real)))
                w = w if w >= w2 or w != w else w2  # as np.maximum
                worst = worst if worst >= w or worst != worst else w
    return worst


def _quotient(x, y):
    """x / y as numpy divides floats: x / 0 is inf, or nan for a nan x."""
    return x / y if y else x * math.inf


def check_dd_condition(scan, basis, xi_min, rho):
    """Diagonal-dominance scheme test of a dominance scan at radius ``rho``.

    Verifies the two Jacobian dominance inequalities, that is the scan's
    xi above ``xi_min`` (see ``dominance_xi_min``), that every same-degree
    ratio is below one, and that the cross-degree ratio supremum
    (extrapolated past the truncation when increasing) stays below
    1 / rho^2.  Any non-finite ratio fails the test.
    """
    if scan.scheme.kind != "diagonal_dominance":
        raise ValueError("the dominance condition needs a dominance scan")
    dominance_ok = scan.scheme.xi > xi_min or xi_min == 0.0
    same_sup = float(np.max(scan.q, where=scan.same, initial=0.0))
    cross_sup, arg, by_degree = _sup_by_degree(
        scan, np.where(scan.same, 0.0, scan.q), basis
    )
    est, source = _extrapolate(by_degree)
    record = {
        "dominance_ok": bool(dominance_ok),
        "xi_min": xi_min,
        "same_degree_sup": same_sup,
        "same_degree_slack": 1.0 - same_sup,
        "cross_sup": cross_sup,
        "extrapolated": est,
        "source": source,
        "lhs_sup": float(np.maximum(same_sup, est)),  # NaN if either is
        "argmax": arg,
        "by_degree": by_degree,
    }
    return _dd_at_radius(record, rho)


def _square_scaled_up(a, rho):
    """a rho^2 for a >= 0, rounded up: two roundings (``rounding``)."""
    return upper(a * rho * rho, a * rho * rho, 2)


def _dd_at_radius(record, rho):
    """The dominance record with its verdict and slack at radius ``rho``.

    A non-finite sup or estimate fails its clause.  The radius clause is
    p < 1 for p = est rho^2 rounded up, and the slack 1/rho^2 - est is
    computed as (1 - p) / rho^2, so its sign always agrees with the verdict.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    p = _square_scaled_up(record["extrapolated"], rho)
    ok = record["dominance_ok"] and record["same_degree_sup"] < 1.0 and p < 1.0
    return {**record, "pass": bool(ok), "rho_slack": (1.0 - p) / rho**2}


def certified_radius_dd(scan, basis, xi_min):
    """Largest radius accepted by the dominance scheme, and its record.

    Only the radius clause depends on rho, so one scan at rho = 1 settles
    the others and rho is the largest float r <= 1 whose outward-rounded
    est r^2 is below one (see ``_dd_at_radius``).  When another clause
    fails or a ratio is not finite, rho is 0.0 and the record is the
    failing one at rho = 1.
    """
    detail = check_dd_condition(scan, basis, xi_min, 1.0)
    if detail["pass"]:
        return 1.0, detail
    est = detail["extrapolated"]
    if not (math.isfinite(est) and est >= 1.0):
        return 0.0, detail
    r = 1.0 / math.sqrt(est)
    while _square_scaled_up(est, r) >= 1.0:
        r = math.nextafter(r, 0.0)
    while _square_scaled_up(est, up := math.nextafter(r, 2.0)) < 1.0:
        r = up
    at_r = _dd_at_radius(detail, r)
    if not at_r["pass"]:
        return 0.0, detail
    return r, at_r


def epsilon_sequence(scan, basis, eta=0.5, rho=1.0):
    """Monomial weights satisfying the strict coupling recursion.

    Each weight exceeds ``max_i max_k eps_k Q_jk`` by the headroom factor
    (1 + eta_eff).  The requested eta is capped so that the per-degree
    growth (1 + eta) * sup Q * rho^2 stays below one whenever the scheme
    condition leaves room, which keeps the certified series summable;
    positions with no incoming coupling receive a small positive floor
    tied to the previous degree's largest weight.

    The recursion runs one degree at a time.  Every weight of degree d
    starts at its floor, EPSILON_FLOOR times the largest weight of degree
    d - 1 (1.0 at d = 1); then the pairs into degree d raise it, one
    same-degree dependency level at a time, with ``np.maximum.at`` of
    eps_k Q_jk (1 + eta_eff).  Every coupled pair has k < j, so deg k <=
    deg j, and a level holds the pairs whose target ends a same-degree
    chain of pairs of one length, so each source is final when it is read.
    The weights are exact, equal to a walk over the positions one at a
    time: a maximum does not depend on the order of its terms, and since
    multiplying by 1 + eta_eff > 0 and rounding are monotone, the max of
    the scaled terms is the scaled max.  A NaN ratio reaches its weight
    through ``np.maximum``, while the degree maxima behind the floors skip
    NaN weights.

    The ratios Q_jk are those of ``scan`` (see ``coupling_scan``).
    Returns (epsilon, eta_effective, q_sup, q_by_degree).
    """
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta!r}")
    M = basis.size
    q_sup, _, q_by_degree = _sup_by_degree(scan, scan.q, basis)
    q_est, _ = _extrapolate(q_by_degree)
    bound = max(q_sup, q_est) * rho * rho
    if bound > 0:
        eta_eff = min(eta, max(ETA_FLOOR, 0.5 * (1.0 / bound - 1.0)))
    else:
        eta_eff = eta
    degree = basis.exponents.sum(axis=1)
    depth = np.zeros(M + 1, dtype=np.int64)
    ks, js = scan.k[scan.same], scan.j[scan.same]
    while True:  # longest same-degree chain of pairs ending at each position
        reach = np.zeros_like(depth)
        np.maximum.at(reach, js, depth[ks] + 1)
        if np.array_equal(reach, depth):
            break
        depth = reach
    level = (degree * (int(depth.max()) + 1) + depth)[scan.j]
    order = np.argsort(level, kind="stable")
    src, dst, q, level = scan.k[order], scan.j[order], scan.q[order], level[order]
    first = np.flatnonzero(np.diff(level, prepend=-1)).tolist()
    levels = [[] for _ in range(basis.max_degree + 1)]  # pair slices per degree
    for a, b in zip(first, first[1:] + [len(level)]):
        levels[degree[dst[a]]].append(slice(a, b))
    grow = 1.0 + eta_eff
    start = basis.degree_start
    eps = np.zeros(M + 1)
    eps[1] = 1.0  # first weight anchors the recursion
    top = 1.0
    with np.errstate(invalid="ignore"):  # a NaN ratio gives a NaN weight
        for d in range(1, basis.max_degree + 1):
            eps[max(start[d], 2):start[d + 1]] = EPSILON_FLOOR * top
            for at in levels[d]:
                np.maximum.at(eps, dst[at], eps[src[at]] * q[at] * grow)
            top = np.fmax.reduce(eps[start[d]:start[d + 1]], initial=0.0)
    return eps[1:], eta_eff, q_sup, q_by_degree


def degree_maxima(epsilon, basis):
    """Largest weight at each total degree 1..max_degree, as one grouped
    reduction over the graded basis.

    A NaN weight is skipped unless it is the first of its degree, which
    makes the maximum NaN: the rule of a running Python max seeded with
    that first weight.
    """
    epsilon = np.asarray(epsilon, dtype=float)
    first = basis.degree_start[1:-1] - 1  # weight index of each degree's first
    out = np.fmax.reduceat(epsilon, first)
    out[np.isnan(epsilon[first])] = np.nan
    return out


def _maxima_ratio(m):
    """Geometric-mean decay rate of the per-degree maxima ``m`` (degrees
    1..N) over a trailing window of even length."""
    N = len(m)
    if N < 2:
        return 1.0
    w = min(6, N - 1)
    if w >= 2 and w % 2 == 1:
        w -= 1
    return float((m[N - 1] / m[N - 1 - w]) ** (1.0 / w))


class ConvergenceResult(NamedTuple):
    partial_sum: float
    tail_bound: float
    ratio: float
    convergent: bool


def convergence_check(epsilon, basis, rho):
    """Summability test of sum_k |alpha(k)| eps_k rho^{2 |alpha(k)|}.

    The truncated part is summed exactly; the tail is bounded by carrying
    the observed per-degree decay r of the weight maxima past the
    truncation degree.  The term of degree d > N is
    count_d d (m_N rho^(2N)) x^(d-N), x = r rho^2 rounded up, finite since
    x < 1, also for fast-growing weights on a small radius; count_d steps
    by C(d + n, n - 1) = C(d + n - 1, n - 1) (d + n) / (d + 1).  The sum
    stops at the degree D whose term is below 1e-18 of the running sum, or
    at the ``TAIL_DEGREE_CAP``-th past N.  The term ratio q = x (d + n) / d
    falls with d, so the rest is at most term_D q / (1 - q), q at D rounded
    up; a q not below 1 fails the series, as x >= 1 does.  The terms and
    the rest are summed by ``math.fsum`` and rounded up (``rounding``): ten
    roundings on a path at most, while m_N rho^(2N) is a normal float.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    epsilon = np.asarray(epsilon, dtype=float)
    if epsilon.shape[0] != basis.size:
        raise ValueError("weight vector does not match the basis")
    degrees = basis.exponents[1:].sum(axis=1)
    # one libm power per degree: numpy's array power moves in its last bit
    # with numpy's SIMD level
    powers = np.array([rho ** (2 * d) for d in range(basis.max_degree + 1)])
    partial = float(np.sum(degrees * epsilon * powers[degrees]))
    m = degree_maxima(epsilon, basis)
    r = _maxima_ratio(m)
    N, n = basis.max_degree, basis.dimension
    m_ref = float(max(m[N - 1], m[N - 2] if N >= 2 else m[N - 1]))
    x = _square_scaled_up(r, rho)
    if not x < 1.0:
        return ConvergenceResult(partial, float("inf"), r, False)
    base = m_ref * rho ** (2 * N)  # the degree-N maximum, weighted at rho
    count, d, terms, total = basis.count_of_degree(N + 1), N + 1, [], 0.0
    while True:
        term = count * d * base * x ** (d - N)
        terms.append(term)
        total += term
        if term <= 1e-18 * total or d - N == TAIL_DEGREE_CAP:
            break
        count = count * (d + n) // (d + 1)
        d += 1
    q = x * (d + n) / d
    q = upper(q, q, 2)
    if not q < 1.0:
        return ConvergenceResult(partial, float("inf"), r, False)
    tail = math.fsum(terms) + term * q / (1.0 - q)
    return ConvergenceResult(partial, upper(tail, tail, 6), r, True)


# benchmarks/tracer.py wraps the evaluator's methods through this module, so
# its name resolves here; ``kernels`` loads on that first access only.
def __getattr__(name):
    if name == "CommonLyapunovFunction":
        from .kernels import CommonLyapunovFunction

        return CommonLyapunovFunction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
