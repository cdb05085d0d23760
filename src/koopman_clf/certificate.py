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
"""

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .koopman import build_matrix

EPSILON_FLOOR = 1e-12
ETA_FLOOR = 1e-9


@dataclass(frozen=True)
class WeightScheme:
    """Diagonal-budget splitting rule with its parameters.

    kind ``polynomial``: every coupled pair gets xi / (2 K) where K counts
    the field's non-diagonal-linear coefficients.  kind
    ``diagonal_dominance``: same-degree pairs get xi / (n^2 - n), pairs
    across degrees get kappa/2 weighted by the entry's share of the
    absolute row or column sum.
    """

    kind: str
    xi: float
    kappa: float = None

    def __post_init__(self):
        if self.kind not in ("polynomial", "diagonal_dominance"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if not 0 < self.xi < 1:
            raise ValueError("xi must lie in (0, 1)")
        if self.kind == "polynomial":
            if self.kappa is not None:
                raise ValueError("polynomial scheme takes no kappa")
        else:
            if self.kappa is None or not 0 < self.kappa < 1:
                raise ValueError("diagonal_dominance needs kappa in (0, 1)")
            if self.xi + self.kappa >= 1:
                raise ValueError("need xi + kappa < 1")


@dataclass
class SubsystemOperator:
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
    col_sums = np.zeros(M + 1)
    np.add.at(col_sums, j, np.hypot(v.real, v.imag))
    row_sums = np.zeros(M + 1)
    for l in range(basis.dimension):
        row_sums += basis.exponents[:, l] * field_hat.l1_norm(l)
    return SubsystemOperator(
        kmat=kmat,
        coupling_count=field_hat.term_count(exclude_linear_diag=True),
        re_decay=re_decay,
        col_sums=col_sums,
        row_sums=row_sums,
    )


def _coupled_pairs(ops, basis):
    """Coupled pairs k < j of every operator as arrays, with the inputs of
    their ratios, ordered by subsystem, then row k, then column j: a sup is
    attributed to the first pair that reaches it in this order."""
    coo = []
    for i, op in enumerate(ops):
        k, j, v = op.kmat.k, op.kmat.j, op.kmat.v
        keep = (j > k) & (v != 0)
        coo.append((np.full(keep.sum(), i), k[keep], j[keep], v[keep]))
    i, k, j, v = (np.concatenate(a) for a in zip(*coo))
    decay = np.array([op.re_decay for op in ops])
    col_sums = np.array([op.col_sums for op in ops])
    row_sums = np.array([op.row_sums for op in ops])
    degree = basis.exponents.sum(axis=1)
    return SimpleNamespace(
        i=i, k=k, j=j, e=np.hypot(v.real, v.imag),
        count=np.array([op.coupling_count for op in ops])[i],
        decay_j=decay[i, j], decay_k=decay[i, k],
        sums=col_sums[i, j] * row_sums[i, k],
        degree=degree[j], same=degree[j] == degree[k],
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

    Fits value = a + b / degree on the trailing window and keeps the fit
    only when it exceeds the computed maximum; returns (estimate, source)
    with source either "computed" or "extrapolated".  The estimate is NaN
    when some maximum is not finite.
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
    A = np.array([[1.0, 1.0 / d] for d, _ in window])
    y = np.array(vals)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    est = float(coef[0])
    if est > computed:
        return est, "extrapolated"
    return computed, "computed"


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

    Returns 0.0 when all off-diagonal entries vanish.
    """
    n = jacobians[0].shape[0]
    if n == 1:
        return 0.0
    D = (n * n - n) / 2.0
    worst = 0.0
    for J in jacobians:
        for q in range(n):
            for r in range(q + 1, n):
                a = abs(J[q, r])
                if a == 0:
                    continue
                req = abs(J[q, q].real)
                rer = abs(J[r, r].real)
                worst = max(worst, D * a / req, D * a / math.sqrt(req * rer))
    return worst


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
    same_sup, _, _ = _sup_by_degree(scan, np.where(scan.same, scan.q, 0.0), basis)
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


def _dd_at_radius(record, rho):
    """The dominance record with its verdict and slack at radius ``rho``.

    A non-finite sup or estimate fails its clause.  The slack
    1/rho^2 - est is computed as (1 - est rho^2) / rho^2, whose sign
    always agrees with the verdict of est rho^2 < 1.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    est = record["extrapolated"]
    ok = (
        record["dominance_ok"]
        and record["same_degree_sup"] < 1.0
        and est * rho * rho < 1.0
    )
    return {**record, "pass": bool(ok), "rho_slack": (1.0 - est * rho * rho) / rho**2}


def certified_radius_dd(scan, basis, xi_min):
    """Largest radius accepted by the dominance scheme, and its record.

    Only the clause est * rho^2 < 1 depends on rho, so one scan at rho = 1
    settles the others and rho is the largest float r <= 1 with
    est * r * r < 1.  When another clause fails or a ratio is not finite,
    rho is 0.0 and the record is the failing one at rho = 1.
    """
    detail = check_dd_condition(scan, basis, xi_min, 1.0)
    if detail["pass"]:
        return 1.0, detail
    est = detail["extrapolated"]
    if not (math.isfinite(est) and est >= 1.0):
        return 0.0, detail
    r = 1.0 / math.sqrt(est)
    while est * r * r >= 1.0:
        r = math.nextafter(r, 0.0)
    while est * (up := math.nextafter(r, 2.0)) * up < 1.0:
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


@dataclass(frozen=True)
class ConvergenceResult:
    partial_sum: float
    tail_bound: float
    ratio: float
    convergent: bool


def convergence_check(epsilon, basis, rho):
    """Summability test of sum_k |alpha(k)| eps_k rho^{2 |alpha(k)|}.

    The truncated part is summed exactly; the tail is bounded by carrying
    the observed per-degree decay of the weight maxima past the
    truncation degree.  A tail term is the direct product
    count * d * m_N * r^(d-N) * rho^(2d) while its powers are normal
    floats, and the same term regrouped as m_N rho^(2N) (r rho^2)^(d-N)
    once r^(d-N) would overflow or rho^(2d) underflow (fast-growing weights
    on a small radius); since r rho^2 < 1 that form stays finite.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    epsilon = np.asarray(epsilon, dtype=float)
    if epsilon.shape[0] != basis.size:
        raise ValueError("weight vector does not match the basis")
    degrees = basis.exponents[1:].sum(axis=1)
    partial = float(np.sum(degrees * epsilon * rho ** (2.0 * degrees)))
    m = degree_maxima(epsilon, basis)
    r = _maxima_ratio(m)
    N = basis.max_degree
    m_ref = float(max(m[N - 1], m[N - 2] if N >= 2 else m[N - 1]))
    x = r * rho * rho
    if not x < 1.0:
        return ConvergenceResult(partial, float("inf"), r, False)
    base = m_ref * rho ** (2 * N)  # the degree-N maximum, weighted at rho
    tail = 0.0
    scale = max(1.0, partial)
    d = N + 1
    while d < N + 200000:
        count = basis.count_of_degree(d)
        shrink = rho ** (2 * d)
        try:
            term = count * d * m_ref * r ** (d - N) * shrink
        except OverflowError:
            term = math.inf
        if not (shrink >= sys.float_info.min and term < math.inf):
            # r^(d-N) overflows, or rho^(2d) underflows, before the term
            # does: take it as base * (r rho^2)^(d-N), which stays finite
            term = count * d * base * x ** (d - N)
        tail += term
        if term < 1e-22 * scale and d > N + 4:
            break
        d += 1
    return ConvergenceResult(partial, tail, r, True)


class ValueScratch:
    """Work arrays of one caller's batched V evaluations at ``rows`` points
    in dimension n with truncation degree N.

    ``zh`` (rows, n) takes the points in flag coordinates (``value_batch``
    writes its ``hat`` there), ``mod`` (rows, n) their moduli; every
    ``value_batch`` leaves its batch's there.  The (N + 1, n, cols) table
    holds |z_c|^(2p), and the contraction runs in two real buffers of
    max((N + 1)^(n - 1), 2) and (N + 1)^(n - 2) rows, all of
    cols = max(rows, 2) columns, since a lone point is contracted as two
    equal columns.  Whoever makes a scratch owns it: every evaluation
    overwrites it, and the values ``value_batch`` returns are a view into
    it.
    """

    def __init__(self, clf, rows):
        n, N1 = clf.basis.dimension, clf._grid.shape[0]
        cols = max(rows, 2)
        self.rows = rows
        self.zh = np.empty((rows, n), dtype=complex)
        self.mod = np.empty((rows, n))
        self.pows = np.empty((N1, n, cols))
        self.pows[0] = 1.0
        self.acc = np.empty((len(clf._lead), cols))
        self.spare = np.empty((N1 ** max(n - 2, 0), cols))


class CommonLyapunovFunction:
    """Evaluator of V(z) = sum_k eps_k |(P^{-1} z)^{alpha(k)}|^2."""

    def __init__(self, epsilon, P_inv, basis):
        self.epsilon = np.asarray(epsilon, dtype=float)
        if self.epsilon.shape[0] != basis.size:
            raise ValueError("weight vector does not match the basis")
        self.P_inv = np.asarray(P_inv, dtype=complex)
        self.basis = basis
        # degree grid: G[alpha] = eps_k at alpha = alpha(k), zero elsewhere
        N = basis.max_degree
        self._grid = np.zeros((N + 1,) * basis.dimension)
        self._grid[tuple(basis.exponents[1:].T)] = self.epsilon
        # the grid as the matrix of the first contraction; for n = 1 its one
        # row is doubled, so that numpy multiplies it as a matrix
        lead = self._grid.reshape(N + 1, -1).T
        self._lead = np.repeat(lead, 2, axis=0) if len(lead) == 1 else lead

    def hat(self, z, out=None):
        """Flag coordinates P^{-1} z of one point (n,) or of a batch
        (B, n), written to ``out`` when given.

        A point's coordinates do not depend on the batch it is in: numpy's
        matrix-vector product rounds differently from its matrix product,
        so a lone point is multiplied as two equal rows.
        """
        z = np.asarray(z, dtype=complex)
        if z.ndim == 2 and len(z) != 1:
            return np.matmul(z, self.P_inv.T, out=out)
        pair = np.matmul(np.stack((z.reshape(-1),) * 2), self.P_inv.T)
        one = pair[:1].reshape(z.shape)
        if out is None:
            return one
        np.copyto(out, one)
        return out

    def value_batch(self, Z, scratch=None):
        """V at a batch of points (B, n).

        The weight grid is contracted with the power tables |z_c|^(2p),
        p = 0..N, one coordinate axis at a time; for n = 2 this is
        rowsum((X_1 @ G) * X_2).  The tables are laid out (power, coord,
        point), and every operation runs over contiguous rows of points.
        With a ``ValueScratch`` of B rows every array lives in it, the
        flag coordinates are left in ``scratch.zh`` and the moduli |z| in
        ``scratch.mod``, and the returned values are a view into the
        scratch; without one, a scratch is made for the call.  V of a
        point does not depend on the batch it is in: numpy multiplies a
        single row or column through its matrix-vector paths, which round
        differently from its matrix product, so a lone point is
        contracted as two equal columns (and for n = 1 the grid as two
        equal rows).
        """
        Z = np.asarray(Z, dtype=complex)
        B, n = Z.shape
        own = scratch is None
        if own:
            scratch = ValueScratch(self, B)
        elif scratch.rows != B:
            raise ValueError(f"scratch holds {scratch.rows} rows, not {B}")
        W = np.abs(self.hat(Z, out=scratch.zh), out=scratch.mod).T
        X, G = scratch.pows, self._grid  # (N + 1, n, max(B, 2))
        cols = X.shape[2]
        np.multiply(W, W, out=X[1])  # a lone point fills both columns
        for p in range(2, len(X)):
            np.multiply(X[p - 1], X[1], out=X[p])
        acc = np.matmul(self._lead, X[:, 0], out=scratch.acc)
        flat = scratch.acc.reshape(-1), scratch.spare.reshape(-1)
        for c in range(1, n):  # the sums alternate between the two buffers
            acc = acc.reshape(len(G), -1, cols)
            acc *= X[:, c, None]
            out = flat[c % 2][:acc[0].size].reshape(-1, cols)
            acc = np.add.reduce(acc, axis=0, out=out)
        return acc[0, :B].copy() if own else acc[0, :B]
