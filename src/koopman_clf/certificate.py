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
"""

import math
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


def _square(x):
    """``x ** 2`` elementwise with Python's float power, which differs from
    ``x * x`` in the last bit for about one value in a thousand; inf where
    that power overflows."""

    def square(t):
        try:
            return t**2
        except OverflowError:
            return math.inf

    return np.fromiter(map(square, x.tolist()), float, len(x))


def _poly_ratios(p):
    """xi-free polynomial-scheme ratio of every pair."""
    return _square(p.count * p.e) / (p.decay_j * p.decay_k)


def _scheme_ratios(p, n, scheme):
    """Scheme-weighted ratio Q_jk of every pair: the polynomial ratio over
    xi^2, or under the dominance scheme (D e)^2 / (decay_j decay_k) over
    xi^2 for a same-degree pair, D = (n^2 - n) / 2, and
    col_sums[j] row_sums[k] / (decay_j decay_k) over kappa^2 across
    degrees."""
    if scheme.kind == "polynomial":
        return _poly_ratios(p) / scheme.xi**2
    D = (n * n - n) / 2.0
    s, c = p.same, ~p.same
    q = np.empty(len(s))
    q[s] = _square(D * p.e[s]) / (p.decay_j[s] * p.decay_k[s]) / scheme.xi**2
    q[c] = p.sums[c] / (p.decay_j[c] * p.decay_k[c]) / scheme.kappa**2
    return q


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


def check_poly_condition(ops, basis):
    """Scan of the xi-free polynomial-scheme ratio over all exact pairs.

    The certificate condition of the uniform scheme holds (with radius 1)
    exactly when the supremum stays strictly below one.
    """
    p = _coupled_pairs(ops, basis)
    sup, arg, by_degree = _sup_by_degree(p, _poly_ratios(p), basis)
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


def _dd_ratios(p, n, xi, kappa):
    """Same-degree and cross-degree dominance ratios of every pair, each
    0.0 at the pairs of the other kind."""
    D = (n * n - n) / 2.0
    s, c = p.same, ~p.same
    same, cross = np.zeros(len(s)), np.zeros(len(s))
    same[s] = _square(D * p.e[s] / xi) / (p.decay_j[s] * p.decay_k[s])
    cross[c] = p.sums[c] / (kappa**2 * p.decay_j[c] * p.decay_k[c])
    return same, cross


def check_dd_condition(ops, basis, jacobians, xi, kappa, rho):
    """Diagonal-dominance scheme test at radius ``rho``.

    Verifies the two Jacobian dominance inequalities at ``xi``, that every
    same-degree ratio is below one, and that the cross-degree ratio
    supremum (extrapolated past the truncation when increasing) stays
    below 1 / rho^2.  Any non-finite ratio fails the test.
    """
    WeightScheme("diagonal_dominance", xi, kappa)  # validates xi and kappa
    xi_min = dominance_xi_min(jacobians)
    dominance_ok = xi > xi_min or xi_min == 0.0
    p = _coupled_pairs(ops, basis)
    same, cross = _dd_ratios(p, basis.dimension, xi, kappa)
    same_sup, _, _ = _sup_by_degree(p, same, basis)
    cross_sup, arg, by_degree = _sup_by_degree(p, cross, basis)
    est, source = _extrapolate(by_degree)
    record = {
        "dominance_ok": bool(dominance_ok),
        "xi_min": xi_min,
        "same_degree_sup": same_sup,
        "same_degree_slack": 1.0 - same_sup,
        "cross_sup": cross_sup,
        "extrapolated": est,
        "source": source,
        "lhs_sup": max(same_sup, est),
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


def certified_radius_dd(ops, basis, jacobians, xi, kappa):
    """Largest radius accepted by the dominance scheme, and its record.

    Only the clause est * rho^2 < 1 depends on rho, so one scan at rho = 1
    settles the others and rho is the largest float r <= 1 with
    est * r * r < 1.  When another clause fails or a ratio is not finite,
    rho is 0.0 and the record is the failing one at rho = 1.
    """
    detail = check_dd_condition(ops, basis, jacobians, xi, kappa, 1.0)
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


def epsilon_sequence(ops, basis, scheme, eta=0.5, rho=1.0):
    """Monomial weights satisfying the strict coupling recursion.

    Each weight exceeds ``max_i max_k eps_k Q_jk`` by the headroom factor
    (1 + eta_eff).  The requested eta is capped so that the per-degree
    growth (1 + eta) * sup Q * rho^2 stays below one whenever the scheme
    condition leaves room, which keeps the certified series summable;
    positions with no incoming coupling receive a small positive floor
    tied to the previous degree's largest weight.

    The ratios come from one scan of the coupled pairs, grouped by target
    column j; a maximum is exact in any order, and a NaN ratio reaches
    its weight.

    Returns (epsilon, eta_effective, q_sup, q_by_degree).
    """
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta!r}")
    M = basis.size
    p = _coupled_pairs(ops, basis)
    q = _scheme_ratios(p, basis.dimension, scheme)
    q_sup, _, q_by_degree = _sup_by_degree(p, q, basis)
    q_est, _ = _extrapolate(q_by_degree)
    bound = max(q_sup, q_est) * rho * rho
    if bound > 0:
        eta_eff = min(eta, max(ETA_FLOOR, 0.5 * (1.0 / bound - 1.0)))
    else:
        eta_eff = eta
    order = np.argsort(p.j, kind="stable")
    source, q = p.k[order], q[order]
    # pairs into column j sit at positions end[j - 1] .. end[j] - 1
    end = np.searchsorted(p.j[order], np.arange(M + 1), side="right")
    degree = basis.exponents.sum(axis=1)
    eps = np.zeros(M + 1)
    eps[0] = np.nan  # index 0 is the constant monomial, never weighted
    degree_max = {0: 1.0}
    for j in range(1, M + 1):
        d = int(degree[j])
        col = slice(end[j - 1], end[j])
        best = np.max(eps[source[col]] * q[col], initial=0.0)
        if j == 1:
            eps[j] = 1.0  # first weight anchors the recursion
        else:
            floor = EPSILON_FLOOR * degree_max.get(d - 1, 1.0)
            eps[j] = max((1.0 + eta_eff) * best, floor)
        degree_max[d] = max(degree_max.get(d, 0.0), eps[j])
    return eps[1:], eta_eff, q_sup, q_by_degree


def degree_maxima(epsilon, basis):
    """Largest weight at each total degree 1..max_degree."""
    out = np.zeros(basis.max_degree + 1)
    for d in range(1, basis.max_degree + 1):
        idx = basis.indices_of_degree(d)
        out[d] = max(epsilon[k - 1] for k in idx)
    return out[1:]


def decay_ratio(epsilon, basis):
    """Observed per-degree decay rate of the weight maxima.

    Uses the geometric-mean ratio over a trailing window of even length,
    which is insensitive to parity alternation of the coupling chains.
    """
    m = degree_maxima(epsilon, basis)
    N = basis.max_degree
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

    @property
    def total(self):
        return self.partial_sum + self.tail_bound


def convergence_check(epsilon, basis, rho):
    """Summability test of sum_k |alpha(k)| eps_k rho^{2 |alpha(k)|}.

    The truncated part is summed exactly; the tail is bounded by carrying
    the observed per-degree decay of the weight maxima past the
    truncation degree.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    epsilon = np.asarray(epsilon, dtype=float)
    if epsilon.shape[0] != basis.size:
        raise ValueError("weight vector does not match the basis")
    degrees = basis.exponents[1:].sum(axis=1)
    partial = float(np.sum(degrees * epsilon * rho ** (2.0 * degrees)))
    r = decay_ratio(epsilon, basis)
    N = basis.max_degree
    m = degree_maxima(epsilon, basis)
    m_ref = float(max(m[N - 1], m[N - 2] if N >= 2 else m[N - 1]))
    x = r * rho * rho
    if not x < 1.0:
        return ConvergenceResult(partial, float("inf"), r, False)
    tail = 0.0
    scale = max(1.0, partial)
    d = N + 1
    while d < N + 200000:
        term = basis.count_of_degree(d) * d * m_ref * r ** (d - N) * rho ** (2 * d)
        tail += term
        if term < 1e-22 * scale and d > N + 4:
            break
        d += 1
    return ConvergenceResult(partial, tail, r, True)


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

    def hat(self, z):
        z = np.asarray(z, dtype=complex)
        if z.ndim == 1:
            return self.P_inv @ z
        return z @ self.P_inv.T

    def value_batch(self, Z, hat=False):
        """V at a batch of points (B, n); set hat=True when Z is already
        in flag coordinates.

        The weight grid is contracted with the power tables |z_c|^(2p),
        p = 0..N, one coordinate axis at a time; for n = 2 this is
        rowsum((X_1 @ G) * X_2).  The tables are laid out (power, coord,
        point) so every operation runs over contiguous rows of points.
        """
        Z = np.asarray(Z, dtype=complex)
        W = (np.abs(Z if hat else self.hat(Z)) ** 2).T  # (n, B) real
        n, B = W.shape
        G = self._grid
        X = np.empty((G.shape[0], n, B))
        X[0] = 1.0
        X[1] = W
        for p in range(2, G.shape[0]):
            np.multiply(X[p - 1], W, out=X[p])
        acc = G.reshape(G.shape[0], -1).T @ X[:, 0]
        for c in range(1, n):
            acc = acc.reshape(G.shape[0], -1, B)
            acc *= X[:, c, None]
            acc = acc.sum(axis=0)
        return acc[0]

    def value(self, z):
        return float(self.value_batch(np.asarray(z, dtype=complex)[None, :])[0])
