"""Per-entry reference formulas for the generator matrix, the coupling
ratios and the weight recursion.

The library builds each truncated generator matrix once, as arrays
(k, j, v) of its stored entries, and runs the certificate on them.  The
functions here compute the same quantities one entry, one column, one
pair or one basis position at a time; the tests hold the library to them.
The small constructors and lookups at the top are used only by tests;
``field_step`` among them steps points under one field in a scratch of
its own.
``evaluate_batch`` is the field evaluator the library had before its
points-last kernel, and ``dense_value_batch`` the V evaluator it had
before its scratch; each is kept as its successor's bit-exact reference.
``reference_rk4`` is the RK4 step of a family built on
``evaluate_batch``, the reference of the step a scratch plans.
"""

import numpy as np

from koopman_clf.certificate import (
    EPSILON_FLOOR,
    ETA_FLOOR,
    _extrapolate,
    _maxima_ratio,
    _sup_by_degree,
    coupling_scan,
    degree_maxima,
)
from koopman_clf.multiindex import order_key
from koopman_clf.vectorfield import FieldScratch, PolyVectorField, flow_step


def field_from_linear(matrix):
    """Field z -> A z."""
    A = np.asarray(matrix, dtype=complex)
    n = A.shape[0]
    comps = []
    for l in range(n):
        table = {}
        for r in range(n):
            if A[l, r] != 0:
                alpha = tuple(1 if s == r else 0 for s in range(n))
                table[alpha] = A[l, r]
        comps.append(table)
    return PolyVectorField(comps)


def field_step(field_, z, dt):
    """``flow_step`` of one point (n,) or a batch (B, n) under one field,
    in a new ``FieldScratch`` of the field for its rows."""
    rows = len(z) if np.ndim(z) == 2 else 1
    return flow_step(FieldScratch(field_, rows), z, dt)


def evaluate_batch(field_, zb):
    """F at a (B, n) complex batch, points first: the stored terms are
    listed by component, then in basis order; the batch is copied once
    into a contiguous (n, B) array, a power-major (P + 1, n, B) table is
    filled from it, the (K, B) monomials are gathered by fancy indexing
    (row p * n + c of the table holds z_c ** p), copied to (B, K) and
    contracted as (B, K) @ (K, n) with the coefficient matrix."""
    B, n = zb.shape
    terms = [
        (l, alpha)
        for l, c in enumerate(field_.components)
        for alpha in sorted(c, key=order_key)
    ]
    exps = np.array([a for _, a in terms], dtype=np.intp).reshape(-1, n)
    gather = (exps * n + np.arange(n)).T
    coeffs = np.zeros((len(terms), n), dtype=complex)
    for t, (l, alpha) in enumerate(terms):
        coeffs[t, l] = field_.components[l][alpha]
    top = int(exps.max()) if terms else 0
    zT = np.ascontiguousarray(zb.T)
    pows = np.empty((top + 1, n, B), dtype=complex)
    pows[0] = 1
    for p in range(1, top + 1):
        np.multiply(pows[p - 1], zT, out=pows[p])
    pows = pows.reshape(-1, B)
    mono = pows[gather[0]]
    for c in range(1, n):
        mono *= pows[gather[c]]
    return np.ascontiguousarray(mono.T) @ coeffs


def reference_rk4(fields, sub, Z, dt):
    """One classical Runge-Kutta step of the (B, n) batch ``Z``, row i
    under ``fields[sub[i]]``, by ``dt``, a scalar or a (B, 1) array of
    per-row steps, with fresh arrays.  At each stage every field that
    holds a row is evaluated by ``evaluate_batch`` on the whole stage
    input, and each row keeps its own field's values; the stages are
    summed as ((k1 + 2 k2) + 2 k3 + k4) * (dt / 6) + z."""
    Z = np.asarray(Z, dtype=complex)
    sub = np.broadcast_to(sub, len(Z))

    def F(X):
        out = np.empty_like(X)
        for i in np.unique(sub):
            rows = sub == i
            out[rows] = evaluate_batch(fields[i], X)[rows]
        return out

    half, sixth = 0.5 * dt, dt / 6.0
    k1 = F(Z)
    k2 = F(k1 * half + Z)
    k3 = F(k2 * half + Z)
    k4 = F(k3 * dt + Z)
    return ((k1 + k2 * 2.0) + k3 * 2.0 + k4) * sixth + Z


def dense_value_batch(clf, Z):
    """V at a (B, n) batch by the dense degree-grid contraction with fresh
    arrays: the power tables |z_c|^(2p) built from (|z|^2).T, then the
    grid contracted one coordinate axis at a time.  ``value_batch``'s
    bit-exact reference: like it, a lone point is contracted as two equal
    columns, and for n = 1 the grid as two equal rows, so that every
    product is a matrix product."""
    Z = np.asarray(Z, dtype=complex)
    if len(Z) == 1:
        return dense_value_batch(clf, np.repeat(Z, 2, axis=0))[:1]
    W = (np.abs(clf.hat(Z)) ** 2).T
    n, B = W.shape
    G = clf._grid
    X = np.empty((G.shape[0], n, B))
    X[0] = 1.0
    X[1] = W
    for p in range(2, G.shape[0]):
        np.multiply(X[p - 1], W, out=X[p])
    lead = G.reshape(G.shape[0], -1).T
    acc = (np.repeat(lead, 2, axis=0) if n == 1 else lead) @ X[:, 0]
    for c in range(1, n):
        acc = acc.reshape(G.shape[0], -1, B)
        acc *= X[:, c, None]
        acc = acc.sum(axis=0)
    return acc[0]


def coefficient(field_, component, alpha):
    """Stored coefficient of ``alpha`` in one component, 0j when absent."""
    return field_.components[component].get(tuple(alpha), 0j)


def indices_of_degree(basis, d):
    """range of basis positions whose total degree equals d."""
    return range(int(basis.degree_start[d]), int(basis.degree_start[d + 1]))


def decay_ratio(epsilon, basis):
    """Observed per-degree decay rate of the weight maxima: the
    geometric-mean ratio over a trailing window of even length, which is
    insensitive to parity alternation of the coupling chains."""
    return _maxima_ratio(degree_maxima(epsilon, basis))


def shift_index(alpha, component, gamma):
    """The coefficient exponent gamma - alpha + e_component, or None.

    Returns the multi-index beta such that a monomial of exponent alpha,
    hit by the coefficient beta in slot ``component`` of a vector field,
    lands on exponent gamma.  None when some slot would go negative.
    """
    if len(alpha) != len(gamma):
        raise ValueError("alpha and gamma must have the same length")
    if not 0 <= component < len(alpha):
        raise ValueError(f"component {component} out of range")
    beta = list(g - a for g, a in zip(gamma, alpha))
    beta[component] += 1
    if any(b < 0 for b in beta):
        return None
    return tuple(beta)


def entry(field_, basis, k, j):
    """Matrix element sum_l alpha_l(k) a_{l, beta_l} between basis
    positions k (row) and j (column), from the field's coefficients."""
    if not (1 <= k <= basis.size and 1 <= j <= basis.size):
        raise IndexError("basis positions run from 1 to basis.size")
    ak = basis.alpha(k)
    aj = basis.alpha(j)
    if sum(aj) < sum(ak):
        return 0j
    total = 0j
    for l in range(basis.dimension):
        if ak[l] == 0:
            continue
        beta = shift_index(ak, l, aj)
        if beta is None:
            continue
        coeff = field_.components[l].get(beta)
        if coeff is not None:
            total += ak[l] * coeff
    return total


def stored_entry(kmat, k, j):
    """Stored element (k, j) of a built matrix, 0j when not stored."""
    lo, hi = np.searchsorted(kmat.k, [k, k + 1])
    pos = lo + np.searchsorted(kmat.j[lo:hi], j)
    if pos < hi and kmat.j[pos] == j:
        return complex(kmat.v[pos])
    return 0j


def column_support(kmat):
    """Column j -> pairs (k, value) of its stored entries, k ascending."""
    columns = {}
    for k, j, v in zip(kmat.k.tolist(), kmat.j.tolist(), kmat.v.tolist()):
        columns.setdefault(j, []).append((k, v))
    return columns


def col_abs_sum(columns, j):
    """Absolute column sum sum_l |entry(l, j)| feeding basis position j,
    from the columns of ``column_support``."""
    return float(sum(abs(v) for _, v in columns.get(j, [])))


def row_abs_sum(kmat, field, k):
    """Absolute row sum sum_l alpha_l(k) ||F_l||_{l1} over the full basis,
    for the matrix ``kmat`` of ``field``."""
    ak = kmat.basis.alpha(k)
    return float(
        sum(
            ak[l] * field.l1_norm(l)
            for l in range(kmat.basis.dimension)
            if ak[l]
        )
    )


def q_value(op, scheme, j, k, include_scheme_factor=True):
    """Coupling ratio Q_jk for a pair k < j of one subsystem.

    With ``include_scheme_factor`` the scheme parameters enter (this is
    the quantity bounded by the certificate condition); without it the
    polynomial-scheme value is returned with the xi^2 factor removed,
    which is the scan quantity whose sup must stay below one.  The
    dominance forms are written as the condition rounds them: xi divides
    the entry before squaring, and kappa^2 multiplies the decay product;
    every square is the product t * t, as the scan takes it.
    """
    if not 1 <= k < j <= op.kmat.size:
        raise ValueError("need basis positions 1 <= k < j <= size")
    e = abs(stored_entry(op.kmat, k, j))
    if e == 0.0:
        return 0.0
    basis = op.kmat.basis
    denom = op.re_decay[j] * op.re_decay[k]
    if denom <= 0:
        raise ValueError("coupling ratio undefined: vanishing Re decay")
    dj, dk = basis.degree(j), basis.degree(k)
    n = basis.dimension
    if scheme.kind == "polynomial":
        t = op.coupling_count * e
        q = t * t / denom
        return q / scheme.xi**2 if include_scheme_factor else q
    if dj == dk:
        t = (n * n - n) / 2.0 * e
        if include_scheme_factor:
            t /= scheme.xi
        return t * t / denom
    sums = op.col_sums[j] * op.row_sums[k]
    if include_scheme_factor:
        return sums / (scheme.kappa**2 * op.re_decay[j] * op.re_decay[k])
    return sums / denom


def epsilon_walk(ops, basis, scheme, eta=0.5, rho=1.0):
    """The weight recursion of ``epsilon_sequence`` walked one basis
    position at a time, with a running Python max per degree; returns what
    ``epsilon_sequence`` does."""
    M = basis.size
    p = coupling_scan(ops, basis, scheme)
    q_sup, _, q_by_degree = _sup_by_degree(p, p.q, basis)
    q_est, _ = _extrapolate(q_by_degree)
    bound = max(q_sup, q_est) * rho * rho
    if bound > 0:
        eta_eff = min(eta, max(ETA_FLOOR, 0.5 * (1.0 / bound - 1.0)))
    else:
        eta_eff = eta
    order = np.argsort(p.j, kind="stable")
    source, q = p.k[order], p.q[order]
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


def degree_maxima_walk(epsilon, basis):
    """Largest weight at each total degree 1..max_degree, by a Python max
    over each degree's weights in basis order."""
    out = np.zeros(basis.max_degree + 1)
    for d in range(1, basis.max_degree + 1):
        idx = indices_of_degree(basis, d)
        out[d] = max(epsilon[k - 1] for k in idx)
    return out[1:]
