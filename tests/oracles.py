"""Per-entry reference formulas for the generator matrix, the coupling
ratios and the weight recursion.

The library builds each truncated generator matrix once, as arrays
(k, j, v) of its stored entries, and runs the certificate on them.  The
functions here compute the same quantities one entry, one column, one
pair or one basis position at a time; the tests hold the library to them.
The small constructors and lookups at the top are used only by tests:
``field_step`` steps a batch under one field in a scratch of its own,
``field_values`` evaluates one field by ``evaluate_batch``,
``unit_clf`` is the certificate whose V is |z|^2, ``lie_bracket`` is
the bracket of two fields on their exact coefficients, and ``to_dense``
spreads a generator matrix's (k, j, v) arrays into a dense array.
``evaluate_batch`` is the field evaluator the library had before its
points-last kernel, and ``dense_value_batch`` the V evaluator it had
before its scratch; each is kept as its successor's bit-exact reference.
``reference_rk4`` is the RK4 step of a family built on
``evaluate_batch``, the reference of the step a scratch plans.
``sorted_build_matrix`` is the generator matrix builder the library had
before its shift groups, kept as ``build_matrix``'s bit-exact reference.
``two_form_convergence_check`` and ``dominance_xi_min_array`` are the
convergence tail and the dominance bound the library had before its one
tail formula and its walk over the pairs, and ``decimal_tail`` is the
series that the library's tail bounds, summed to 50 digits.
"""

import decimal
import math
import sys
from fractions import Fraction

import numpy as np

from koopman_clf.certificate import (
    EPSILON_FLOOR,
    ETA_FLOOR,
    TAIL_DEGREE_CAP,
    ConvergenceResult,
    _extrapolate,
    _maxima_ratio,
    _sup_by_degree,
    coupling_scan,
    degree_maxima,
)
from koopman_clf.kernels import CommonLyapunovFunction, FieldScratch, flow_step
from koopman_clf.koopman import KoopmanMatrix
from koopman_clf.multiindex import build_basis, order_key
from koopman_clf.vectorfield import PolyVectorField, add_terms, poly_mul


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


def _poly_diff(table, slot):
    out = {}
    for alpha, v in table.items():
        if alpha[slot] == 0:
            continue
        beta = list(alpha)
        beta[slot] -= 1
        out[tuple(beta)] = v * alpha[slot]
    return out


def lie_bracket(F, G):
    """Bracket [F, G] = JG . F - JF . G, computed on exact coefficients."""
    if F.dimension != G.dimension:
        raise ValueError("fields live on different spaces")
    n = F.dimension
    comps = []
    for l in range(n):
        acc = {}
        for s in range(n):
            plus = poly_mul(_poly_diff(G.components[l], s), F.components[s])
            minus = poly_mul(_poly_diff(F.components[l], s), G.components[s])
            add_terms(acc, plus.items())
            add_terms(acc, ((k, -v) for k, v in minus.items()))
        comps.append(acc)
    return PolyVectorField(comps)


def field_scratch(field_, rows):
    """A new ``FieldScratch`` of ``rows`` rows over the one field, every
    row selected."""
    return FieldScratch([field_], rows).select(np.zeros(rows, dtype=int))


def field_step(field_, z, dt):
    """``flow_step`` of a batch (B, n) under one field, in a new scratch of
    the field for its rows."""
    return flow_step(field_scratch(field_, len(z)), z, dt)


def field_values(field_, z):
    """F at one point (n,) or a batch (B, n) under one field, by
    ``evaluate_batch``; the values have the shape of z."""
    z = np.asarray(z, dtype=complex)
    return evaluate_batch(field_, z.reshape(-1, field_.dimension)).reshape(z.shape)


def unit_clf(n):
    """The certificate V(z) = |z|^2 in dimension n: unit weights at degree
    1 and P = I.  Its flag coordinates of a finite state are the state,
    so the moduli it leaves are |z| bit for bit."""
    return CommonLyapunovFunction(np.ones(n), np.eye(n), build_basis(n, 1))


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
    pows = pows.reshape((top + 1) * n, B)
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


def to_dense(kmat):
    """The truncated generator matrix ``kmat`` as a dense complex array."""
    out = np.zeros((kmat.size, kmat.size), dtype=complex)
    out[kmat.k - 1, kmat.j - 1] = kmat.v
    return out


def sorted_build_matrix(field_, basis):
    """The truncated generator matrix of ``field_`` on ``basis`` from an
    unordered coordinate list, one position lookup per stored term.

    A stored term a z^beta of component l takes every source k with
    alpha_l(k) > 0 to the target alpha(k) + beta - e_l, kept while its
    degree stays within the basis, and contributes alpha_l(k) a there.
    The contributions are laid out term after term, so those that meet at
    one (k, j) come in the order of l, then of the component's stored
    terms; ``np.unique`` sorts the (k, j) keys and ``np.add.at`` sums them
    from 0j in that order.  Exact-zero sums are dropped.
    """
    exps = basis.exponents
    degree = exps.sum(axis=1)
    empty = np.zeros(0, np.int64)
    ks, js, vs = [empty], [empty], [np.zeros(0, complex)]
    for l in range(basis.dimension):
        sources = np.flatnonzero(exps[:, l])
        for beta, a in field_.components[l].items():
            shift = np.array(beta, dtype=np.int64)
            shift[l] -= 1
            k = sources[degree[sources] + shift.sum() <= basis.max_degree]
            ks.append(k)
            js.append(basis.positions(exps[k] + shift))
            vs.append(exps[k, l] * a)
    width = basis.size + 1
    keys, slot = np.unique(
        np.concatenate(ks) * width + np.concatenate(js), return_inverse=True
    )
    v = np.zeros(len(keys), dtype=complex)
    np.add.at(v, slot, np.concatenate(vs))
    keep = v != 0
    k, j = np.divmod(keys[keep], width)
    return KoopmanMatrix(basis, k, j, v[keep])


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


def two_form_convergence_check(epsilon, basis, rho):
    """The convergence check the library had before its one tail formula.

    A tail term is the direct product count * d * m_N * r^(d-N) * rho^(2d)
    while its powers are normal floats, and the same term regrouped as
    m_N rho^(2N) (r rho^2)^(d-N) once r^(d-N) would overflow or rho^(2d)
    underflow; each degree's count is its own binomial.  The regrouped
    term carries the rounding delta of r rho^2 to first order, since the
    rounded power alone is off by (d - N) ulp, up to 5e-13 relative where
    r rho^2 is near 1.  At the degree cap it gives the library's verdict.
    """
    epsilon = np.asarray(epsilon, dtype=float)
    degrees = basis.exponents[1:].sum(axis=1)
    powers = np.array([rho ** (2 * d) for d in range(basis.max_degree + 1)])
    partial = float(np.sum(degrees * epsilon * powers[degrees]))
    m = degree_maxima(epsilon, basis)
    r = _maxima_ratio(m)
    N = basis.max_degree
    m_ref = float(max(m[N - 1], m[N - 2] if N >= 2 else m[N - 1]))
    x = r * rho * rho
    if not x < 1.0:
        return ConvergenceResult(partial, float("inf"), r, False)
    base = m_ref * rho ** (2 * N)
    delta = float(Fraction(r) * Fraction(rho) ** 2 / Fraction(x) - 1) if x else 0.0
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
            term = count * d * base * x ** (d - N) * (1.0 + (d - N) * delta)
        tail += term
        if term < 1e-22 * scale and d > N + 4:
            return ConvergenceResult(partial, tail, r, True)
        d += 1
    # at the cap, a term ratio not below one fails the series, as it does
    # in the library
    q = x * (d + basis.dimension) / d
    return ConvergenceResult(partial, tail if q < 1 else math.inf, r, q < 1)


def decimal_tail(epsilon, basis, rho):
    """The series that ``convergence_check``'s ``tail_bound`` bounds, in
    50-digit ``decimal``: sum over d > N of count_d d m_N rho^(2N)
    (r rho^2)^(d - N), with the library's decay ratio r and degree-N
    maximum m_N taken exactly.  Each term is the last times its ratio
    q = r rho^2 (d + n) / d, and the sum stops once the geometric bound
    of the rest, term q / (1 - q), is below 1e-40 of it.  Returns the sum
    and that bound at the ``TAIL_DEGREE_CAP``-th degree past N, where
    the library's sum ends at the latest (0 when this one ends first)."""
    m = degree_maxima(np.asarray(epsilon, dtype=float), basis)
    r = _maxima_ratio(m)
    N, n = basis.max_degree, basis.dimension
    m_ref = float(max(m[N - 1], m[N - 2] if N >= 2 else m[N - 1]))
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 50, 10**6, -(10**6)
        x = D(r) * D(rho) * D(rho)
        assert x < 1, "the series diverges"
        base = D(m_ref) * D(rho) ** (2 * N)
        term = basis.count_of_degree(N + 1) * (N + 1) * base * x
        total, d, beyond_cap = D(0), N + 1, D(0)
        while True:
            total += term
            q = x * (d + n) / d
            if d - N == TAIL_DEGREE_CAP:
                beyond_cap = term * q / (1 - q)
            if q < 1 and term * q < D("1e-40") * (1 - q) * total:
                return total, beyond_cap
            term, d = term * q, d + 1


def dominance_xi_min_array(jacobians):
    """``dominance_xi_min`` as the library had it: one array pass over every
    subsystem and every upper pair (q, r) of its Jacobian."""
    J = np.asarray(jacobians, dtype=complex)
    q, r = np.triu_indices(J.shape[1], 1)
    D = float(len(q))  # (n^2 - n) / 2
    a = np.hypot(J.real[:, q, r], J.imag[:, q, r])
    on = a != 0
    a, req, rer = a[on], np.abs(J[:, q, q].real)[on], np.abs(J[:, r, r].real)[on]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        worst = np.maximum(D * a / req, D * a / np.sqrt(req * rer))
    return float(np.max(worst, initial=0.0))
