"""Matrix Lie algebra tools: bracket closure, solvability, common flags.

A family of Jacobians generates a matrix Lie algebra; when that algebra is
solvable the family can be brought to simultaneous upper-triangular form
by a unitary change of basis, found here by repeatedly extracting a common
eigenvector and deflating.
"""

from functools import cache
from typing import NamedTuple

import numpy as np


class NotSimultaneouslyTriangularizable(RuntimeError):
    """No common invariant flag exists for the given matrices."""


def _bracket(X, Y):
    return X @ Y - Y @ X


def _orthonormal_rows(vectors, tol):
    """Orthonormal basis (rows) of the span of the given stacked rows."""
    if len(vectors) == 0:
        return np.zeros((0, 0), dtype=complex)
    M = np.asarray(vectors, dtype=complex)
    if not M.any():
        return M[:0]
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return vh[:rank]


def _bracket_span(rows, n, tol, keep=()):
    """Orthonormal rows spanning the rows ``keep`` and the brackets of
    every pair of the vectorised n x n matrices ``rows``."""
    mats = [r.reshape(n, n) for r in rows]
    brackets = [
        _bracket(mats[i], mats[j]).ravel()
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
    ]
    return _orthonormal_rows([*keep, *brackets], tol)


class MatrixLieAlgebra(NamedTuple):
    """Bracket closure of a set of generator matrices: ``rows`` is an
    orthonormal basis of its vectorised size x size matrices, one per
    row."""

    rows: np.ndarray
    size: int  # ambient matrix size n

    @property
    def dim(self):
        return len(self.rows)


def close_under_bracket(generators, tol=1e-10):
    """Smallest matrix Lie algebra containing the generators.

    Iterates bracket-and-span until the dimension stabilizes; the span is
    tracked through an orthonormal basis of vectorized matrices so the
    result does not depend on generator order or scaling direction.
    """
    generators = [np.asarray(g, dtype=complex) for g in generators]
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].shape[0]
    if any(g.shape != (n, n) for g in generators):
        raise ValueError("generators must be square matrices of equal size")
    rows = _orthonormal_rows([g.ravel() for g in generators], tol)
    for _ in range(n * n + 1):
        if len(rows) < 2:  # one matrix brackets to zero with itself
            break
        rows, dim = _bracket_span(rows, n, tol, keep=rows), len(rows)
        if len(rows) == dim:
            break
    return MatrixLieAlgebra(rows, n)


def is_solvable(algebra, tol=1e-10):
    """Whether the derived series of the algebra reaches zero.

    Returns ``(verdict, dims)`` where dims lists the derived-series
    dimensions starting from the algebra itself.
    """
    rows = algebra.rows
    dims = [algebra.dim]
    while dims[-1] > 0:
        rows = _bracket_span(rows, algebra.size, tol)
        dims.append(rows.shape[0])
        if dims[-1] >= dims[-2] and dims[-1] > 0:
            return False, dims
    return True, dims


def _canonical_phase(v):
    """Scale a unit vector so its largest-magnitude entry is real positive."""
    i = int(np.argmax(np.abs(v)))
    a = v[i]
    if a == 0:
        return v
    phase = a / abs(a)
    return v * np.conj(phase)


def _eig_clusters(B, tol):
    """Eigenvalue clusters of B with orthonormal eigenspace bases.

    Clusters are ordered by (real, imag) of their representative value so
    the search below is deterministic.
    """
    vals, vecs = np.linalg.eig(B)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    clusters = []
    for i in order:
        placed = False
        for rep, members in clusters:
            if abs(vals[i] - rep) <= tol * scale:
                members.append(i)
                placed = True
                break
        if not placed:
            clusters.append((vals[i], [i]))
    out = []
    for rep, members in clusters:
        cols = vecs[:, members].T  # rows
        basis = _orthonormal_rows(cols, 1e-12)
        out.append((rep, basis.T))  # columns orthonormal
    return out


def _intersect(U, V, tol):
    """Intersection of two column-orthonormal subspaces via principal angles."""
    if U.shape[1] == 0 or V.shape[1] == 0:
        return U[:, :0]
    M = U.conj().T @ V
    lu, s, _ = np.linalg.svd(M, full_matrices=False)
    keep = s > 1.0 - tol
    if not np.any(keep):
        return U[:, :0]
    W = U @ lu[:, keep]
    return _orthonormal_rows(W.T, 1e-12).T


def _common_eigenvector(mats, cluster_tol, angle_tol):
    """A unit vector lying in one eigenspace of every matrix, or None.

    Eigenvalue clusters are searched in ascending real part.
    """
    d = mats[0].shape[0]
    cluster_sets = [_eig_clusters(B, cluster_tol) for B in mats]

    def search(depth, space):
        if space.shape[1] == 0:
            return None
        if depth == len(cluster_sets):
            return space[:, 0]
        for _, eigspace in cluster_sets[depth]:
            inter = _intersect(space, eigspace, angle_tol)
            got = search(depth + 1, inter)
            if got is not None:
                return got
        return None

    v = search(0, np.eye(d, dtype=complex))
    if v is None:
        return None
    return _canonical_phase(v / np.linalg.norm(v))


def _extend_to_unitary(v):
    """Unitary matrix whose first column is exactly v."""
    d = v.shape[0]
    A = np.concatenate([v.reshape(-1, 1), np.eye(d, dtype=complex)], axis=1)
    Q, _ = np.linalg.qr(A)
    U = np.empty((d, d), dtype=complex)
    U[:, 0] = v
    for c in range(1, d):
        col = Q[:, c]
        col = col - v * (v.conj() @ col)  # re-project; Q[:,0] is v up to phase
        nrm = np.linalg.norm(col)
        col = col / nrm
        U[:, c] = _canonical_phase(col)
    return U


class TriangularizationResult(NamedTuple):
    """Common flag data: T_i = P^{-1} A_i P upper triangular.

    P is a positive multiple of a unitary matrix, scaled so that the
    max-row-sum norm of P^{-1} equals one; ``flag_basis`` holds the
    underlying orthonormal flag columns.
    """

    P: np.ndarray
    P_inv: np.ndarray
    T_list: tuple
    eigenvalues: tuple  # diag of each T_i
    residual: float
    cond_P: float
    flag_basis: np.ndarray


@cache
def _below_diagonal(n):
    """Row and column indices of the strict lower triangle of n x n."""
    return np.tril_indices(n, -1)


def _inf_norm(A):
    """``np.linalg.norm(A, np.inf)``: the largest row sum of |A|, added in
    the same order, without the dispatch."""
    return np.abs(A).sum(axis=1).max(initial=0)


def simultaneous_triangularize(matrices):
    """Common upper-triangularization of a family of matrices.

    Works by iterated common-eigenvector extraction and unitary deflation.
    A stage whose blocks all have an exactly zero first column below the
    diagonal keeps its basis: its first axis is common, so coordinates
    that already carry a common flag stay as they are, and a family of
    upper triangular matrices comes back as it went in.
    Raises NotSimultaneouslyTriangularizable when some deflation stage
    admits no common eigenvector (e.g. a family generating sl2).
    """
    mats = [np.asarray(A, dtype=complex) for A in matrices]
    n = mats[0].shape[0]
    if any(A.shape != (n, n) for A in mats):
        raise ValueError("matrices must be square and of equal size")
    scale = max(1.0, max(_inf_norm(A) for A in mats))
    flag = None  # the identity until a stage rotates
    work = mats
    for stage in range(n - 1):
        d = n - stage
        blocks = [A[stage:, stage:] for A in work]
        if not any(B[1:, 0].any() for B in blocks):
            continue
        v = _common_eigenvector(blocks, cluster_tol=1e-8, angle_tol=1e-8)
        if v is None:
            raise NotSimultaneouslyTriangularizable(
                f"no common eigenvector at deflation stage {stage} "
                f"(block size {d}); the generated algebra is not solvable "
                "to working precision"
            )
        if np.linalg.norm(v - np.eye(d, dtype=complex)[:, 0]) < 1e-14:
            U = np.eye(d, dtype=complex)
        else:
            U = _extend_to_unitary(v)
        full = np.eye(n, dtype=complex)
        full[stage:, stage:] = U
        flag = (np.eye(n, dtype=complex) if flag is None else flag) @ full
        work = [full.conj().T @ A @ full for A in work]
    below = _below_diagonal(n)
    residual = 0.0
    T_list = []
    for A in work:
        T = A.copy()
        if n > 1:
            residual = max(residual, float(np.abs(T[below]).max()))
        T[below] = 0
        T_list.append(T)
    if residual > 1e-6 * scale:
        raise NotSimultaneouslyTriangularizable(
            f"deflation left a sub-diagonal residual {residual:.3e} "
            f"(matrix scale {scale:.3e}); flag construction is inconsistent"
        )
    eigs = tuple(T.diagonal().copy() for T in T_list)
    if flag is None:
        flag, c = np.eye(n, dtype=complex), 1.0
    else:
        c = float(_inf_norm(flag.T))  # = ||flag^{-1}||_inf
    P = c * flag
    P_inv = flag.conj().T / c
    return TriangularizationResult(
        P=P,
        P_inv=P_inv,
        T_list=tuple(T_list),
        eigenvalues=eigs,
        residual=residual,
        cond_P=float(np.linalg.cond(P)),
        flag_basis=flag,
    )


def linear_clf(tri, eta=0.5):
    """Weights for a quadratic common Lyapunov function on a common flag.

    Given T_i = V^dagger A_i V upper triangular with Hurwitz diagonals and
    orthonormal flag columns v_1..v_n, returns weights eps so that
    V(x) = sum_j eps_j |v_j^dagger x|^2 strictly decreases along every
    subsystem.  Each weight exceeds the coupling budget of earlier ones:

        eps_j > eps_k (n-1)^2/4 |T_i[k,j]|^2 / (|Re T_i[j,j]| |Re T_i[k,k]|)

    with headroom factor (1 + eta); rows with no coupling get weight 1.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    T_list = tri.T_list
    n = T_list[0].shape[0]
    for T in T_list:
        if np.any(np.diag(T).real >= 0):
            raise ValueError("linear_clf requires Hurwitz triangular factors")
    eps = np.zeros(n)
    eps[0] = 1.0
    factor = (n - 1) ** 2 / 4.0
    for j in range(1, n):
        cand = 0.0
        for T in T_list:
            rej = abs(T[j, j].real)
            for k in range(j):
                if T[k, j] == 0:
                    continue
                rek = abs(T[k, k].real)
                cand = max(
                    cand, eps[k] * factor * abs(T[k, j]) ** 2 / (rej * rek)
                )
        eps[j] = 1.0 if cand == 0.0 else (1.0 + eta) * cand
    return eps, tri.flag_basis.copy()
