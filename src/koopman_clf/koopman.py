"""Truncated matrix of the Koopman generator in the monomial basis.

For a field F the generator acts on observables by f -> F . grad f.  Its
matrix element between basis monomials k (source row) and j (target
column) is

    entry(k, j) = sum_l alpha_l(k) * a_{l, beta_l},
    beta_l = alpha(j) - alpha(k) + e_l,

and vanishes whenever |alpha(j)| < |alpha(k)|: the generator never lowers
total degree, so the matrix is block upper triangular by degree.  Entries
are exact sums of products of stored coefficients.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class KoopmanMatrix:
    """Sparse-by-rows truncated generator matrix.

    ``rows[k - 1]`` holds ``(columns, values)`` for source monomial k; the
    stored support covers every (k, j) pair inside the basis exactly.
    ``exact_degree`` is the largest d such that rows of total degree <= d
    lose no entries to basis truncation.
    """

    basis: object
    field_ref: object
    rows: tuple
    exact_degree: int

    @property
    def size(self):
        return self.basis.size

    def to_dense(self):
        M = self.size
        out = np.zeros((M, M), dtype=complex)
        for k in range(1, M + 1):
            cols, vals = self.rows[k - 1]
            out[k - 1, cols - 1] = vals
        return out


def build_matrix(field_, basis):
    """Assemble the truncated generator matrix of ``field_`` on ``basis``."""
    if field_.dimension != basis.dimension:
        raise ValueError("field and basis dimensions differ")
    M = basis.size
    rows = []
    for k in range(1, M + 1):
        ak = basis.alpha(k)
        acc = {}
        for l in range(basis.dimension):
            if ak[l] == 0:
                continue
            for beta, a in field_.components[l].items():
                gamma = tuple(
                    g + b - (1 if s == l else 0)
                    for s, (g, b) in enumerate(zip(ak, beta))
                )
                if sum(gamma) > basis.max_degree:
                    continue
                j = basis.index_of(gamma)
                val = acc.get(j, 0j) + ak[l] * a
                if val == 0:
                    acc.pop(j, None)
                else:
                    acc[j] = val
        cols = np.array(sorted(acc), dtype=np.int64)
        vals = np.array([acc[int(c)] for c in cols], dtype=complex)
        rows.append((cols, vals))
    exact = max(0, basis.max_degree - field_.degree + 1)
    return KoopmanMatrix(basis, field_, tuple(rows), exact)
