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

from dataclasses import dataclass, field

import numpy as np

from .multiindex import shift_index


def entry(field_, basis, k, j):
    """Single matrix element between basis positions k (row) and j (column)."""
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
    _columns: dict = field(default=None, repr=False)

    @property
    def size(self):
        return self.basis.size

    def entry(self, k, j):
        cols, vals = self.rows[k - 1]
        pos = np.searchsorted(cols, j)
        if pos < len(cols) and cols[pos] == j:
            return complex(vals[pos])
        return 0j

    def diagonal(self):
        return np.array([self.entry(k, k) for k in range(1, self.size + 1)])

    def to_dense(self):
        M = self.size
        out = np.zeros((M, M), dtype=complex)
        for k in range(1, M + 1):
            cols, vals = self.rows[k - 1]
            out[k - 1, cols - 1] = vals
        return out

    def column_support(self, j):
        """Pairs (k, value) of nonzero entries in column j."""
        if self._columns is None:
            columns = {}
            for k in range(1, self.size + 1):
                cols, vals = self.rows[k - 1]
                for c, v in zip(cols, vals):
                    columns.setdefault(int(c), []).append((k, complex(v)))
            self._columns = columns
        return self._columns.get(j, [])

    def verify_triangular(self, tol=0.0):
        """True when every stored entry below the diagonal is within tol of 0."""
        for k in range(1, self.size + 1):
            cols, vals = self.rows[k - 1]
            below = cols < k
            if np.any(np.abs(vals[below]) > tol):
                return False
        return True

    def row_abs_sum(self, k):
        """Absolute row sum over the full infinite basis,

            sum_j |entry(k, j)| <= sum_l alpha_l(k) * ||F_l||_{l1},

        evaluated with exact component norms (tail_l1 aware).  Equality
        holds when no two coefficients of one component land on the same
        target, which is the case for the families treated here.
        """
        ak = self.basis.alpha(k)
        return float(
            sum(
                ak[l] * self.field_ref.l1_norm(l)
                for l in range(self.basis.dimension)
                if ak[l]
            )
        )

    def col_abs_sum(self, j):
        """Absolute column sum sum_l |entry(l, j)| feeding basis position j.

        Exact under truncation: contributors satisfy |alpha(l)| <= |alpha(j)|
        and therefore all lie inside the basis.
        """
        return float(sum(abs(v) for _, v in self.column_support(j)))


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


def diagonal_eigenvalues(kmat, linear_diag):
    """Eigenvalues sum_l alpha_l(k) * lambda_l of the triangular generator.

    ``linear_diag`` holds the diagonal linear coefficients lambda_l of the
    field.  The result is cross-checked against the stored diagonal; a
    mismatch beyond 1e-12 (relative) means the matrix was not built from a
    Jacobian-triangular field.
    """
    lam = np.asarray(linear_diag, dtype=complex)
    basis = kmat.basis
    exps = basis.exponents[1:]
    values = exps @ lam
    stored = kmat.diagonal()
    scale = max(1.0, float(np.max(np.abs(values))))
    err = float(np.max(np.abs(values - stored)))
    if err > 1e-12 * scale:
        raise ValueError(
            f"diagonal mismatch {err:.3e}: generator matrix is not the "
            "triangular form implied by the supplied linear diagonal"
        )
    return values


def _fmt_complex(z):
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def export_dense_csv(kmat, fh):
    """Write the dense matrix as CSV with entries formatted 're+imi'."""
    dense = kmat.to_dense()
    M = kmat.size
    header = ["row_index"] + [
        "m" + "_".join(str(a) for a in kmat.basis.alpha(j))
        for j in range(1, M + 1)
    ]
    fh.write(",".join(header) + "\n")
    for k in range(1, M + 1):
        cells = [str(k)] + [_fmt_complex(dense[k - 1, j]) for j in range(M)]
        fh.write(",".join(cells) + "\n")
