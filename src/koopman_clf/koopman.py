"""Truncated matrix of the Koopman generator in the monomial basis.

For a field F the generator acts on observables by f -> F . grad f.  Its
matrix element between basis monomials k (source row) and j (target
column) is

    entry(k, j) = sum_l alpha_l(k) * a_{l, beta_l},
    beta_l = alpha(j) - alpha(k) + e_l,

and vanishes whenever |alpha(j)| < |alpha(k)|: the generator never lowers
total degree, so the matrix is block upper triangular by degree.  Entries
are exact sums of products of stored coefficients.

The matrix is held as one set of coordinate arrays (k, j, v) with 1-based
basis positions, built for every stored term of the field at once.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class KoopmanMatrix:
    """Truncated generator matrix as coordinate arrays.

    Entry ``v[t]`` sits at row ``k[t]``, column ``j[t]`` (basis positions
    1..size), sorted by (k, j); the stored support covers every (k, j)
    pair inside the basis exactly, without exact zeros.

    ``rows`` remains only as a read-only split of the arrays into per-row
    views, for readers outside the package that walk the matrix row by
    row with 1-based columns (``benchmarks/tracer.py`` counts entries
    through it).
    """

    basis: object
    k: np.ndarray
    j: np.ndarray
    v: np.ndarray

    @property
    def size(self):
        return self.basis.size

    @property
    def rows(self):
        """``rows[k - 1]`` is the pair (columns, values) of row k, as views."""
        cuts = np.searchsorted(self.k, np.arange(2, self.size + 1))
        return tuple(zip(np.split(self.j, cuts), np.split(self.v, cuts)))

    def to_dense(self):
        out = np.zeros((self.size, self.size), dtype=complex)
        out[self.k - 1, self.j - 1] = self.v
        return out


def build_matrix(field_, basis):
    """Assemble the truncated generator matrix of ``field_`` on ``basis``.

    A stored term a z^beta of component l takes every source k with
    alpha_l(k) > 0 to the target alpha(k) + beta - e_l, kept while its
    degree stays within the basis, and contributes alpha_l(k) a there.
    The contributions are laid out term after term, so those that meet at
    one (k, j) come in the order of l, then of the component's stored
    terms; ``np.add.at`` sums them from 0j in that order.  Exact-zero sums
    are dropped.
    """
    if field_.dimension != basis.dimension:
        raise ValueError("field and basis dimensions differ")
    exps = basis.exponents
    degree = exps.sum(axis=1)
    # seeded with empty arrays: a field without terms gives an empty matrix
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
