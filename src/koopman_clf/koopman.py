"""Truncated matrix of the Koopman generator in the monomial basis.

For a field F the generator acts on observables by f -> F . grad f.  Its
matrix element between basis monomials k (source row) and j (target
column) is

    entry(k, j) = sum_l alpha_l(k) * a_{l, beta_l},
    beta_l = alpha(j) - alpha(k) + e_l,

and vanishes whenever |alpha(j)| < |alpha(k)|: the generator never lowers
total degree, so the matrix is block upper triangular by degree.  Entries
are exact sums of products of stored coefficients.

A stored term a z^beta of F_l moves every monomial alpha to alpha + s,
with the one shift s = beta - e_l.  So the matrix is a few shifted
diagonals of the basis, one per distinct shift, and it is built that
way: one row of a table per shift, one column per source, read out as
coordinate arrays (k, j, v) with 1-based basis positions.
"""

from dataclasses import dataclass

import numpy as np

from .multiindex import order_key


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


def build_matrix(field_, basis):
    """Assemble the truncated generator matrix of ``field_`` on ``basis``.

    The stored terms are grouped by their shift s = beta - e_l, one per
    component at most, as s and l fix beta.  Only terms of one group meet
    at a (k, j): the target alpha(k) + s is injective in s.  Group g fills
    row g of a zero (G, size + 1) table over the sources k: a term of F_l
    adds alpha_l(k) a, so every entry is summed from 0j in the order of l.
    Where alpha_l(k) = 0 the term adds a signed zero (coefficients are
    finite), which leaves a sum from 0j bit for bit as it was.  The
    sources whose target stays within degree N are the prefix
    k < degree_start[N + 1 - |s|].

    The shifts are sorted by ``order_key``.  For a fixed source the
    targets alpha(k) + s then come in basis order too, since adding
    alpha(k) keeps both the degree and the descending-slot comparison;
    so the transposed (size + 1, G) table read row-major is in (k, j)
    order.  Its exact zeros are dropped: cancelled sums, and the sources
    no term reaches.
    """
    if field_.dimension != basis.dimension:
        raise ValueError("field and basis dimensions differ")
    N = basis.max_degree
    groups = {}
    for l, component in enumerate(field_.components):
        for beta, a in component.items():
            shift = list(beta)
            shift[l] -= 1
            groups.setdefault(tuple(shift), []).append((l, a))
    shifts = sorted(groups, key=order_key)
    exps = basis.exponents
    table = np.zeros((len(shifts), len(exps)), dtype=complex)
    for row, shift in zip(table, shifts):
        degree = sum(shift)
        end = basis.degree_start[N + 1 - degree] if degree <= N else 0
        for l, a in groups[shift]:
            row[:end] += exps[:end, l] * a
    flat = table.T.ravel()
    keep = np.flatnonzero(flat)
    k, g = np.divmod(keep, len(shifts))
    moves = np.array(shifts, dtype=np.int64).reshape(-1, basis.dimension)
    j = basis.positions(np.take(exps, k, axis=0) + np.take(moves, g, axis=0))
    return KoopmanMatrix(basis, k, j, flat[keep])
