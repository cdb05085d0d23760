"""Multi-index bookkeeping for the monomial basis of the polydisk Hardy space.

Multi-indices are plain tuples of non-negative ints.  The basis over n
variables up to total degree N is ordered degree first; within a degree,
the index whose exponent is larger at the smallest differing slot comes
first, so for n = 2, degree 2 the order is (2,0), (1,1), (0,2).

Positions have a closed form in the combinatorial number system: with S_i
the sum of the last i exponents of alpha,

    position(alpha) = sum_{i=1..n} C(S_i + i - 1, i).

The term i = n counts the indices of lower total degree; the term i < n
counts those of the same degree and the same leading slots that come
first because their exponent at slot n - i - 1 is larger.  So degree d
starts at C(d + n - 1, n).  ``build_basis`` lists every index of degree
at most N slot by slot, in no particular order, and writes each one to
its position.
"""

import math
from dataclasses import dataclass, field

import numpy as np


def order_key(alpha):
    """Sort key realizing the basis order (degree, then descending slots)."""
    return (sum(alpha), tuple(-a for a in alpha))


def checked_int(name, value, low):
    """``value`` when it is an integer (a Python or numpy int, not a bool)
    of at least ``low``; ValueError naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


@dataclass(frozen=True)
class MultiIndexBasis:
    """All multi-indices with |alpha| <= max_degree in basis order.

    Row 0 of ``exponents`` is the zero index (constant monomial); the
    operator-facing indices run 1..size.
    """

    dimension: int
    max_degree: int
    exponents: np.ndarray
    _binomial: np.ndarray = field(repr=False)  # C(m, i), m < N + n, i <= n
    degree_start: np.ndarray

    @property
    def size(self):
        """Number of non-constant basis monomials."""
        return self.exponents.shape[0] - 1

    def alpha(self, k):
        return tuple(int(a) for a in self.exponents[k])

    def degree(self, k):
        return int(self.exponents[k].sum())

    def index_of(self, alpha):
        """Basis position of ``alpha``, or None when |alpha| > max_degree."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dimension:
            raise ValueError(
                f"multi-index has {len(alpha)} slots, basis has {self.dimension}"
            )
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative exponent in {alpha}")
        if sum(alpha) > self.max_degree:
            return None
        return int(self.positions(np.array([alpha]))[0])

    def positions(self, alphas):
        """Basis positions of an (m, n) integer array of multi-indices,
        each of total degree at most max_degree."""
        n = self.dimension
        suffix = alphas[:, n - 1].copy()
        out = self._binomial[suffix, 1]
        for i in range(2, n + 1):
            suffix += alphas[:, n - i]
            out += self._binomial[suffix + (i - 1), i]
        return out

    def count_of_degree(self, d):
        """Number of monomials of exact total degree d (any d >= 0)."""
        return math.comb(d + self.dimension - 1, self.dimension - 1)


def build_basis(dimension, max_degree):
    """Enumerate the basis for ``dimension`` variables up to ``max_degree``."""
    n = checked_int("dimension", dimension, 1)
    N = checked_int("max_degree", max_degree, 1)
    # partial indices over the slots so far, with the degree each has left:
    # every partial index is repeated once per value 0..left of the next slot
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([N], dtype=np.int64)
    for _ in range(n):
        repeat = left + 1
        parent = np.repeat(np.arange(len(left)), repeat)
        value = np.arange(len(parent)) - np.repeat(np.cumsum(repeat) - repeat, repeat)
        rows = np.column_stack([rows[parent], value])
        left = left[parent] - value
    binomial = np.array(
        [[math.comb(m, i) for i in range(n + 1)] for m in range(N + n)],
        dtype=np.int64,
    )
    basis = MultiIndexBasis(
        n,
        N,
        np.empty_like(rows),
        binomial,
        np.array([math.comb(d + n - 1, n) for d in range(N + 2)]),
    )
    basis.exponents[basis.positions(rows)] = rows
    return basis
