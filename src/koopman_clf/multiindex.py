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
first because their exponent at slot n - i - 1 is larger.
"""

import math
from dataclasses import dataclass, field

import numpy as np


def order_key(alpha):
    """Sort key realizing the basis order (degree, then descending slots)."""
    return (sum(alpha), tuple(-a for a in alpha))


def _compositions(nslots, total):
    # descending first slot, recursively: exactly the within-degree order
    if nslots == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(nslots - 1, total - head):
            yield (head,) + rest


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
        suffix = np.cumsum(alphas[:, ::-1], axis=1)
        i = np.arange(1, self.dimension + 1)
        return self._binomial[suffix + i - 1, i].sum(axis=1)

    def count_of_degree(self, d):
        """Number of monomials of exact total degree d (any d >= 0)."""
        return math.comb(d + self.dimension - 1, self.dimension - 1)


def build_basis(dimension, max_degree):
    """Enumerate the basis for ``dimension`` variables up to ``max_degree``."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    rows = []
    starts = [0]
    for d in range(max_degree + 1):
        rows.extend(_compositions(dimension, d))
        starts.append(len(rows))
    exps = np.array(rows, dtype=np.int64)
    binomial = np.array(
        [[math.comb(m, i) for i in range(dimension + 1)]
         for m in range(max_degree + dimension)],
        dtype=np.int64,
    )
    return MultiIndexBasis(dimension, max_degree, exps, binomial, np.array(starts))

