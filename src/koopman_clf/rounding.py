"""The one error model behind every outward-rounded float of a certificate.

A float computation returns v for a real T, a sum of products.  Every
operation rounds to nearest, off by at most u = 2^-53 relative or 2^-1075
absolute where it underflows; ``math.fsum`` rounds once, and a function
within one ulp (``pow``, a complex modulus) counts as two roundings.  For
j the most roundings on any path from an exact input to v and M at least
the sum of the products' moduli, |v - T| <= gamma_j M, gamma_j = j u /
(1 - j u) (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.1).

``upper(v, M, ops)`` adds ops 2^-52 (M + 2^-1020), ``lower`` subtracts
it, and both enclose T once ops >= j / 2 + 1.  The increment, rounded
twice, is at least 2 ops u M (1 - 2u); the last addition rounds to
nearest, so it reaches the least float F >= T once v plus the increment
passes T + u M, above the midpoint of F and the float below it.  That
needs gamma_j + u <= 2 ops u (1 - 2u), true for j u <= 2^-20.  For j = 1,
ops = 1 suffices too: v is T rounded once, and an increment above half an
ulp of v passes the midpoint to the next float.  The 2^-1020 covers 8 ops
underflows of 2^-1075 each, where no later operation scales one up: in
sums, and in products whose later factors are at most one in modulus.
Rump, "Verification methods", Acta Numerica 19 (2010), surveys the method.
"""


def upper(value, magnitude, ops):
    """An upper bound of the real number that ``value`` approximates."""
    return value + ops * 2**-52 * (magnitude + 2**-1020)


def lower(value, magnitude, ops):
    """A lower bound of the real number that ``value`` approximates."""
    return value - ops * 2**-52 * (magnitude + 2**-1020)
