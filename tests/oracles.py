"""Per-entry reference formulas for the generator matrix and the coupling
ratios.

The library builds each truncated generator matrix once, as arrays
(k, j, v) of its stored entries, and runs the certificate on them.  The
functions here compute the same quantities one entry, one column or one
pair at a time, as scalar formulas; the tests hold the library to them.
"""

import numpy as np


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


def row_abs_sum(kmat, k):
    """Absolute row sum sum_l alpha_l(k) ||F_l||_{l1} over the full basis."""
    ak = kmat.basis.alpha(k)
    return float(
        sum(
            ak[l] * kmat.field_ref.l1_norm(l)
            for l in range(kmat.basis.dimension)
            if ak[l]
        )
    )


def q_value(op, scheme, j, k, include_scheme_factor=True):
    """Coupling ratio Q_jk for a pair k < j of one subsystem.

    With ``include_scheme_factor`` the scheme parameters enter (this is
    the quantity bounded by the certificate condition); without it the
    polynomial-scheme value is returned with the xi^2 factor removed,
    which is the scan quantity whose sup must stay below one.
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
        q = (op.coupling_count * e) ** 2 / denom
        return q / scheme.xi**2 if include_scheme_factor else q
    if dj == dk:
        D = (n * n - n) / 2.0
        q = (D * e) ** 2 / denom
        return q / scheme.xi**2 if include_scheme_factor else q
    q = op.col_sums[j] * op.row_sums[k] / denom
    return q / scheme.kappa**2 if include_scheme_factor else q
