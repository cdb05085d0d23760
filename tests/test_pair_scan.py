"""Array scans of the coupled pairs against a per-pair Python scan.

The reference below walks the stored entries of every operator one pair
at a time and keeps a running maximum, with each ratio written as a scalar
formula.  The array scans in ``koopman_clf.certificate`` must reproduce
it exactly: every ratio, the sup, the pair it is attributed to, and the
per-degree maxima.  The operator set-up and the weight recursion, which
run on the same arrays, must equal their per-row and per-column forms.
"""

import numpy as np
import pytest

from koopman_clf.certificate import (
    ETA_FLOOR,
    EPSILON_FLOOR,
    WeightScheme,
    _coupled_pairs,
    _dd_ratios,
    _extrapolate,
    _poly_ratios,
    _scheme_ratios,
    _sup_by_degree,
    build_operator,
    check_dd_condition,
    check_poly_condition,
    epsilon_sequence,
)
from koopman_clf.config import example1_config, example2_config
from koopman_clf.multiindex import build_basis
from koopman_clf.vectorfield import PolyVectorField
from oracles import col_abs_sum, column_support, q_value, row_abs_sum, stored_entry

XI, KAPPA = 0.3, 0.6


# reference scan -------------------------------------------------------------


def scan_pairs(op):
    """Yield coupled pairs (k, j, |entry|) with k < j from stored entries."""
    kmat = op.kmat
    for k, j, v in zip(kmat.k.tolist(), kmat.j.tolist(), kmat.v.tolist()):
        if j > k and v != 0:
            yield k, j, abs(v)


def by_degree_max(ops, basis, value_fn):
    """Sup, first argmax and per-degree maxima of a pair functional."""
    sup = 0.0
    arg = None
    by_degree = {}
    for i, op in enumerate(ops):
        for k, j, e in scan_pairs(op):
            q = value_fn(i, op, k, j, e)
            d = basis.degree(j)
            if q > by_degree.get(d, 0.0):
                by_degree[d] = q
            if q > sup:
                sup = q
                arg = {"subsystem": i, "k": k, "j": j}
    return sup, arg, dict(sorted(by_degree.items()))


def pair_values(ops, value_fn):
    return [
        value_fn(i, op, k, j, e)
        for i, op in enumerate(ops)
        for k, j, e in scan_pairs(op)
    ]


def poly_value(i, op, k, j, e):
    return (op.coupling_count * e) ** 2 / (op.re_decay[j] * op.re_decay[k])


def dd_values(basis, xi, kappa):
    n = basis.dimension
    D = (n * n - n) / 2.0

    def same_value(i, op, k, j, e):
        if basis.degree(j) != basis.degree(k):
            return 0.0
        return (D * e / xi) ** 2 / (op.re_decay[j] * op.re_decay[k])

    def cross_value(i, op, k, j, e):
        if basis.degree(j) == basis.degree(k):
            return 0.0
        return (
            op.col_sums[j]
            * op.row_sums[k]
            / (kappa**2 * op.re_decay[j] * op.re_decay[k])
        )

    return same_value, cross_value


def column_walk_weights(ops, basis, scheme, eta, rho):
    """The weight recursion as a walk over the columns of every operator
    with a scalar ratio per pair; returns what ``epsilon_sequence`` does."""

    def value(i, op, k, j, e):
        return q_value(op, scheme, j, k)

    q_sup, _, q_by_degree = by_degree_max(ops, basis, value)
    q_est, _ = _extrapolate(q_by_degree)
    bound = max(q_sup, q_est) * rho * rho
    if bound > 0:
        eta_eff = min(eta, max(ETA_FLOOR, 0.5 * (1.0 / bound - 1.0)))
    else:
        eta_eff = eta
    columns = [column_support(op.kmat) for op in ops]
    eps = np.zeros(basis.size + 1)
    eps[0] = np.nan
    degree_max = {0: 1.0}
    for j in range(1, basis.size + 1):
        d = basis.degree(j)
        best = 0.0
        for op, cols in zip(ops, columns):
            for k, v in cols.get(j, []):
                if k >= j or v == 0:
                    continue
                best = max(best, eps[k] * q_value(op, scheme, j, k))
        if j == 1:
            eps[j] = 1.0
        else:
            floor = EPSILON_FLOOR * degree_max.get(d - 1, 1.0)
            eps[j] = max((1.0 + eta_eff) * best, floor)
        degree_max[d] = max(degree_max.get(d, 0.0), eps[j])
    return eps[1:], eta_eff, q_sup, q_by_degree


# families -------------------------------------------------------------------


def complex_family():
    """Seeded complex pair with same-degree and cross-degree couplings."""
    rng = np.random.default_rng(20)

    def c():
        return complex(rng.normal(), rng.normal())

    fields = []
    for _ in range(2):
        lam = -rng.uniform(0.5, 2.0, 2) + 1j * rng.normal(size=2)
        fields.append(
            PolyVectorField(
                [
                    {(1, 0): lam[0], (0, 1): c(), (2, 0): c(), (1, 2): c()},
                    {(0, 1): lam[1], (1, 1): c(), (0, 3): c()},
                ]
            )
        )
    return fields


FAMILIES = {
    "example1-6": (lambda: example1_config().build_family().fields, 6),
    "example1-9": (lambda: example1_config().build_family().fields, 9),
    "example2-8": (lambda: example2_config().build_family().fields, 8),
    "example2-12": (lambda: example2_config().build_family().fields, 12),
    "complex-40": (complex_family, 40),
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    make, degree = FAMILIES[request.param]
    fields = make()
    basis = build_basis(2, degree)
    ops = [build_operator(f, basis) for f in fields]
    jacs = [f.jacobian_at_origin() for f in fields]
    return ops, basis, jacs


# tests ----------------------------------------------------------------------


def test_coupled_pairs_follow_the_reference_scan_order(family):
    ops, basis, _ = family
    pairs = _coupled_pairs(ops, basis)
    got = list(
        zip(
            pairs.i.tolist(),
            pairs.k.tolist(),
            pairs.j.tolist(),
            pairs.e.tolist(),
        )
    )
    want = [(i, k, j, e) for i, op in enumerate(ops) for k, j, e in scan_pairs(op)]
    assert got == want
    assert pairs.degree.tolist() == [basis.degree(j) for _, _, j, _ in want]


def test_poly_condition_matches_reference_scan(family):
    ops, basis, _ = family
    pairs = _coupled_pairs(ops, basis)
    assert _poly_ratios(pairs).tolist() == pair_values(ops, poly_value)
    cond = check_poly_condition(ops, basis)
    sup, arg, by_degree = by_degree_max(ops, basis, poly_value)
    assert cond["q_sup"] == sup
    assert cond["argmax"] == arg
    assert cond["by_degree"] == by_degree


def test_dd_ratios_match_reference_scan(family):
    ops, basis, jacs = family
    same_value, cross_value = dd_values(basis, XI, KAPPA)
    pairs = _coupled_pairs(ops, basis)
    same, cross = _dd_ratios(pairs, basis.dimension, XI, KAPPA)
    assert same.tolist() == pair_values(ops, same_value)
    assert cross.tolist() == pair_values(ops, cross_value)
    same_ref = by_degree_max(ops, basis, same_value)
    cross_ref = by_degree_max(ops, basis, cross_value)
    assert _sup_by_degree(pairs, same, basis) == same_ref
    assert _sup_by_degree(pairs, cross, basis) == cross_ref
    record = check_dd_condition(ops, basis, jacs, XI, KAPPA, 1.0)
    assert record["same_degree_sup"] == same_ref[0]
    assert (record["cross_sup"], record["argmax"], record["by_degree"]) == cross_ref


@pytest.mark.parametrize(
    "scheme",
    [WeightScheme("polynomial", 0.99), WeightScheme("diagonal_dominance", XI, KAPPA)],
    ids=["polynomial", "diagonal_dominance"],
)
def test_scheme_ratio_scan_matches_reference_scan(family, scheme):
    ops, basis, _ = family

    def value(i, op, k, j, e):
        return q_value(op, scheme, j, k)

    pairs = _coupled_pairs(ops, basis)
    q = _scheme_ratios(pairs, basis.dimension, scheme)
    assert q.tolist() == pair_values(ops, value)
    assert _sup_by_degree(pairs, q, basis) == by_degree_max(ops, basis, value)


def test_column_sums_match_the_per_column_sum(family):
    ops, basis, _ = family
    for op in ops:
        columns = column_support(op.kmat)
        want = [col_abs_sum(columns, j) for j in range(1, basis.size + 1)]
        assert op.col_sums[1:].tolist() == want


def test_operator_set_up_matches_the_per_row_formulas(family):
    ops, basis, _ = family
    positions = range(1, basis.size + 1)
    for op in ops:
        decay = [-stored_entry(op.kmat, k, k).real for k in positions]
        assert op.re_decay[1:].tolist() == decay
        assert op.row_sums[1:].tolist() == [row_abs_sum(op.kmat, k) for k in positions]


@pytest.mark.parametrize(
    "scheme, rho",
    [
        (WeightScheme("polynomial", 0.99), 1.0),
        (WeightScheme("diagonal_dominance", XI, KAPPA), 0.5),
    ],
    ids=["polynomial", "diagonal_dominance"],
)
def test_epsilon_sequence_matches_the_column_walk(family, scheme, rho):
    ops, basis, _ = family
    eps, eta_eff, q_sup, q_by_degree = epsilon_sequence(
        ops, basis, scheme, eta=0.5, rho=rho
    )
    want = column_walk_weights(ops, basis, scheme, 0.5, rho)
    assert eps.tolist() == want[0].tolist()
    assert (eta_eff, q_sup, q_by_degree) == want[1:]
