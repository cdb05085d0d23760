"""The level-scheduled weight recursion against its position-by-position
walk, and the per-degree weight maxima against a Python max per degree.

``epsilon_sequence`` sets all weights of one dependency level at once;
``oracles.epsilon_walk`` sets one basis position at a time.  The two must
agree exactly, NaN for NaN, on the paper's examples, on a pair whose
linear parts couple within a degree, and on random triangular pairs.
"""

import math

import numpy as np
import pytest

from koopman_clf.certificate import (
    WeightScheme,
    _coupled_pairs,
    build_operator,
    certified_radius_dd,
    convergence_check,
    coupling_scan,
    degree_maxima,
    dominance_xi_min,
    epsilon_sequence,
)
from koopman_clf.config import example1_config, example2_config
from koopman_clf.multiindex import build_basis
from koopman_clf.vectorfield import PolyVectorField
from oracles import degree_maxima_walk, epsilon_walk

POLY = WeightScheme("polynomial", 0.99)


def off_diagonal_pair():
    """Triangular pair whose linear parts couple z2 into z1: every degree
    carries a chain of same-degree pairs (d, 0) -> (d - 1, 1) -> ..."""
    return [
        PolyVectorField([{(1, 0): -1.0, (0, 1): 0.3}, {(0, 1): -1.2}]),
        PolyVectorField(
            [
                {(1, 0): -1.0, (0, 1): 0.2, (2, 0): 0.3},
                {(0, 1): -1.2, (1, 1): 0.1},
            ]
        ),
    ]


def assert_same_recursion(ops, basis, scheme, eta=0.5, rho=1.0):
    eps, eta_eff, q_sup, q_by_degree = epsilon_sequence(
        coupling_scan(ops, basis, scheme), basis, eta=eta, rho=rho
    )
    want = epsilon_walk(ops, basis, scheme, eta=eta, rho=rho)
    assert np.array_equal(eps, want[0], equal_nan=True)
    assert eta_eff == want[1]
    assert q_sup == want[2] or (math.isnan(q_sup) and math.isnan(want[2]))
    assert list(q_by_degree) == list(want[3])
    assert np.array_equal(
        list(q_by_degree.values()), list(want[3].values()), equal_nan=True
    )
    return eps


@pytest.mark.parametrize("degree", [12, 30, 60])
def test_level_recursion_matches_the_walk_on_example1(degree):
    basis = build_basis(2, degree)
    ops = [build_operator(f, basis) for f in example1_config().build_family().fields]
    assert_same_recursion(ops, basis, POLY)


def test_level_recursion_matches_the_walk_on_example2():
    basis = build_basis(2, 20)
    fields = example2_config(mu=3.0).build_family().fields
    ops = [build_operator(f, basis) for f in fields]
    jacs = [f.jacobian_at_origin() for f in fields]
    xi = max(1.01 * dominance_xi_min(jacs), 1e-6)
    kappa = 0.98 * (1.0 - xi)
    scheme = WeightScheme("diagonal_dominance", xi, kappa)
    scan = coupling_scan(ops, basis, scheme)
    rho, _ = certified_radius_dd(scan, basis, dominance_xi_min(jacs))
    assert 0 < rho < 1
    assert_same_recursion(ops, basis, scheme, rho=rho)


@pytest.mark.parametrize(
    "scheme",
    [POLY, WeightScheme("diagonal_dominance", 0.3, 0.6)],
    ids=["polynomial", "diagonal_dominance"],
)
@pytest.mark.parametrize("degree", [5, 30])
def test_level_recursion_matches_the_walk_on_same_degree_chains(scheme, degree):
    basis = build_basis(2, degree)
    ops = [build_operator(f, basis) for f in off_diagonal_pair()]
    assert _coupled_pairs(ops, basis).same.sum() > basis.size // 2
    assert_same_recursion(ops, basis, scheme, rho=0.7)


def test_level_recursion_matches_the_walk_with_a_nan_ratio():
    basis = build_basis(2, 6)
    ops = [build_operator(f, basis) for f in example1_config().build_family().fields]
    k, j = basis.index_of((1, 0)), basis.index_of((2, 0))
    kmat = ops[1].kmat
    kmat.v[(kmat.k == k) & (kmat.j == j)] = math.nan
    eps = assert_same_recursion(ops, basis, POLY)
    assert math.isnan(eps[j - 1])
    assert math.isnan(eps[basis.index_of((3, 0)) - 1])  # fed from (2, 0)


def test_level_recursion_matches_the_walk_on_random_triangular_pairs():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    coeff = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda c: c != 0.0)
    decay = st.floats(0.2, 2.0)
    nonlinear = st.sampled_from([(2, 0), (1, 1), (0, 2), (3, 0), (1, 2), (0, 3)])

    @st.composite
    def triangular_field(draw):
        lam = [complex(-draw(decay), draw(coeff)) for _ in range(2)]
        comps = [{(1, 0): lam[0]}, {(0, 1): lam[1]}]
        if draw(st.booleans()):
            comps[0][(0, 1)] = draw(coeff)  # same-degree coupling
        for _ in range(draw(st.integers(0, 3))):
            comps[draw(st.integers(0, 1))][draw(nonlinear)] = draw(coeff)
        return PolyVectorField(comps)

    @settings(max_examples=25, deadline=None)
    @given(
        fields=st.lists(triangular_field(), min_size=1, max_size=3),
        degree=st.integers(2, 9),
        eta=st.floats(0.05, 2.0),
        rho=st.floats(0.3, 1.0),
        dominance=st.booleans(),
    )
    def check(fields, degree, eta, rho, dominance):
        basis = build_basis(2, degree)
        ops = [build_operator(f, basis) for f in fields]
        scheme = WeightScheme("diagonal_dominance", 0.3, 0.6) if dominance else POLY
        assert_same_recursion(ops, basis, scheme, eta=eta, rho=rho)

    check()


@pytest.mark.parametrize(
    "nan_at, want_nan",
    [((3, 0), True), ((2, 1), False), ((0, 3), False)],
    ids=["first-of-degree", "middle", "last"],
)
def test_degree_maxima_is_nan_only_when_a_degree_starts_with_nan(nan_at, want_nan):
    basis = build_basis(2, 5)
    eps = np.linspace(1.0, 0.01, basis.size)
    eps[basis.index_of(nan_at) - 1] = math.nan
    got = degree_maxima(eps, basis)
    want = degree_maxima_walk(eps, basis)
    assert np.array_equal(got, want, equal_nan=True)
    assert math.isnan(got[2]) == want_nan
    assert np.isfinite(np.delete(got, 2)).all()


def test_level_recursion_and_degree_maxima_in_three_dimensions():
    basis = build_basis(3, 7)
    ops = [
        build_operator(
            PolyVectorField(
                [
                    {(1, 0, 0): -1.0, (0, 1, 1): 0.4},
                    {(0, 1, 0): -1.5, (0, 0, 1): 0.2},
                    {(0, 0, 1): -0.8, (1, 0, 2): 0.1},
                ]
            ),
            basis,
        )
    ]
    eps = assert_same_recursion(ops, basis, POLY, rho=0.9)
    assert np.array_equal(degree_maxima(eps, basis), degree_maxima_walk(eps, basis))
    assert convergence_check(eps, basis, 0.9).convergent
