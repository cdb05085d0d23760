import itertools

import numpy as np
import pytest

from koopman_clf.multiindex import build_basis, order_key
from oracles import shift_index


def brute_order(dimension, max_degree):
    # independent enumeration: all tuples, sorted by the documented key
    ranges = [range(max_degree + 1)] * dimension
    all_idx = [
        a for a in itertools.product(*ranges) if sum(a) <= max_degree
    ]
    return sorted(all_idx, key=order_key)


def test_order_2d_degree_2_table():
    b = build_basis(2, 2)
    assert [b.alpha(k) for k in range(6)] == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]


def test_order_3d_degree_2_table():
    b = build_basis(3, 2)
    assert [b.alpha(k) for k in range(10)] == [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_order_matches_sorted_enumeration():
    for n in (1, 2, 3, 4):
        for N in (1, 2, 5):
            b = build_basis(n, N)
            expect = brute_order(n, N)
            got = [b.alpha(k) for k in range(b.size + 1)]
            assert got == expect


def test_size_counts_nonconstant_monomials():
    for n in (1, 2, 3):
        for N in (1, 3, 6):
            b = build_basis(n, N)
            # monomials of degree <= N, minus the constant
            from math import comb

            assert b.size == comb(n + N, n) - 1


def test_index_of_roundtrip_and_specific_position():
    b = build_basis(2, 4)
    assert b.index_of((1, 1)) == 4
    assert b.index_of((0, 0)) == 0
    assert build_basis(3, 2).index_of((0, 1, 1)) == 8
    # the batched closed-form rank against the sorted enumeration
    for n in (1, 2, 3, 4):
        for N in (1, 2, 5, 8):
            b = build_basis(n, N)
            expect = brute_order(n, N)
            assert np.array_equal(
                b.positions(np.array(expect)), np.arange(len(expect))
            )
            for k, alpha in enumerate(expect):
                assert b.index_of(alpha) == k


def test_index_of_beyond_truncation_is_none():
    b = build_basis(2, 3)
    assert b.index_of((4, 0)) is None
    assert b.index_of((2, 2)) is None


def test_index_of_rejects_bad_input():
    b = build_basis(2, 3)
    with pytest.raises(ValueError):
        b.index_of((1, 2, 3))
    with pytest.raises(ValueError):
        b.index_of((-1, 0))


def test_degree_slices_partition_the_basis():
    b = build_basis(3, 5)
    seen = []
    for d in range(6):
        idx = list(b.indices_of_degree(d))
        assert len(idx) == b.count_of_degree(d)
        for k in idx:
            assert b.degree(k) == d
        seen.extend(idx)
    assert seen == list(range(b.size + 1))


def test_count_of_degree_formula():
    b = build_basis(3, 2)
    assert [b.count_of_degree(d) for d in range(5)] == [1, 3, 6, 10, 15]


def test_shift_index_examples():
    # source alpha, slot l, target gamma -> coefficient exponent
    assert shift_index((2, 1), 0, (2, 3)) == (1, 2)
    assert shift_index((2, 1), 0, (3, 1)) == (2, 0)
    assert shift_index((2, 1), 1, (2, 1)) == (0, 1)
    assert shift_index((0, 1), 0, (1, 0)) is None  # slot 0 exponent is 0


def test_shift_index_consistency_property():
    # beta = shift(alpha, l, gamma) iff alpha - e_l + beta == gamma
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        alpha = tuple(int(a) for a in rng.integers(0, 4, n))
        gamma = tuple(int(a) for a in rng.integers(0, 4, n))
        l = int(rng.integers(0, n))
        beta = shift_index(alpha, l, gamma)
        if beta is None:
            continue
        moved = list(alpha)
        moved[l] -= 1
        landed = tuple(m + bb for m, bb in zip(moved, beta))
        assert landed == gamma
        assert all(bb >= 0 for bb in beta)


def test_build_basis_validates_arguments():
    with pytest.raises(ValueError):
        build_basis(0, 3)
    with pytest.raises(ValueError):
        build_basis(2, 0)
