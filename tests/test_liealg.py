from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from koopman_clf import liealg
from koopman_clf.liealg import (
    NotSimultaneouslyTriangularizable,
    close_under_bracket,
    is_solvable,
    linear_clf,
    simultaneous_triangularize,
)


def closure_dim_oracle(generators, max_rounds=12):
    # independent closure: grow a raw list, rank via matrix_rank
    mats = [np.asarray(g, dtype=complex) for g in generators]
    stack = [m.ravel() for m in mats]

    def rank():
        return np.linalg.matrix_rank(np.array(stack), tol=1e-9)

    r = rank()
    for _ in range(max_rounds):
        new = []
        for i in range(len(mats)):
            for j in range(len(mats)):
                if i != j:
                    new.append(mats[i] @ mats[j] - mats[j] @ mats[i])
        for b in new:
            stack.append(b.ravel())
            if rank() > r:
                r = rank()
                mats.append(b)
            else:
                stack.pop()
        else:
            if all(
                np.linalg.matrix_rank(
                    np.array(stack + [(x @ y - y @ x).ravel()]), tol=1e-9
                )
                == r
                for x in mats
                for y in mats
            ):
                break
    return r


def random_conjugated_triangular_family(rng, n, m=2):
    Ts = []
    for _ in range(m):
        T = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        T[np.diag_indices(n)] = -rng.uniform(0.5, 2.0, n) + 1j * rng.normal(size=n)
        Ts.append(T)
    Q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return [Q @ T @ Q.conj().T for T in Ts], Ts, Q


E2 = np.array([[0.0, 1.0], [0.0, 0.0]])
F2 = np.array([[0.0, 0.0], [1.0, 0.0]])
H2 = np.diag([1.0, -1.0])


# closure and solvability ----------------------------------------------------


def test_closure_of_borel_pair_has_dimension_two():
    alg = close_under_bracket([E2, H2])
    assert alg.dim == 2
    ok, dims = is_solvable(alg)
    assert ok
    assert dims[0] == 2 and dims[-1] == 0


def test_closure_of_nilpotent_raising_lowering_pair_is_rank_three():
    alg = close_under_bracket([E2, F2])
    assert alg.dim == 3
    ok, dims = is_solvable(alg)
    assert not ok
    # derived algebra of the full rank-3 algebra is itself
    assert dims[1] == 3


def test_heisenberg_triple_is_solvable():
    X = np.zeros((3, 3))
    X[0, 1] = 1.0
    Y = np.zeros((3, 3))
    Y[1, 2] = 1.0
    alg = close_under_bracket([X, Y])
    assert alg.dim == 3  # X, Y, and [X, Y]
    ok, dims = is_solvable(alg)
    assert ok
    assert dims == [3, 1, 0]


def test_closure_dimension_matches_rank_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        gens = [
            rng.integers(-2, 3, size=(n, n)).astype(float) for _ in range(2)
        ]
        alg = close_under_bracket(gens)
        assert alg.dim == closure_dim_oracle(gens)


def test_closure_dimension_invariant_under_generator_scaling_and_order():
    rng = np.random.default_rng(29)
    for _ in range(5):
        gens = [rng.normal(size=(3, 3)) for _ in range(2)]
        d1 = close_under_bracket(gens).dim
        d2 = close_under_bracket([3.7 * gens[1], -0.2 * gens[0]]).dim
        assert d1 == d2


def test_closure_of_commuting_diagonals_stays_put():
    alg = close_under_bracket([np.diag([-1.0, -2.0]), np.diag([-3.0, -1.0])])
    assert alg.dim == 2
    ok, dims = is_solvable(alg)
    assert ok and dims == [2, 0]


def test_close_under_bracket_validates_input():
    with pytest.raises(ValueError):
        close_under_bracket([])
    with pytest.raises(ValueError):
        close_under_bracket([np.zeros((2, 2)), np.zeros((3, 3))])


def test_solvable_family_of_triangular_conjugates():
    rng = np.random.default_rng(7)
    As, _, _ = random_conjugated_triangular_family(rng, 3)
    ok, dims = is_solvable(close_under_bracket(As))
    assert ok
    assert dims[-1] == 0 and all(a >= b for a, b in zip(dims, dims[1:]))


# triangularization ----------------------------------------------------------


def test_already_triangular_family_keeps_identity_flag():
    T1 = np.array([[-1.0, 2.0], [0.0, -3.0]])
    T2 = np.array([[-2.0, 0.5], [0.0, -1.0]])
    tri = simultaneous_triangularize([T1, T2])
    assert np.array_equal(tri.P, np.eye(2, dtype=complex))
    assert np.array_equal(tri.P_inv, np.eye(2, dtype=complex))
    assert np.allclose(tri.T_list[0], T1) and np.allclose(tri.T_list[1], T2)
    assert tri.residual == 0.0


def test_triangular_family_with_an_unsorted_diagonal_keeps_identity_flag():
    # the first axis is common at every stage; so is the second axis, whose
    # eigenvalue comes first in ascending real part
    T1 = np.array([[-1.0, 0.0, 0.3], [0.0, -2.0, 0.7], [0.0, 0.0, -5.0]])
    T2 = np.array([[-1.5, 0.0, 0.2j], [0.0, -1.2, 0.0], [0.0, 0.0, -4.0]])
    tri = simultaneous_triangularize([T1, T2])
    assert np.array_equal(tri.P, np.eye(3, dtype=complex))
    assert np.array_equal(tri.T_list[0], T1) and np.array_equal(tri.T_list[1], T2)
    assert tri.residual == 0.0


_SIGNED = st.sampled_from([0.0, -0.0, 1.5, -2.25, 0.5e-300, -3e200])


@st.composite
def upper_triangular_families(draw):
    n, count = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    family = []
    for _ in range(count):
        J = np.array([[complex(draw(_SIGNED), draw(_SIGNED)) for _ in range(n)]
                      for _ in range(n)])
        J[np.tril_indices(n, -1)] = complex(draw(st.sampled_from([0.0, -0.0])),
                                            draw(st.sampled_from([0.0, -0.0])))
        family.append(J)
    return family


@settings(max_examples=150, deadline=None)
@given(upper_triangular_families())
def test_upper_triangular_family_comes_back_as_it_went_in(family):
    # every stage keeps its basis: no eigenvector is sought, and each T is
    # its Jacobian bit for bit, signed zeros included, with +0.0 below the
    # diagonal
    n = family[0].shape[0]
    given_bits = [J.tobytes() for J in family]
    with mock.patch.object(liealg, "_common_eigenvector", side_effect=AssertionError):
        tri = simultaneous_triangularize(family)
    assert [J.tobytes() for J in family] == given_bits
    assert np.array_equal(tri.P, np.eye(n)) and np.array_equal(tri.P_inv, np.eye(n))
    for J, T, lam in zip(family, tri.T_list, tri.eigenvalues):
        want = J.copy()
        want[np.tril_indices(n, -1)] = 0.0
        assert T.view(float).tobytes() == want.view(float).tobytes()
        assert lam.tobytes() == np.diagonal(J).tobytes()
    assert tri.residual == 0.0 and type(tri.residual) is float
    assert tri.cond_P == 1.0


def test_a_kept_first_axis_leaves_a_rotating_second_stage_exact():
    # the first columns are zero below the diagonal, so stage 0 keeps its
    # basis; the lower right blocks commute but are not triangular, so
    # stage 1 rotates
    B = np.array([[-2.0, 0.0], [1.0, -3.0]])
    A1 = np.zeros((3, 3), dtype=complex)
    A1[0] = [-1.0, 0.4, 0.3j]
    A1[1:, 1:] = B
    A2 = np.zeros((3, 3), dtype=complex)
    A2[0] = [-0.5, 0.0, 1.0]
    A2[1:, 1:] = B @ B - 7.0 * B
    with mock.patch.object(liealg, "_common_eigenvector",
                           wraps=liealg._common_eigenvector) as search:
        tri = simultaneous_triangularize([A1, A2])
    assert search.call_count == 1
    assert [b.shape for b in search.call_args.args[0]] == [(2, 2), (2, 2)]
    assert np.array_equal(tri.flag_basis[:, 0], [1, 0, 0])
    assert np.array_equal(tri.flag_basis[0], [1, 0, 0])
    assert not np.allclose(tri.P, np.eye(3))
    for A, T in zip([A1, A2], tri.T_list):
        assert np.all(T[np.tril_indices(3, -1)] == 0)
        assert np.max(np.abs(tri.P_inv @ A @ tri.P - T)) < 1e-12
    assert tri.residual < 1e-12


def test_single_matrix_triangularization_recovers_spectrum():
    rng = np.random.default_rng(19)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    tri = simultaneous_triangularize([A])
    got = np.sort_complex(np.diag(tri.T_list[0]))
    want = np.sort_complex(np.linalg.eigvals(A))
    assert np.max(np.abs(got - want)) < 1e-8


def test_conjugated_families_triangularize_with_small_residual():
    rng = np.random.default_rng(37)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        As, _, _ = random_conjugated_triangular_family(rng, n)
        tri = simultaneous_triangularize(As)
        assert tri.residual <= 1e-9
        for A, T in zip(As, tri.T_list):
            assert np.max(np.abs(np.tril(T, -1))) == 0.0
            back = tri.P @ T @ tri.P_inv
            assert np.max(np.abs(back - A)) < 1e-8 * max(1.0, np.max(np.abs(A)))


def test_flag_scaling_normalizes_inverse_norm():
    rng = np.random.default_rng(43)
    As, _, _ = random_conjugated_triangular_family(rng, 3)
    tri = simultaneous_triangularize(As)
    assert abs(np.linalg.norm(tri.P_inv, np.inf) - 1.0) < 1e-12
    # P is a positive multiple of a unitary matrix
    U = tri.P / np.linalg.norm(tri.P[:, 0])
    assert np.allclose(U.conj().T @ U, np.eye(3), atol=1e-10)


def test_raising_lowering_pair_is_rejected():
    with pytest.raises(NotSimultaneouslyTriangularizable):
        simultaneous_triangularize([E2, F2])


def test_common_eigenvector_agreement_with_bruteforce_on_2x2():
    # brute force: common eigenvector exists iff some eigenvector of A is
    # also an eigenvector of B (distinct-eigenvalue case keeps this finite)
    rng = np.random.default_rng(53)
    agree = 0
    for _ in range(40):
        A = rng.integers(-3, 4, size=(2, 2)).astype(float)
        B = rng.integers(-3, 4, size=(2, 2)).astype(float)
        if abs(np.linalg.eigvals(A)[0] - np.linalg.eigvals(A)[1]) < 1e-8:
            continue  # keep eigenvectors of A discrete
        _, vecs = np.linalg.eig(A)
        brute = False
        for c in range(2):
            v = vecs[:, c]
            w = B @ v
            # w parallel to v?
            if np.abs(w[0] * v[1] - w[1] * v[0]) < 1e-9 * max(
                1.0, np.linalg.norm(w)
            ):
                brute = True
        try:
            simultaneous_triangularize([A, B])
            algo = True
        except NotSimultaneouslyTriangularizable:
            algo = False
        assert algo == brute
        agree += 1
    assert agree >= 20  # the filter must leave a meaningful sample


# quadratic flag certificate -------------------------------------------------


def test_linear_clf_exact_weight_for_single_jordanish_block():
    tri = simultaneous_triangularize([np.array([[-1.0, 1.0], [0.0, -1.0]])])
    eps, flag = linear_clf(tri)
    assert np.array_equal(flag, np.eye(2, dtype=complex))
    assert eps[0] == 1.0
    assert eps[1] == 0.375  # (1 + 0.5) * (1/4) * 1 / (1 * 1)


def test_linear_clf_uncoupled_positions_get_unit_weight():
    tri = simultaneous_triangularize([np.diag([-1.0, -2.0, -0.5])])
    eps, _ = linear_clf(tri)
    assert np.array_equal(eps, np.ones(3))


def test_linear_clf_satisfies_strict_coupling_inequalities():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        Ts = []
        for _ in range(2):
            T = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            T[np.diag_indices(n)] = -rng.uniform(0.5, 2.0, n)
            Ts.append(T)
        tri = simultaneous_triangularize(
            [T.copy() for T in Ts]
        )
        eps, _ = linear_clf(tri)
        factor = (n - 1) ** 2 / 4.0
        for T in tri.T_list:
            for j in range(1, n):
                for k in range(j):
                    if T[k, j] == 0:
                        continue
                    budget = (
                        eps[k]
                        * factor
                        * abs(T[k, j]) ** 2
                        / (abs(T[j, j].real) * abs(T[k, k].real))
                    )
                    assert eps[j] > budget


def test_linear_clf_rejects_unstable_and_bad_eta():
    tri = simultaneous_triangularize([np.array([[1.0, 0.0], [0.0, -1.0]])])
    with pytest.raises(ValueError):
        linear_clf(tri)
    tri2 = simultaneous_triangularize([np.diag([-1.0, -1.0])])
    with pytest.raises(ValueError):
        linear_clf(tri2, eta=0.0)


def test_linear_clf_decreases_along_every_subsystem_flow():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        Ts = []
        for _ in range(2):
            T = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            T[np.diag_indices(n)] = -rng.uniform(0.5, 2.0, n) + 1j * rng.normal(
                size=n
            )
            Ts.append(T)
        Q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        As = [Q @ T @ Q.conj().T for T in Ts]
        tri = simultaneous_triangularize(As)
        eps, V = linear_clf(tri)
        W = V.conj().T
        for A in As:
            step = expm(0.05 * A)
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            vals = []
            for _ in range(100):
                y = W @ x
                vals.append(float(np.sum(eps * np.abs(y) ** 2)))
                x = step @ x
            assert all(b < a for a, b in zip(vals, vals[1:]))
