import io
import math

import numpy as np
import pytest

from koopman_clf.certificate import build_operator
from koopman_clf.koopman import build_matrix
from koopman_clf.multiindex import build_basis
from koopman_clf.vectorfield import PolyVectorField, lie_bracket
from oracles import col_abs_sum, column_support, entry, row_abs_sum, stored_entry


def polynomial_pair(a=1.0, b=0.3):
    f1 = PolyVectorField([{(1, 0): -a}, {(0, 1): -a}])
    f2 = PolyVectorField(
        [
            {(1, 0): -a, (2, 0): b, (1, 2): -b},
            {(0, 1): -a, (1, 1): b / 2},
        ]
    )
    return f1, f2


def dense_oracle(field_, basis):
    M = basis.size
    out = np.zeros((M, M), dtype=complex)
    for k in range(1, M + 1):
        for j in range(1, M + 1):
            out[k - 1, j - 1] = entry(field_, basis, k, j)
    return out


def is_upper_triangular(kmat):
    return not np.any(np.tril(kmat.to_dense(), -1) != 0)


def diagonal_eigenvalues(kmat, linear_diag):
    """Eigenvalues sum_l alpha_l(k) * lambda_l of the triangular generator.

    ``linear_diag`` holds the diagonal linear coefficients lambda_l of the
    field.  The result is cross-checked against the stored diagonal; a
    mismatch beyond 1e-12 (relative) means the matrix was not built from a
    Jacobian-triangular field.
    """
    lam = np.asarray(linear_diag, dtype=complex)
    values = kmat.basis.exponents[1:] @ lam
    stored = np.diag(kmat.to_dense())
    scale = max(1.0, float(np.max(np.abs(values))))
    err = float(np.max(np.abs(values - stored)))
    if err > 1e-12 * scale:
        raise ValueError(
            f"diagonal mismatch {err:.3e}: generator matrix is not the "
            "triangular form implied by the supplied linear diagonal"
        )
    return values


def _fmt_complex(z):
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def export_dense_csv(kmat, fh):
    """Write the dense matrix as CSV with entries formatted 're+imi'."""
    dense = kmat.to_dense()
    M = kmat.size
    header = ["row_index"] + [
        "m" + "_".join(str(a) for a in kmat.basis.alpha(j))
        for j in range(1, M + 1)
    ]
    fh.write(",".join(header) + "\n")
    for k in range(1, M + 1):
        cells = [str(k)] + [_fmt_complex(dense[k - 1, j]) for j in range(M)]
        fh.write(",".join(cells) + "\n")


def random_int_field(rng, n=2, degree=2):
    comps = []
    for _ in range(n):
        table = {}
        for _ in range(4):
            alpha = tuple(int(x) for x in rng.integers(0, degree + 1, n))
            if 0 < sum(alpha) <= degree:
                table[alpha] = float(rng.integers(-3, 4))
        if not table:
            table = {tuple(1 if c == 0 else 0 for c in range(n)): -1.0}
        comps.append(table)
    return PolyVectorField(comps)


# single entries -------------------------------------------------------------


def test_entry_on_one_dimensional_contraction():
    basis = build_basis(1, 6)
    f = PolyVectorField([{(1,): -2.0}])
    for k in range(1, basis.size + 1):
        for j in range(1, basis.size + 1):
            want = -2.0 * k if k == j else 0.0
            assert entry(f, basis, k, j) == want


def test_entry_bounds_checked():
    basis = build_basis(2, 3)
    f, _ = polynomial_pair()
    with pytest.raises(IndexError):
        entry(f, basis, 0, 1)
    with pytest.raises(IndexError):
        entry(f, basis, 1, basis.size + 1)


def test_entry_zero_when_degree_drops():
    basis = build_basis(2, 4)
    _, f2 = polynomial_pair()
    j = basis.index_of((1, 0))
    k = basis.index_of((2, 0))
    assert entry(f2, basis, k, j) == 0j


def test_entries_of_polynomial_pair_match_closed_forms():
    # nonzero entries: same index, or a target one degree up via (1, 0),
    # or two degrees up via (0, 2); values depend only on the target index
    a, b = 1.0, 0.3
    f1, f2 = polynomial_pair(a, b)
    basis = build_basis(2, 8)

    def closed(ka, ja):
        d = (ja[0] - ka[0], ja[1] - ka[1])
        if d == (0, 0):
            return -a * sum(ja)
        if d == (1, 0):
            return b * (ja[0] + (ja[1] - 2) / 2)
        if d == (0, 2):
            return -b * ja[0]
        return 0.0

    for j in range(1, basis.size + 1):
        ja = basis.alpha(j)
        for k in range(1, basis.size + 1):
            got = entry(f2, basis, k, j)
            assert abs(got - closed(basis.alpha(k), ja)) < 1e-14
            got1 = entry(f1, basis, k, j)
            want1 = -a * sum(ja) if k == j else 0.0
            assert got1 == want1


# assembled matrix -----------------------------------------------------------


def test_build_matrix_agrees_with_entry_function():
    rng = np.random.default_rng(9)
    basis = build_basis(2, 5)
    for _ in range(5):
        f = random_int_field(rng)
        kmat = build_matrix(f, basis)
        assert np.array_equal(kmat.to_dense(), dense_oracle(f, basis))


def test_build_matrix_drops_contributions_that_cancel():
    # at row (1, 1) the terms z1^2 of component 1 and z1 z2 of component 2
    # both land on (2, 1), with 1 * 1 + 1 * (-1) = 0
    f = PolyVectorField(
        [{(1, 0): -1.0, (2, 0): 1.0}, {(0, 1): -1.0, (1, 1): -1.0}]
    )
    basis = build_basis(2, 5)
    kmat = build_matrix(f, basis)
    k, j = basis.index_of((1, 1)), basis.index_of((2, 1))
    assert entry(f, basis, k, j) == 0
    assert not np.any((kmat.k == k) & (kmat.j == j))
    assert np.all(kmat.v != 0)
    assert np.array_equal(kmat.to_dense(), dense_oracle(f, basis))


def test_rows_split_the_arrays_by_source_position():
    _, f2 = polynomial_pair()
    basis = build_basis(2, 6)
    kmat = build_matrix(f2, basis)
    rows = kmat.rows
    assert len(rows) == basis.size
    for k, (cols, vals) in enumerate(rows, start=1):
        assert np.array_equal(cols, kmat.j[kmat.k == k])
        assert np.array_equal(vals, kmat.v[kmat.k == k])


def test_matrix_entry_lookup_and_column_support():
    _, f2 = polynomial_pair()
    basis = build_basis(2, 6)
    kmat = build_matrix(f2, basis)
    j = basis.index_of((2, 1))
    support = dict(column_support(kmat)[j])
    assert set(support) == {basis.index_of((1, 1)), j}
    k = basis.index_of((1, 1))
    assert stored_entry(kmat, k, j) == support[k]
    assert stored_entry(kmat, j, j) == -3.0
    assert kmat.to_dense()[k - 1, j - 1] == support[k]


def test_triangularity_is_exact_for_triangular_jacobians():
    rng = np.random.default_rng(15)
    basis = build_basis(2, 6)
    for _ in range(10):
        f = random_int_field(rng, degree=3)
        # drop the sub-diagonal linear coefficient to force a triangular Jacobian
        comps = []
        for l, c in enumerate(f.components):
            comps.append(
                {
                    alpha: v
                    for alpha, v in c.items()
                    if not (sum(alpha) == 1 and any(alpha[r] for r in range(l)))
                }
            )
            comps[l][tuple(1 if s == l else 0 for s in range(2))] = -2.0
        g = PolyVectorField(comps)
        kmat = build_matrix(g, basis)
        assert is_upper_triangular(kmat)


def test_lower_triangular_jacobian_breaks_matrix_triangularity():
    f = PolyVectorField([{(1, 0): -1.0}, {(1, 0): 0.5, (0, 1): -1.0}])
    kmat = build_matrix(f, build_basis(2, 4))
    assert not is_upper_triangular(kmat)


def test_matrix_commutator_represents_bracket_field():
    # restricted to columns whose degree stays within reach of both factors
    rng = np.random.default_rng(27)
    basis = build_basis(2, 6)
    for _ in range(5):
        F = random_int_field(rng)
        G = random_int_field(rng)
        LF = build_matrix(F, basis).to_dense()
        LG = build_matrix(G, basis).to_dense()
        LB = build_matrix(lie_bracket(F, G), basis).to_dense()
        comm = LG @ LF - LF @ LG
        cols = [j for j in range(1, basis.size + 1) if basis.degree(j) <= 5]
        idx = np.array(cols) - 1
        scale = max(1.0, np.max(np.abs(comm)))
        assert np.max(np.abs((comm - LB)[:, idx])) < 1e-9 * scale


def test_exact_degree_accounts_for_field_degree():
    _, f2 = polynomial_pair()
    basis = build_basis(2, 8)
    kmat = build_matrix(f2, basis)
    assert kmat.exact_degree == 8 - 3 + 1
    # rows at or below exact_degree keep every infinite-matrix entry:
    # check against a larger basis, where the same positions hold
    big = build_matrix(f2, big_basis := build_basis(2, 12))
    low = basis.exponents.sum(axis=1)[kmat.k] <= kmat.exact_degree
    low_big = big_basis.exponents.sum(axis=1)[big.k] <= kmat.exact_degree
    assert low.any()
    for mine, theirs in ((kmat.k, big.k), (kmat.j, big.j), (kmat.v, big.v)):
        assert np.array_equal(mine[low], theirs[low_big])


# absolute sums --------------------------------------------------------------


def test_column_sum_collects_entries_feeding_a_position():
    _, f2 = polynomial_pair()
    basis = build_basis(2, 6)
    kmat = build_matrix(f2, basis)
    j = basis.index_of((2, 1))
    want = sum(
        abs(entry(f2, basis, k, j)) for k in range(1, basis.size + 1)
    )
    assert abs(col_abs_sum(column_support(kmat), j) - want) < 1e-14
    assert abs(build_operator(f2, basis).col_sums[j] - want) < 1e-14


def test_row_sum_uses_exact_tail_norms():
    mu = 3.0
    c_minus = (math.cosh(2.0) - 1.0) / 2.0
    comps = [{(1, 0): -1.0}, {(0, 1): -1.0}]
    p = 1
    while 2 * p + 3 <= 14:
        comps[0][(2 * p + 2, 1)] = (-1.0) ** (p + 1) * 2.0 ** (2 * p - 1) / (
            math.factorial(2 * p) * mu
        )
        p += 1
    f = PolyVectorField(comps, tail_l1=[1.0 + c_minus / mu, 1.0])
    basis = build_basis(2, 14)
    op = build_operator(f, basis)
    for k in (1, 5, basis.size):
        ak = basis.alpha(k)
        want = ak[0] * (1.0 + c_minus / mu) + ak[1] * 1.0
        assert abs(op.row_sums[k] - want) < 1e-14
        assert abs(row_abs_sum(op.kmat, k) - want) < 1e-14


def test_diagonal_eigenvalues_match_exponent_weighted_spectrum():
    rng = np.random.default_rng(33)
    basis = build_basis(3, 4)
    lam = -rng.uniform(0.5, 2.0, 3) + 1j * rng.normal(size=3)
    T = np.triu(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), 1)
    T += np.diag(lam)
    f = PolyVectorField.from_linear(T)
    kmat = build_matrix(f, basis)
    values = diagonal_eigenvalues(kmat, lam)
    for k in range(1, basis.size + 1):
        ak = basis.alpha(k)
        want = sum(ak[l] * lam[l] for l in range(3))
        assert abs(values[k - 1] - want) < 1e-12
    with pytest.raises(ValueError):
        diagonal_eigenvalues(kmat, lam + 0.5)


# csv export -----------------------------------------------------------------


def parse_cell(cell):
    # format is re+imi or re-imi with repr floats
    body = cell[:-1]  # strip trailing i
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "eE":
            return complex(float(body[:i]), float(body[i:]))
    raise AssertionError(f"unparseable cell {cell!r}")


def test_dense_csv_roundtrips_every_value():
    _, f2 = polynomial_pair()
    basis = build_basis(2, 3)
    kmat = build_matrix(f2, basis)
    buf = io.StringIO()
    export_dense_csv(kmat, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0].startswith("row_index,m1_0,m0_1,m2_0")
    assert len(lines) == basis.size + 1
    for k in range(1, basis.size + 1):
        cells = lines[k].split(",")
        assert cells[0] == str(k)
        for j in range(1, basis.size + 1):
            assert parse_cell(cells[j]) == stored_entry(kmat, k, j)
