import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman_clf import analysis
from koopman_clf.certificate import (
    EPSILON_FLOOR,
    CommonLyapunovFunction,
    ValueScratch,
    WeightScheme,
    _extrapolate,
    _sup_by_degree,
    build_operator,
    certified_radius_dd,
    check_dd_condition,
    check_poly_condition,
    convergence_check,
    coupling_scan,
    degree_maxima,
    dominance_xi_min,
    epsilon_sequence,
)
from koopman_clf.multiindex import build_basis
from koopman_clf.vectorfield import PolyVectorField
from oracles import (
    column_support,
    decay_ratio,
    dense_value_batch,
    entry,
    field_from_linear,
    indices_of_degree,
    q_value,
    stored_entry,
)

POLY = WeightScheme("polynomial", 0.99)


def poly_scan(ops, basis, scheme=POLY):
    return coupling_scan(ops, basis, scheme)


def dd_scan(ops, basis, xi, kappa):
    return coupling_scan(ops, basis, WeightScheme("diagonal_dominance", xi, kappa))


def dd_radius(ops, basis, jacs, xi, kappa):
    """certified_radius_dd on a fresh dominance scan of ``ops``."""
    scan = dd_scan(ops, basis, xi, kappa)
    return certified_radius_dd(scan, basis, dominance_xi_min(jacs))


def dd_check(ops, basis, jacs, xi, kappa, rho):
    """check_dd_condition on a fresh dominance scan of ``ops``."""
    scan = dd_scan(ops, basis, xi, kappa)
    return check_dd_condition(scan, basis, dominance_xi_min(jacs), rho)


def polynomial_pair_ops(basis, a=1.0, b=0.3):
    f1 = PolyVectorField([{(1, 0): -a}, {(0, 1): -a}])
    f2 = PolyVectorField(
        [
            {(1, 0): -a, (2, 0): b, (1, 2): -b},
            {(0, 1): -a, (1, 1): b / 2},
        ]
    )
    return [build_operator(f1, basis), build_operator(f2, basis)]


def analytic_pair(mu, degree):
    sin_comp = {(1, 0): -1.0}
    cos_comp = {(1, 0): -1.0, (2, 1): 1.0 / mu}
    p = 1
    while 2 * p + 3 <= degree:
        c = 2.0 ** (2 * p - 1) / (math.factorial(2 * p) * mu)
        sin_comp[(2 * p + 2, 1)] = (-1.0) ** (p + 1) * c
        cos_comp[(2 * p + 2, 1)] = (-1.0) ** p * c
        p += 1
    c_plus = (math.cosh(2.0) + 1.0) / 2.0
    c_minus = (math.cosh(2.0) - 1.0) / 2.0
    f1 = PolyVectorField(
        [sin_comp, {(0, 1): -1.0}], tail_l1=[1.0 + c_minus / mu, 1.0]
    )
    f2 = PolyVectorField(
        [cos_comp, {(0, 1): -1.0}], tail_l1=[1.0 + c_plus / mu, 1.0]
    )
    return f1, f2


def linear_nonnormal_ops(basis):
    A1 = np.array([[-1.0, 0.6], [0.0, -1.0]])
    A2 = np.diag([-1.0, -1.5])
    ops = [
        build_operator(field_from_linear(A), basis) for A in (A1, A2)
    ]
    return ops, [A1, A2]


# scheme objects -------------------------------------------------------------


def test_weight_scheme_validation():
    WeightScheme("polynomial", 0.99)
    WeightScheme("diagonal_dominance", 0.3, 0.6)
    with pytest.raises(ValueError):
        WeightScheme("other", 0.5)
    with pytest.raises(ValueError):
        WeightScheme("polynomial", 1.0)
    with pytest.raises(ValueError):
        WeightScheme("polynomial", 0.5, 0.2)
    with pytest.raises(ValueError):
        WeightScheme("diagonal_dominance", 0.5)
    with pytest.raises(ValueError):
        WeightScheme("diagonal_dominance", 0.5, 0.5)


def test_build_operator_rejects_bad_fields():
    basis = build_basis(2, 4)
    lower = PolyVectorField([{(1, 0): -1.0}, {(1, 0): 0.5, (0, 1): -1.0}])
    with pytest.raises(ValueError):
        build_operator(lower, basis)
    unstable = PolyVectorField([{(1, 0): 1.0}, {(0, 1): -1.0}])
    with pytest.raises(ValueError):
        build_operator(unstable, basis)


# weights --------------------------------------------------------------------


def weights(scheme, op, j, k):
    """Weight b_jk of the scheme for basis positions j, k (may be equal).

    The b-split behind ``q_value``: Q_jk = |entry|^2 / (4 |Re lam_j|
    |Re lam_k| b_jk b_kj).
    """
    basis = op.kmat.basis
    n = basis.dimension
    if j == k:
        if scheme.kind == "polynomial":
            return 1.0 - scheme.xi
        return 1.0 - scheme.xi - scheme.kappa
    coupled = stored_entry(op.kmat, k, j) != 0 or stored_entry(op.kmat, j, k) != 0
    if not coupled:
        return 0.0
    if scheme.kind == "polynomial":
        return scheme.xi / (2.0 * op.coupling_count)
    dj, dk = basis.degree(j), basis.degree(k)
    if dj == dk:
        return scheme.xi / float(n * n - n)
    if dk < dj:
        # incoming coupling: share of the absolute sum feeding position j
        e = abs(stored_entry(op.kmat, k, j))
        return 0.5 * scheme.kappa * e / op.col_sums[j]
    # outgoing coupling toward higher degree
    e = abs(stored_entry(op.kmat, j, k))
    return 0.5 * scheme.kappa * e / op.row_sums[j]


def weight_row_sum(scheme, op, j):
    """sum_k b_jk over the realized support of row j (k inside the basis)."""
    total = weights(scheme, op, j, j)
    kmat = op.kmat
    partners = set()
    partners.update(int(c) for c in kmat.j[kmat.k == j] if c != j)
    partners.update(k for k, _ in column_support(kmat).get(j, []) if k != j)
    for k in sorted(partners):
        total += weights(scheme, op, j, k)
    return total


def test_polynomial_weights_split_the_budget_uniformly():
    basis = build_basis(2, 6)
    ops = polynomial_pair_ops(basis)
    scheme = WeightScheme("polynomial", 0.99)
    op = ops[1]  # three couplings
    assert op.coupling_count == 3
    j = basis.index_of((2, 0))
    k = basis.index_of((1, 0))
    assert weights(scheme, op, j, j) == pytest.approx(0.01)
    assert weights(scheme, op, j, k) == pytest.approx(0.99 / 6.0)
    # uncoupled pair gets nothing
    assert weights(scheme, op, basis.index_of((0, 2)), k) == 0.0


def test_weight_row_sums_never_exceed_one():
    basis = build_basis(2, 8)
    scheme = WeightScheme("polynomial", 0.99)
    for op in polynomial_pair_ops(basis):
        for j in range(1, basis.size + 1):
            assert weight_row_sum(scheme, op, j) <= 1.0 + 1e-12
    f1, f2 = analytic_pair(3.0, 12)
    scheme_dd = WeightScheme("diagonal_dominance", 0.01, 0.9)
    for f in (f1, f2):
        op = build_operator(f, build_basis(2, 12))
        for j in range(1, op.kmat.size + 1):
            assert weight_row_sum(scheme_dd, op, j) <= 1.0 + 1e-12


def test_q_value_equals_entry_ratio_over_weight_product():
    basis = build_basis(2, 8)
    ops = polynomial_pair_ops(basis)
    scheme = WeightScheme("polynomial", 0.99)
    op = ops[1]
    columns = column_support(op.kmat)
    checked = 0
    for j in range(2, basis.size + 1):
        for k, v in columns.get(j, []):
            if k >= j:
                continue
            direct = q_value(op, scheme, j, k)
            bjk = weights(scheme, op, j, k)
            via_weights = abs(v) ** 2 / (
                4.0 * op.re_decay[j] * op.re_decay[k] * bjk * bjk
            )
            assert direct == pytest.approx(via_weights, rel=1e-12)
            checked += 1
    assert checked > 20


def test_q_value_literal_and_validation():
    basis = build_basis(2, 6)
    op = polynomial_pair_ops(basis)[1]
    scheme = WeightScheme("polynomial", 0.99)
    j = basis.index_of((2, 0))
    k = basis.index_of((1, 0))
    # K^2 |e|^2 / |Re lam_j Re lam_k| with K = 3, e = 0.3, lam = -2, -1
    assert q_value(op, scheme, j, k, include_scheme_factor=False) == pytest.approx(
        0.405
    )
    assert q_value(op, scheme, j, k) == pytest.approx(0.405 / 0.99**2)
    assert q_value(op, scheme, j, basis.index_of((0, 1))) == 0.0
    with pytest.raises(ValueError):
        q_value(op, scheme, k, j)


# polynomial scheme condition ------------------------------------------------


def test_poly_condition_value_and_per_degree_profile():
    N = 12
    a, b = 1.0, 0.3
    basis = build_basis(2, N)
    ops = polynomial_pair_ops(basis, a, b)
    cond = check_poly_condition(poly_scan(ops, basis), basis)
    assert cond["pass"]
    assert cond["q_sup"] == pytest.approx(9 * b * b * (N - 1) / (a * a * N), abs=1e-10)
    assert cond["slack"] == 1.0 - cond["q_sup"]
    for d, v in cond["by_degree"].items():
        if d >= 2:
            assert v == pytest.approx(9 * b * b * (d - 1) / (a * a * d), abs=1e-10)
    # limit of the increasing profile is recovered by extrapolation
    assert cond["extrapolated"] == pytest.approx(9 * b * b / (a * a), abs=1e-6)
    assert cond["source"] == "extrapolated"


def test_poly_condition_fails_for_strong_coupling():
    basis = build_basis(2, 12)
    ops = polynomial_pair_ops(basis, 1.0, 0.5)
    cond = check_poly_condition(poly_scan(ops, basis), basis)
    assert not cond["pass"]
    assert cond["q_sup"] == pytest.approx(2.0625, abs=1e-10)
    assert cond["slack"] < 0.0


def test_poly_condition_sup_matches_bruteforce_scan():
    basis = build_basis(2, 7)
    a, b = 1.0, 0.3
    f1 = PolyVectorField([{(1, 0): -a}, {(0, 1): -a}])
    f2 = PolyVectorField(
        [
            {(1, 0): -a, (2, 0): b, (1, 2): -b},
            {(0, 1): -a, (1, 1): b / 2},
        ]
    )
    ops = [build_operator(f1, basis), build_operator(f2, basis)]
    cond = check_poly_condition(poly_scan(ops, basis), basis)
    brute = 0.0
    for f in (f1, f2):
        K = f.term_count(exclude_linear_diag=True)
        for j in range(1, basis.size + 1):
            for k in range(1, j):
                e = abs(entry(f, basis, k, j))
                if e == 0:
                    continue
                lj = a * basis.degree(j)
                lk = a * basis.degree(k)
                brute = max(brute, (K * e) ** 2 / (lj * lk))
    assert cond["q_sup"] == pytest.approx(brute, rel=1e-12)


# diagonal dominance scheme --------------------------------------------------


def test_dominance_xi_min_hand_values():
    J1 = np.array([[-1.0, 0.6], [0.0, -1.0]])
    assert dominance_xi_min([J1]) == pytest.approx(0.6)
    J2 = np.array([[-1.0, 0.6], [0.0, -4.0]])
    assert dominance_xi_min([J2]) == pytest.approx(0.6)  # first inequality binds
    assert dominance_xi_min([np.diag([-1.0, -2.0])]) == 0.0
    assert dominance_xi_min([np.array([[-2.0]])]) == 0.0


def test_dd_on_linear_family_certifies_full_disk():
    basis = build_basis(2, 8)
    ops, jacs = linear_nonnormal_ops(basis)
    rho, detail = dd_radius(ops, basis, jacs, 0.9, 0.05)
    assert rho == 1.0
    assert detail["pass"]
    # same-degree ratio is flat in the degree: (0.6 / 0.9)^2
    assert detail["same_degree_sup"] == pytest.approx((0.6 / 0.9) ** 2)
    assert detail["same_degree_slack"] == 1.0 - detail["same_degree_sup"]
    assert detail["cross_sup"] == 0.0
    assert detail["rho_slack"] == 1.0 - detail["extrapolated"]


def test_dd_dominance_failure_gives_zero_radius():
    basis = build_basis(2, 6)
    ops, jacs = linear_nonnormal_ops(basis)
    rho, detail = dd_radius(ops, basis, jacs, 0.5, 0.05)
    assert rho == 0.0
    assert not detail["dominance_ok"]
    assert detail["xi_min"] == pytest.approx(0.6)


def test_dd_radius_of_analytic_pair_tracks_closed_form():
    mu = 3.0
    degree = 20
    basis = build_basis(2, degree)
    f1, f2 = analytic_pair(mu, degree)
    ops = [build_operator(f1, basis), build_operator(f2, basis)]
    jacs = [f.jacobian_at_origin() for f in (f1, f2)]
    xi = 1e-6
    kappa = 0.98 * (1 - xi)
    rho, detail = dd_radius(ops, basis, jacs, xi, kappa)
    closed = 1.0 / (1.0 + (math.cosh(2.0) + 1.0) / (2.0 * mu))
    assert 0.95 * closed <= rho <= closed + 1e-6
    assert detail["pass"]


def test_dd_radius_is_the_transition_point():
    basis = build_basis(2, 16)
    f1, f2 = analytic_pair(2.4, 16)
    ops = [build_operator(f1, basis), build_operator(f2, basis)]
    jacs = [f.jacobian_at_origin() for f in (f1, f2)]
    rho, _ = dd_radius(ops, basis, jacs, 1e-6, 0.97)
    assert 0.0 < rho < 1.0
    assert dd_check(ops, basis, jacs, 1e-6, 0.97, rho * 0.999)["pass"]
    assert not dd_check(ops, basis, jacs, 1e-6, 0.97, rho * 1.001)["pass"]


@pytest.mark.parametrize("mu, degree", [(2.4, 16), (3.0, 12)])
def test_dd_radius_is_the_last_float_that_passes(mu, degree):
    basis = build_basis(2, degree)
    f1, f2 = analytic_pair(mu, degree)
    ops = [build_operator(f1, basis), build_operator(f2, basis)]
    jacs = [f.jacobian_at_origin() for f in (f1, f2)]
    xi, kappa = 1e-6, 0.98 * (1 - 1e-6)
    rho, detail = dd_radius(ops, basis, jacs, xi, kappa)
    assert 0.0 < rho < 1.0
    assert detail == dd_check(ops, basis, jacs, xi, kappa, rho)
    assert detail["pass"]
    assert detail["rho_slack"] > 0.0
    above = dd_check(ops, basis, jacs, xi, kappa, math.nextafter(rho, 2.0))
    assert not above["pass"]
    assert above["rho_slack"] <= 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dd_radius_fails_closed_on_non_finite_ratios(bad):
    # a stored same-degree coupling entry feeds the same-degree ratio
    basis = build_basis(2, 6)
    ops, jacs = linear_nonnormal_ops(basis)
    assert dd_radius(ops, basis, jacs, 0.9, 0.05)[0] == 1.0
    kmat = ops[0].kmat
    hit = (kmat.k == basis.index_of((1, 1))) & (kmat.j == basis.index_of((0, 2)))
    assert hit.sum() == 1
    kmat.v[hit] = bad
    rho, detail = dd_radius(ops, basis, jacs, 0.9, 0.05)
    assert rho == 0.0
    assert not detail["pass"]
    assert not check_poly_condition(poly_scan(ops, basis), basis)["pass"]
    # a column sum feeds the cross-degree ratios and their extrapolation
    basis = build_basis(2, 12)
    f1, f2 = analytic_pair(3.0, 12)
    ops = [build_operator(f1, basis), build_operator(f2, basis)]
    jacs = [f.jacobian_at_origin() for f in (f1, f2)]
    assert dd_radius(ops, basis, jacs, 1e-6, 0.97)[0] > 0.0
    ops[1].col_sums[basis.index_of((3, 1))] = bad
    rho, detail = dd_radius(ops, basis, jacs, 1e-6, 0.97)
    assert rho == 0.0
    assert not detail["pass"]


def test_dd_condition_rejects_radius_outside_unit_interval():
    basis = build_basis(2, 4)
    ops, jacs = linear_nonnormal_ops(basis)
    for rho in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            dd_check(ops, basis, jacs, 0.9, 0.05, rho)


# extrapolation --------------------------------------------------------------


def test_extrapolate_recovers_affine_limit():
    by_degree = {d: 0.75 - 1.5 / d for d in range(2, 12)}
    est, source = _extrapolate(by_degree)
    assert source == "extrapolated"
    assert est == pytest.approx(0.75, abs=1e-9)


def test_extrapolate_keeps_computed_max_when_profile_decreases():
    by_degree = {2: 0.5, 3: 0.4, 4: 0.35, 5: 0.33, 6: 0.32}
    est, source = _extrapolate(by_degree)
    assert source == "computed"
    assert est == 0.5


def test_extrapolate_needs_enough_points():
    est, source = _extrapolate({2: 0.1, 3: 0.2})
    assert source == "computed" and est == 0.2


# weight recursion -----------------------------------------------------------


def test_epsilon_recursion_closed_form_on_single_chain():
    # one-dimensional field -z + c z^2: every step couples k -> k+1 only,
    # so the recursion solves in closed form
    c, xi, eta = 0.5, 0.99, 0.5
    basis = build_basis(1, 8)
    op = build_operator(PolyVectorField([{(1,): -1.0, (2,): c}]), basis)
    eps, eta_eff, _, _ = epsilon_sequence(
        poly_scan([op], basis, WeightScheme("polynomial", xi)), basis, eta=eta
    )
    assert eta_eff == eta
    want = [1.0]
    for j in range(2, 9):
        k = j - 1
        want.append(want[-1] * (1 + eta) * k * c * c / (xi * xi * j))
    assert np.allclose(eps, want, rtol=1e-12)


def test_epsilon_first_weight_is_one_and_floors_are_tiny():
    basis = build_basis(2, 4)
    # single coupling (1,0) -> (2,0); everything else is uncoupled
    f = PolyVectorField([{(1, 0): -1.0, (2, 0): 0.4}, {(0, 1): -1.0}])
    op = build_operator(f, basis)
    eps, _, _, _ = epsilon_sequence(poly_scan([op], basis), basis)
    assert eps[0] == 1.0
    assert eps[basis.index_of((0, 1)) - 1] == EPSILON_FLOOR
    assert eps[basis.index_of((2, 0)) - 1] > EPSILON_FLOOR
    # floor follows the previous degree's largest weight downward
    m = degree_maxima(eps, basis)
    for d in (2, 3, 4):
        idx = indices_of_degree(basis, d)
        floor = EPSILON_FLOOR * m[d - 2]
        assert min(eps[k - 1] for k in idx) == pytest.approx(floor)


def test_epsilon_recursion_strictness_across_subsystems():
    basis = build_basis(2, 10)
    ops = polynomial_pair_ops(basis)
    scheme = WeightScheme("polynomial", 0.99)
    eps, eta_eff, _, _ = epsilon_sequence(poly_scan(ops, basis, scheme), basis)
    assert eta_eff > 0
    full = np.concatenate([[np.nan], eps])
    for op in ops:
        columns = column_support(op.kmat)
        for j in range(2, basis.size + 1):
            for k, v in columns.get(j, []):
                if k >= j or v == 0:
                    continue
                assert full[j] > full[k] * q_value(op, scheme, j, k)


def test_epsilon_sequence_carries_a_nan_ratio_into_its_weight():
    # (1,0) -> (2,0) is the only coupling into (2,0); a running Python max
    # started at 0.0 would drop its NaN ratio and leave the floor there
    basis = build_basis(2, 6)
    ops = polynomial_pair_ops(basis)
    k, j = basis.index_of((1, 0)), basis.index_of((2, 0))
    kmat = ops[1].kmat
    hit = (kmat.k == k) & (kmat.j == j)
    assert hit.sum() == 1
    kmat.v[hit] = math.nan
    eps, _, q_sup, _ = epsilon_sequence(poly_scan(ops, basis), basis)
    assert math.isnan(q_sup)
    assert math.isnan(eps[j - 1])


def test_epsilon_eta_capped_when_growth_would_diverge():
    basis = build_basis(2, 12)
    ops = polynomial_pair_ops(basis)
    eps, eta_eff, _, _ = epsilon_sequence(poly_scan(ops, basis), basis, eta=0.5)
    # xi-free limit 0.81 over xi^2 leaves less than 0.5 of headroom
    s = 0.81 / 0.99**2
    assert eta_eff == pytest.approx(0.5 * (1.0 / s - 1.0))
    assert eta_eff < 0.5
    conv = convergence_check(eps, basis, 1.0)
    assert conv.convergent


def test_epsilon_sequence_validates_eta():
    basis = build_basis(1, 4)
    op = build_operator(PolyVectorField([{(1,): -1.0}]), basis)
    with pytest.raises(ValueError):
        epsilon_sequence(poly_scan([op], basis), basis, eta=0.0)


def test_scheme_ratio_scan_matches_per_pair_maximum():
    basis = build_basis(2, 6)
    ops = polynomial_pair_ops(basis)
    scheme = WeightScheme("polynomial", 0.99)
    scan = coupling_scan(ops, basis, scheme)
    sup, arg, by_degree = _sup_by_degree(scan, scan.q, basis)
    assert epsilon_sequence(scan, basis)[2:] == (sup, by_degree)
    brute = 0.0
    for op in ops:
        columns = column_support(op.kmat)
        for j in range(2, basis.size + 1):
            for k, v in columns.get(j, []):
                if k < j and v != 0:
                    brute = max(brute, q_value(op, scheme, j, k))
    assert sup == pytest.approx(brute, rel=1e-12)
    assert max(by_degree.values()) == pytest.approx(sup, rel=1e-12)
    assert arg["j"] >= 1 and arg["subsystem"] in (0, 1)


# convergence ----------------------------------------------------------------


def test_convergence_of_exact_geometric_weights():
    basis = build_basis(1, 10)
    r = 0.5
    eps = np.array([r**d for d in range(1, 11)])
    rho = 0.9
    conv = convergence_check(eps, basis, rho)
    x = r * rho * rho
    partial = sum(d * x**d for d in range(1, 11))
    assert conv.partial_sum == pytest.approx(partial, rel=1e-12)
    assert conv.ratio == pytest.approx(r, rel=1e-12)
    assert conv.convergent
    # the tail bound dominates the exact remainder of the series
    exact_tail = sum(d * x**d for d in range(11, 4000))
    assert conv.tail_bound >= exact_tail
    assert conv.tail_bound < 10 * exact_tail + 1e-12


def test_constant_weights_diverge_on_the_full_disk():
    basis = build_basis(2, 8)
    eps = np.ones(basis.size)
    conv = convergence_check(eps, basis, 1.0)
    assert not conv.convergent
    assert conv.ratio == pytest.approx(1.0)
    assert conv.tail_bound == float("inf")
    # the same weights converge strictly inside the disk
    assert convergence_check(eps, basis, 0.9).convergent


def test_decay_ratio_uses_even_window_for_alternating_chains():
    basis = build_basis(1, 9)
    # maxima alternate around a geometric trend: r, r^2/2, r^3, r^4/2, ...
    r = 0.4
    eps = np.array(
        [r**d / (2.0 if d % 2 == 0 else 1.0) for d in range(1, 10)]
    )
    got = decay_ratio(eps, basis)
    assert got == pytest.approx(r, rel=1e-12)


def test_convergence_check_fails_closed_on_non_finite_weights():
    basis = build_basis(2, 6)
    conv = convergence_check(np.full(basis.size, np.nan), basis, 0.9)
    assert not conv.convergent
    assert conv.tail_bound == math.inf


@pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -1.0])
def test_epsilon_sequence_rejects_non_finite_or_non_positive_eta(eta):
    basis = build_basis(2, 4)
    ops = polynomial_pair_ops(basis)
    with pytest.raises(ValueError, match="eta must be finite and positive"):
        epsilon_sequence(poly_scan(ops, basis), basis, eta=eta)


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_report_is_certified_only_with_finite_positive_weights(monkeypatch, bad):
    real = analysis.epsilon_sequence

    def spoiled(*args, **kwargs):
        eps, eta_eff, q_sup, q_by_degree = real(*args, **kwargs)
        eps = eps.copy()
        eps[3] = bad
        return eps, eta_eff, q_sup, q_by_degree

    monkeypatch.setattr(analysis, "epsilon_sequence", spoiled)
    f1 = PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.0}])
    f2 = PolyVectorField([{(1, 0): -1.0, (2, 0): 0.3}, {(0, 1): -1.0}])
    report = analysis.analyze_family([f1, f2], 6)
    assert not report.certified
    assert report.failure["stage"] == "convergence"
    assert report.exit_code == 4
    assert report.rho_certified is None


def test_convergence_check_validates_input():
    basis = build_basis(2, 4)
    eps = np.ones(basis.size)
    with pytest.raises(ValueError):
        convergence_check(eps, basis, 0.0)
    with pytest.raises(ValueError):
        convergence_check(eps[:-1], basis, 0.9)


# evaluation of the certificate ----------------------------------------------


def clf_evaluate(epsilon, P_inv, basis, z):
    """Value and truncation-tail estimate of the certificate at ``z``.

    Requires the flag coordinates of z to lie inside the open unit
    polydisk, where the monomial series makes sense.
    """
    clf = CommonLyapunovFunction(epsilon, P_inv, basis)
    zh = clf.hat(np.asarray(z, dtype=complex))
    if np.max(np.abs(zh)) >= 1.0:
        raise ValueError("point lies outside the unit polydisk in flag coordinates")
    return clf.value_batch(np.asarray(z, dtype=complex)[None])[0], tail_estimate(clf, z)


def tail_estimate(clf, z):
    """Geometric estimate of the truncated part of the series at z."""
    basis = clf.basis
    ratio = decay_ratio(clf.epsilon, basis)
    N = basis.max_degree
    m = degree_maxima(clf.epsilon, basis)
    m_ref = float(max(m[N - 1], m[N - 2] if N >= 2 else m[N - 1]))
    s = float(np.max(np.abs(clf.hat(z))) ** 2)
    x = ratio * s
    if s == 0.0:
        return 0.0
    if x >= 1.0:
        return float("inf")
    tail, d = 0.0, N + 1
    while d < N + 200000:
        term = basis.count_of_degree(d) * m_ref * ratio ** (d - N) * s**d
        tail += term
        if term < 1e-22 and d > N + 4:
            break
        d += 1
    return tail


def test_clf_value_matches_direct_series_sum():
    basis = build_basis(2, 6)
    rng = np.random.default_rng(2)
    eps = rng.uniform(0.1, 1.0, basis.size)
    clf = CommonLyapunovFunction(eps, np.eye(2, dtype=complex), basis)
    for _ in range(5):
        z = 0.6 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        want = sum(
            eps[k - 1]
            * abs(z[0]) ** (2 * basis.alpha(k)[0])
            * abs(z[1]) ** (2 * basis.alpha(k)[1])
            for k in range(1, basis.size + 1)
        )
        assert clf.value_batch(z[None])[0] == pytest.approx(want, rel=1e-12)


def test_clf_respects_flag_coordinates():
    basis = build_basis(2, 4)
    P_inv = np.array([[0.5, 0.25], [0.0, 0.5]], dtype=complex)
    eps = np.ones(basis.size)
    clf = CommonLyapunovFunction(eps, P_inv, basis)
    z = np.array([0.4, -0.3 + 0.2j])
    zh = P_inv @ z
    direct = CommonLyapunovFunction(eps, np.eye(2, dtype=complex), basis)
    assert clf.value_batch(z[None])[0] == pytest.approx(
        direct.value_batch(zh[None])[0], rel=1e-12
    )


def test_clf_evaluate_tail_is_exact_for_geometric_weights():
    basis = build_basis(1, 10)
    r = 0.5
    eps = np.array([r**d for d in range(1, 11)])
    z = np.array([0.8 + 0j])
    value, tail = clf_evaluate(eps, np.eye(1, dtype=complex), basis, z)
    s = abs(z[0]) ** 2
    assert value == pytest.approx(sum(r**d * s**d for d in range(1, 11)), rel=1e-12)
    # the reference weight is the larger of the last two degree maxima, so
    # the estimate covers the exact remainder with a factor 1/r to spare
    exact_tail = sum(r**d * s**d for d in range(11, 3000))
    assert tail >= exact_tail
    assert tail == pytest.approx(exact_tail / r, rel=1e-9)


def test_clf_evaluate_rejects_points_outside_the_polydisk():
    basis = build_basis(1, 4)
    eps = np.ones(basis.size)
    with pytest.raises(ValueError):
        clf_evaluate(eps, np.eye(1, dtype=complex), basis, np.array([1.0 + 0j]))


def test_clf_batch_matches_scalar_values():
    basis = build_basis(2, 5)
    rng = np.random.default_rng(8)
    eps = rng.uniform(0.01, 1.0, basis.size)
    P_inv = np.array([[1.0, 0.3], [0.0, 1.0]], dtype=complex)
    clf = CommonLyapunovFunction(eps, P_inv, basis)
    Z = 0.5 * (rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))
    batch = clf.value_batch(Z)
    for i in range(9):
        assert batch[i] == pytest.approx(clf.value_batch(Z[i][None])[0], rel=1e-12)


def gathered_power_values(clf, Z):
    """V as a product of gathered power-table columns per monomial."""
    W = np.abs(clf.hat(Z)) ** 2
    exps = clf.basis.exponents[1:]
    top = int(exps.max())
    acc = np.ones((W.shape[0], exps.shape[0]))
    for c in range(W.shape[1]):
        t = np.empty((W.shape[0], top + 1))
        t[:, 0] = 1.0
        for p in range(1, top + 1):
            t[:, p] = t[:, p - 1] * W[:, c]
        acc *= t[:, exps[:, c]]
    return acc @ clf.epsilon


@pytest.mark.parametrize("n,N", [(1, 12), (2, 12), (2, 30), (3, 7)])
def test_clf_degree_grid_matches_gathered_powers(n, N):
    basis = build_basis(n, N)
    rng = np.random.default_rng(n * 100 + N)
    eps = rng.uniform(0.01, 1.0, basis.size)
    P_inv = np.eye(n) + np.triu(0.3 * rng.normal(size=(n, n)), 1)
    clf = CommonLyapunovFunction(eps, P_inv, basis)
    Z = 0.45 * (rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n)))
    want = gathered_power_values(clf, Z)
    got = clf.value_batch(Z)
    assert got.shape == (40,)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-13)


@pytest.mark.parametrize("n,N", [(1, 12), (2, 12), (2, 30), (3, 7), (4, 5)])
def test_clf_scratch_values_are_the_dense_contraction_bit_for_bit(n, N):
    basis = build_basis(n, N)
    rng = np.random.default_rng(500 + 10 * n + N)
    eps = rng.uniform(0.01, 1.0, basis.size) * 10.0 ** rng.uniform(-14, 0, basis.size)
    P_inv = np.eye(n) + np.triu(0.3 * rng.normal(size=(n, n)), 1)
    clf = CommonLyapunovFunction(eps, P_inv, basis)
    for B in (1, 2, 7, 150, 5000):
        Z = 0.45 * (rng.normal(size=(B, n)) + 1j * rng.normal(size=(B, n)))
        ZT = np.ascontiguousarray(Z.T)  # an integration's (B, n) view
        scratch = ValueScratch(clf, B)
        want = dense_value_batch(clf, ZT.T)
        got = clf.value_batch(ZT.T, scratch=scratch)
        assert np.shares_memory(got, scratch.acc) or np.shares_memory(got, scratch.spare)
        assert np.array_equal(got, want)
        assert np.array_equal(clf.value_batch(ZT.T), want)
    with pytest.raises(ValueError, match="rows"):
        clf.value_batch(Z[:3], scratch=scratch)


def test_value_batch_leaves_the_flag_coordinates_and_moduli_of_its_points():
    # for a lone point and for a batch, each call overwrites what the last
    # one left in the scratch
    basis = build_basis(2, 8)
    rng = np.random.default_rng(41)
    P_inv = np.array([[1.0, 0.4 - 0.3j], [0.0, 1.0]])
    clf = CommonLyapunovFunction(rng.uniform(0.1, 1.0, basis.size), P_inv, basis)
    for B in (1, 9):
        scratch = ValueScratch(clf, B)
        for _ in range(2):
            Z = 0.45 * (rng.normal(size=(B, 2)) + 1j * rng.normal(size=(B, 2)))
            clf.value_batch(Z, scratch=scratch)
            zh = clf.hat(Z)
            bits = (scratch.zh.view(np.uint64), scratch.mod.view(np.uint64))
            assert np.array_equal(bits[0], zh.view(np.uint64))
            assert np.array_equal(bits[1], np.abs(zh).view(np.uint64))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    N=st.integers(2, 8),
    B=st.integers(2, 40),
    k=st.integers(1, 39),
    seed=st.integers(0, 2**32 - 1),
)
def test_v_of_a_point_does_not_depend_on_its_batch(n, N, B, k, seed):
    # every row's V, and its flag coordinates, alone, in the whole batch
    # and in batches of k rows (the last one maybe shorter) are one number
    rng = np.random.default_rng(seed)
    basis = build_basis(n, N)
    eps = rng.uniform(0.01, 1.0, basis.size) * 10.0 ** rng.uniform(-14, 0, basis.size)
    P_inv = np.eye(n) + np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    clf = CommonLyapunovFunction(eps, P_inv, basis)
    Z = 0.45 * (rng.normal(size=(B, n)) + 1j * rng.normal(size=(B, n)))
    whole = clf.value_batch(Z)
    alone = [clf.value_batch(Z[i:i + 1])[0] for i in range(B)]
    chunks = np.concatenate([clf.value_batch(Z[i:i + k]) for i in range(0, B, k)])
    assert np.array_equal(alone, whole) and np.array_equal(chunks, whole)
    zh = clf.hat(Z)
    assert all(np.array_equal(clf.hat(z), h) for z, h in zip(Z, zh))
    scratch = ValueScratch(clf, 1)
    for i in range(B):
        assert clf.value_batch(Z[i:i + 1], scratch=scratch)[0] == whole[i]
        assert np.array_equal(scratch.zh[0], zh[i])
