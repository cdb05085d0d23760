"""Array scans of the coupled pairs against a per-pair Python scan.

The reference below walks the stored entries of every operator one pair
at a time and keeps a running maximum, with each ratio written as a scalar
formula.  The array scan in ``koopman_clf.certificate`` must reproduce
it exactly: every ratio, the sup, the pair it is attributed to, and the
per-degree maxima.  The operator set-up and the weight recursion, which
run on the same arrays, must equal their per-row and per-column forms.
One scan feeds both the scheme condition and the weights, so the report
states each sup as one number.
"""

import json
import math

import numpy as np
import pytest

from koopman_clf import analysis, certificate
from koopman_clf.certificate import (
    ETA_FLOOR,
    EPSILON_FLOOR,
    WeightScheme,
    _coupled_pairs,
    _extrapolate,
    _sup_by_degree,
    build_operator,
    certified_radius_dd,
    check_dd_condition,
    check_poly_condition,
    coupling_scan,
    degree_maxima,
    dominance_xi_min,
    epsilon_sequence,
)
from koopman_clf.cli import main
from koopman_clf.config import SystemConfig, example1_config, example2_config
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
    t = op.coupling_count * e
    return t * t / (op.re_decay[j] * op.re_decay[k])


def dd_values(basis, xi, kappa):
    n = basis.dimension
    D = (n * n - n) / 2.0

    def same_value(i, op, k, j, e):
        if basis.degree(j) != basis.degree(k):
            return 0.0
        t = D * e / xi
        return t * t / (op.re_decay[j] * op.re_decay[k])

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
    return ops, basis, fields


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
    scan = coupling_scan(ops, basis, WeightScheme("polynomial", 0.99))
    assert scan.r.tolist() == pair_values(ops, poly_value)
    cond = check_poly_condition(scan, basis)
    sup, arg, by_degree = by_degree_max(ops, basis, poly_value)
    assert cond["q_sup"] == sup
    assert cond["argmax"] == arg
    assert cond["by_degree"] == by_degree


def test_dd_ratios_match_reference_scan(family):
    ops, basis, fields = family
    jacs = [f.jacobian_at_origin() for f in fields]
    same_value, cross_value = dd_values(basis, XI, KAPPA)

    def value(i, op, k, j, e):
        return same_value(i, op, k, j, e) + cross_value(i, op, k, j, e)

    scan = coupling_scan(ops, basis, WeightScheme("diagonal_dominance", XI, KAPPA))
    assert scan.q.tolist() == pair_values(ops, value)
    same_ref = by_degree_max(ops, basis, same_value)
    cross_ref = by_degree_max(ops, basis, cross_value)
    record = check_dd_condition(scan, basis, dominance_xi_min(jacs), 1.0)
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

    scan = coupling_scan(ops, basis, scheme)
    assert scan.q.tolist() == pair_values(ops, value)
    assert _sup_by_degree(scan, scan.q, basis) == by_degree_max(ops, basis, value)


def test_column_sums_match_the_per_column_sum(family):
    ops, basis, _ = family
    for op in ops:
        columns = column_support(op.kmat)
        want = [col_abs_sum(columns, j) for j in range(1, basis.size + 1)]
        assert op.col_sums[1:].tolist() == want


def test_operator_set_up_matches_the_per_row_formulas(family):
    ops, basis, fields = family
    positions = range(1, basis.size + 1)
    for op, f in zip(ops, fields):
        decay = [-stored_entry(op.kmat, k, k).real for k in positions]
        assert op.re_decay[1:].tolist() == decay
        want = [row_abs_sum(op.kmat, f, k) for k in positions]
        assert op.row_sums[1:].tolist() == want


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
        coupling_scan(ops, basis, scheme), basis, eta=0.5, rho=rho
    )
    want = column_walk_weights(ops, basis, scheme, 0.5, rho)
    assert eps.tolist() == want[0].tolist()
    assert (eta_eff, q_sup, q_by_degree) == want[1:]


# one scan per analysis -------------------------------------------------------


@pytest.mark.parametrize("make", [example1_config, example2_config])
def test_analyze_family_scans_the_coupled_pairs_once(monkeypatch, make):
    calls = []
    real = certificate._coupled_pairs

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(certificate, "_coupled_pairs", counted)
    cfg = make(degree=12)
    report = analysis.analyze_family(
        cfg.build_family(), 12, scheme_kind=cfg.scheme_kind
    )
    assert report.certified
    assert len(calls) == 1


def test_each_condition_refuses_a_scan_of_the_other_scheme(family):
    ops, basis, _ = family
    poly = coupling_scan(ops, basis, WeightScheme("polynomial", 0.99))
    dd = coupling_scan(ops, basis, WeightScheme("diagonal_dominance", XI, KAPPA))
    with pytest.raises(ValueError, match="polynomial scan"):
        check_poly_condition(dd, basis)
    with pytest.raises(ValueError, match="dominance scan"):
        check_dd_condition(poly, basis, 0.0, 1.0)


def assert_one_sup(kind, q_sup, cond, xi):
    """The weights' sup against the condition's, exactly: the polynomial
    condition is xi-free, the dominance one splits by degree."""
    if kind == "polynomial":
        assert q_sup == cond["q_sup"] / xi**2
    else:
        assert q_sup == max(cond["same_degree_sup"], cond["cross_sup"])


@pytest.mark.parametrize(
    "make, degree",
    [
        (example1_config, 12),
        (example1_config, 30),
        (example2_config, 12),
        (example2_config, 20),
    ],
)
def test_report_states_each_sup_as_one_number(make, degree):
    cfg = make(degree=degree)
    report = analysis.analyze_family(
        cfg.build_family(), degree, scheme_kind=cfg.scheme_kind
    )
    assert report.certified
    cond = report.poly_condition or report.dd_condition
    assert_one_sup(report.scheme_kind, report.q_sup, cond, report.xi)


@pytest.mark.parametrize(
    "scheme",
    [WeightScheme("polynomial", 0.99), WeightScheme("diagonal_dominance", XI, KAPPA)],
    ids=["polynomial", "diagonal_dominance"],
)
def test_scan_states_each_sup_as_one_number_across_pair_kinds(scheme):
    # no report of the complex family carries weights: it fails the
    # polynomial condition, and its dominance run overflows later in
    # convergence_check; so the pipeline steps run on its scan directly
    fields = complex_family()
    basis = build_basis(2, 40)
    ops = [build_operator(f, basis) for f in fields]
    scan = coupling_scan(ops, basis, scheme)
    assert scan.same.any() and not scan.same.all()
    if scheme.kind == "polynomial":
        cond = check_poly_condition(scan, basis)
    else:
        xi_min = dominance_xi_min([f.jacobian_at_origin() for f in fields])
        _, cond = certified_radius_dd(scan, basis, xi_min)
        assert cond["same_degree_sup"] > 0.0
    q_sup = epsilon_sequence(scan, basis, rho=0.5)[2]
    assert_one_sup(scheme.kind, q_sup, cond, scheme.xi)


# the complex family through the whole pipeline ------------------------------


def log_tail(report, basis):
    """The convergence tail of a report summed in logarithms, term by term
    to the cut-off ``convergence_check`` uses, so no power can overflow."""
    N = basis.max_degree
    conv = report.convergence
    m = degree_maxima(report.epsilon, basis)
    log_ref = math.log(max(m[N - 1], m[N - 2]))
    log_r, log_rho = math.log(conv["ratio"]), math.log(report.rho_certified)
    tail, d = 0.0, N + 1
    while True:
        term = basis.count_of_degree(d) * d * math.exp(
            log_ref + (d - N) * log_r + 2 * d * log_rho
        )
        tail += term
        if term < 1e-22 * max(1.0, conv["partial_sum"]) and d > N + 4:
            return tail
        d += 1


@pytest.mark.parametrize("degree", [6, 12, 40])
def test_fast_growing_weights_on_a_small_radius_keep_a_finite_tail(tmp_path, capsys,
                                                                   degree):
    # the weights grow by a ratio of 3000-4700 a degree and the radius is
    # 0.013-0.016, so r ** (d - N) alone overflows a float long before
    # the terms, which shrink by r * rho**2 < 1, get small
    family = complex_family()
    report = analysis.analyze_family(family, degree, scheme_kind="diagonal_dominance")
    conv = report.convergence
    assert report.certified and conv["convergent"]
    assert conv["ratio"] > 1e3 and conv["ratio"] * report.rho_certified**2 < 1
    basis = build_basis(2, degree)
    assert conv["tail_bound"] == pytest.approx(log_tail(report, basis), rel=1e-9)
    cfg = SystemConfig(
        dimension=2,
        truncation_degree=degree,
        subsystems=[(list(f.components), None) for f in family],
        scheme_kind="diagonal_dominance",
    )
    path, out = tmp_path / "sys.json", tmp_path / "r.json"
    path.write_text(cfg.to_json())
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("certified: ") and "Traceback" not in err
    written = json.loads(out.read_text())
    assert written.pop("config") == cfg.to_json_dict()
    assert written == json.loads(report.to_json())
