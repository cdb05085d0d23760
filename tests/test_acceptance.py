"""End-to-end acceptance gate.

Each test checks one shipping criterion and prints exactly one PASS/FAIL
line past the capture machinery so the verdicts show up in a plain
``pytest -v`` run.  Failures carry the collected problem descriptions.
"""

import json
import math
import sys
import time

import numpy as np
from scipy.linalg import expm

from koopman_clf.analysis import analyze_family
from koopman_clf.cli import main
from koopman_clf.config import example1_config, example2_config
from koopman_clf.koopman import build_matrix
from koopman_clf.liealg import (
    close_under_bracket,
    is_solvable,
    linear_clf,
    simultaneous_triangularize,
)
from koopman_clf.multiindex import build_basis
from koopman_clf.switchsim import audit_certificate
from koopman_clf.vectorfield import PolyVectorField, SwitchedFamily
from oracles import lie_bracket, to_dense


def _verdict(capfd, num, name, problems, note=None):
    status = "PASS" if not problems else "FAIL"
    with capfd.disabled():
        sys.stderr.write(f"acceptance criterion {num} ({name}): {status}\n")
        if note:
            sys.stderr.write(f"  ({note})\n")
        sys.stderr.flush()
    assert not problems, "; ".join(problems)


def _random_quadratic_field(rng, n=2):
    comps = []
    for l in range(n):
        table = {}
        for _ in range(4):
            alpha = tuple(int(rng.integers(0, 3)) for _ in range(n))
            if 1 <= sum(alpha) <= 2:
                table[alpha] = complex(rng.normal(), rng.normal())
        if not table:
            table = {tuple(1 if c == l else 0 for c in range(n)): -1.0 + 0j}
        comps.append(table)
    return PolyVectorField(comps)


def _random_triangular_jacobian_field(rng, n):
    # linear part: upper-triangular Jacobian with negative real diagonal
    comps = [dict() for _ in range(n)]
    for q in range(n):
        diag = tuple(1 if c == q else 0 for c in range(n))
        comps[q][diag] = complex(-rng.uniform(0.5, 2.0), rng.normal())
        for r in range(q + 1, n):
            if rng.random() < 0.7:
                alpha = tuple(1 if c == r else 0 for c in range(n))
                comps[q][alpha] = complex(rng.normal(), rng.normal())
    # arbitrary higher-degree terms never reach below the diagonal
    for _ in range(4):
        l = int(rng.integers(0, n))
        alpha = tuple(int(rng.integers(0, 3)) for _ in range(n))
        if 2 <= sum(alpha) <= 3:
            comps[l][alpha] = complex(rng.normal(), rng.normal())
    return PolyVectorField(comps)


def test_criterion_1_polynomial_pair_certification(tmp_path, capfd):
    problems = []
    cfg = tmp_path / "sys.json"
    rpt = tmp_path / "report.json"
    main(["example1", "--out", str(cfg)])
    start = time.perf_counter()
    code = main(["analyze", "--config", str(cfg), "--out", str(rpt)])
    elapsed = time.perf_counter() - start
    data = json.loads(rpt.read_text())
    if code != 0 or not data["certified"]:
        problems.append(f"analyze exit {code}, certified={data['certified']}")
    if data["rho_certified"] != 1.0:
        problems.append(f"rho_certified={data['rho_certified']!r}, wanted 1.0")
    q_sup = data["poly_condition"]["q_sup"]
    if abs(q_sup - 0.7425) > 1e-10:
        problems.append(f"xi-free q_sup={q_sup!r}, wanted 0.7425 +- 1e-10")
    if elapsed >= 10.0:
        problems.append(f"analyze took {elapsed:.1f}s, budget 10s")
    cfg_bad = tmp_path / "sys_bad.json"
    main(["example1", "--b", "0.5", "--out", str(cfg_bad)])
    code_bad = main(["analyze", "--config", str(cfg_bad), "--out", "-"])
    if code_bad != 3:
        problems.append(f"b=0.5 exit {code_bad}, wanted 3")
    _verdict(capfd, 1, "polynomial pair certified at rho=1", problems)


def test_criterion_2_per_degree_ratio_trend(capfd):
    problems = []
    report = analyze_family(
        example1_config().build_family(), 12, scheme_kind="polynomial"
    )
    by_degree = report.poly_condition["by_degree"]
    degrees = sorted(by_degree)
    values = [by_degree[d] for d in degrees]
    if degrees[-1] != 12:
        problems.append(f"missing degrees, have up to {degrees[-1]}")
    if not all(b > a for a, b in zip(values, values[1:])):
        problems.append("per-degree maxima are not increasing")
    if max(values) > 0.81 + 1e-10:
        problems.append(f"max per-degree value {max(values)!r} exceeds 0.81")
    est = report.poly_condition["extrapolated"]
    if abs(est - 0.81) > 1e-10:
        problems.append(f"extrapolated limit {est!r}, wanted 0.81")
    _verdict(capfd, 2, "ratio maxima increase toward 0.81", problems)


def test_criterion_3_analytic_pair_radius_band(tmp_path, capfd):
    problems = []
    c_plus = (math.cosh(2.0) + 1.0) / 2.0
    for mu in (2.4, 3.0, 6.0, 12.0):
        closed = 1.0 / (1.0 + c_plus / mu)
        start = time.perf_counter()
        report = analyze_family(
            example2_config(mu=mu).build_family(),
            20,
            scheme_kind="diagonal_dominance",
        )
        elapsed = time.perf_counter() - start
        if not report.certified:
            problems.append(f"mu={mu}: not certified")
            continue
        rho = report.rho_certified
        if not (0.95 * closed <= rho <= closed + 1e-6):
            problems.append(
                f"mu={mu}: rho={rho!r} outside [{0.95 * closed!r}, {closed!r}]"
            )
        if elapsed >= 60.0:
            problems.append(f"mu={mu}: took {elapsed:.1f}s, budget 60s")
    curve = tmp_path / "curve.csv"
    main(
        [
            "figure-rho",
            "--mu-min", "2.0",
            "--mu-max", "12.0",
            "--steps", "6",
            "--out", str(curve),
        ]
    )
    rhos = [
        float(line.split(",")[1])
        for line in curve.read_text().strip().split("\n")[1:]
    ]
    if not all(b > a for a, b in zip(rhos, rhos[1:])):
        problems.append("radius curve is not strictly increasing in mu")
    _verdict(capfd, 3, "analytic pair certified near closed-form radius", problems)


def test_criterion_4_bracket_commutator_identity(capfd):
    problems = []
    rng = np.random.default_rng(404)
    basis = build_basis(2, 8)
    exact_cols = [
        j for j in range(1, basis.size + 1) if sum(basis.alpha(j)) <= 6
    ]
    worst = 0.0
    for trial in range(50):
        F = _random_quadratic_field(rng)
        G = _random_quadratic_field(rng)
        MF = to_dense(build_matrix(F, basis))
        MG = to_dense(build_matrix(G, basis))
        MB = to_dense(build_matrix(lie_bracket(F, G), basis))
        C = MG @ MF - MF @ MG
        err = float(np.max(np.abs((MB - C)[:, [j - 1 for j in exact_cols]])))
        worst = max(worst, err)
        if err > 1e-10:
            problems.append(f"trial {trial}: entry mismatch {err:.2e}")
            break
    _verdict(
        capfd,
        4,
        "generator matrices satisfy the bracket identity",
        problems,
        note=f"worst entry error {worst:.2e}",
    )


def test_criterion_5_triangularity_is_exact(capfd):
    problems = []
    rng = np.random.default_rng(505)
    for trial in range(50):
        n = int(rng.integers(2, 4))
        field_ = _random_triangular_jacobian_field(rng, n)
        M = to_dense(build_matrix(field_, basis := build_basis(n, 6)))
        if np.any(np.tril(M, -1) != 0):
            problems.append(f"trial {trial}: nonzero entry below diagonal")
            break
    for trial in range(10):
        n = int(rng.integers(2, 4))
        field_ = _random_triangular_jacobian_field(rng, n)
        comps = [dict(t) for t in field_.components]
        # couple the last component to the first variable
        alpha = tuple(1 if c == 0 else 0 for c in range(n))
        comps[n - 1][alpha] = 1.0 + 0j
        M = to_dense(build_matrix(PolyVectorField(comps), build_basis(n, 6)))
        if not np.any(np.tril(M, -1) != 0):
            problems.append(f"lower-coupled trial {trial}: matrix still triangular")
            break
    _verdict(capfd, 5, "triangular Jacobians give exactly triangular matrices", problems)


def test_criterion_6_solvability_verdicts_survive_conjugation(capfd):
    problems = []
    rng = np.random.default_rng(606)
    T1 = np.triu(rng.normal(size=(3, 3)))
    T2 = np.triu(rng.normal(size=(3, 3)))
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = np.array([[0.0, 0.0], [1.0, 0.0]])
    ok, _ = is_solvable(close_under_bracket([T1, T2], tol=1e-8), tol=1e-8)
    if not ok:
        problems.append("triangular family rejected")
    ok, _ = is_solvable(close_under_bracket([E, F], tol=1e-8), tol=1e-8)
    if ok:
        problems.append("sl2 family accepted")
    for trial in range(20):
        m = 2 if trial % 2 else 3
        while True:
            S = np.eye(m) + 0.5 * rng.normal(size=(m, m))
            if np.linalg.cond(S) < 50.0:
                break
        Si = np.linalg.inv(S)
        if m == 3:
            fam, want = [S @ T1 @ Si, S @ T2 @ Si], True
        else:
            fam, want = [S @ E @ Si, S @ F @ Si], False
        got, _ = is_solvable(close_under_bracket(fam, tol=1e-8), tol=1e-8)
        if got is not want:
            problems.append(f"conjugation {trial}: verdict flipped to {got}")
    _verdict(capfd, 6, "solvability verdicts invariant under conjugation", problems)


def test_criterion_7_linear_clf_decreases_on_flows(capfd):
    problems = []
    rng = np.random.default_rng(707)
    for trial in range(20):
        n = int(rng.integers(2, 4))
        Ts = []
        for _ in range(2):
            T = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            T[np.diag_indices(n)] = -rng.uniform(0.5, 2.0, n) + 1j * rng.normal(
                size=n
            )
            Ts.append(T)
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q = np.linalg.qr(S)[0]
        As = [Q @ T @ Q.conj().T for T in Ts]
        tri = simultaneous_triangularize(As)
        eps, flag = linear_clf(tri)
        W = flag.conj().T
        for i, A in enumerate(As):
            step = expm(0.05 * A)
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            vals = []
            for _ in range(101):
                y = W @ x
                vals.append(float(np.sum(eps * np.abs(y) ** 2)))
                x = step @ x
            if not all(b < a for a, b in zip(vals, vals[1:])):
                problems.append(f"trial {trial} subsystem {i}: V increased")
    _verdict(capfd, 7, "quadratic certificate decreases along linear flows", problems)


def test_criterion_8_certificate_audit_and_negative_control(capfd):
    problems = []
    family = example1_config().build_family()
    report = analyze_family(family, 12, scheme_kind="polynomial")
    start = time.perf_counter()
    summary = audit_certificate(
        family, report, signals=100, points=50, seed=2026, dt=0.01, horizon=20.0
    )
    elapsed = time.perf_counter() - start
    if not summary.passed:
        problems.append("intact certificate failed the audit")
    if summary.max_v_increase > 1e-9:
        problems.append(f"relative V increase {summary.max_v_increase:.2e}")
    if summary.escapes != 0:
        problems.append(f"{summary.escapes} trajectories escaped")
    if summary.fraction_converged != 1.0:
        problems.append(
            f"only {summary.fraction_converged:.3f} of runs reached 1e-3"
        )
    if elapsed >= 120.0:
        problems.append(f"audit took {elapsed:.1f}s, budget 120s")
    # negative control: a tampered weight must be caught
    fam2 = SwitchedFamily(
        [
            PolyVectorField([{(1, 0): -1.0, (0, 1): 0.6}, {(0, 1): -1.0}]),
            PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.5}]),
        ]
    )
    rep2 = analyze_family(fam2, 6, scheme_kind="polynomial")
    basis = build_basis(2, 6)
    rep2.epsilon[basis.index_of((0, 1)) - 1] = 1e-12
    bad = audit_certificate(fam2, rep2, signals=10, points=10, seed=2026, dt=0.01)
    if bad.passed:
        problems.append("perturbed-weight negative control was not flagged")
    _verdict(
        capfd,
        8,
        "certificate survives audit, tampering is flagged",
        problems,
        note=f"audit {elapsed:.1f}s, max increase {summary.max_v_increase!r}",
    )


def test_criterion_9_reports_are_byte_identical(tmp_path, capfd):
    problems = []
    for name, argv in (
        ("poly", ["example1"]),
        ("analytic", ["example2"]),
    ):
        cfg = tmp_path / f"{name}.json"
        main(argv + ["--out", str(cfg)])
        r1 = tmp_path / f"{name}_r1.json"
        r2 = tmp_path / f"{name}_r2.json"
        main(["analyze", "--config", str(cfg), "--out", str(r1)])
        main(["analyze", "--config", str(cfg), "--out", str(r2)])
        if r1.read_bytes() != r2.read_bytes():
            problems.append(f"{name}: consecutive reports differ")
    _verdict(capfd, 9, "repeated pipeline runs are byte-identical", problems)
