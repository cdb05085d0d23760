import dataclasses
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from koopman_clf.cli import main
from koopman_clf.config import (
    SimulationParams,
    SystemConfig,
    example1_config,
    example2_config,
)
from koopman_clf.koopman import build_matrix
from koopman_clf.selftest import run_selftest


def linear_nonnormal_config(degree=6):
    f1 = [{(1, 0): -1.0, (0, 1): 0.6}, {(0, 1): -1.0}]
    f2 = [{(1, 0): -1.0}, {(0, 1): -1.5}]
    return SystemConfig(
        dimension=2,
        truncation_degree=degree,
        subsystems=[(f1, None), (f2, None)],
        scheme_kind="polynomial",
        simulation=SimulationParams(
            dt=0.01, horizon=3.0, trials=3, points=4, seed=5
        ),
    )


# config ---------------------------------------------------------------------


def test_config_json_round_trip_is_semantically_exact():
    for cfg in (example1_config(), example2_config(mu=2.4), linear_nonnormal_config()):
        back = SystemConfig.from_json(cfg.to_json())
        assert back.to_json_dict() == cfg.to_json_dict()
        fam, fam2 = cfg.build_family(), back.build_family()
        pts = np.array([[0.3 + 0.1j, -0.2], [0.05, 0.6j]])
        for f, g in zip(fam, fam2):
            assert np.array_equal(f.evaluate(pts), g.evaluate(pts))


def test_example1_config_structure():
    cfg = example1_config(a=1.0, b=0.3, degree=12)
    assert cfg.dimension == 2
    assert cfg.truncation_degree == 12
    assert cfg.scheme_kind == "polynomial"
    assert len(cfg.subsystems) == 2
    comps, tail = cfg.subsystems[1]
    assert tail is None
    assert comps[0][(2, 0)] == 0.3
    assert comps[1][(1, 1)] == 0.15
    with pytest.raises(ValueError):
        example1_config(a=0.0)


def test_example2_config_coefficients_and_tails():
    mu = 3.0
    cfg = example2_config(mu=mu, degree=20)
    assert cfg.scheme_kind == "diagonal_dominance"
    (c1, tail1), (c2, tail2) = cfg.subsystems
    # leading interaction terms of z1^2 sin^2(z1) z2 / mu and the cos^2 twin
    assert c1[0][(4, 1)] == pytest.approx(1.0 / mu)
    assert c1[0][(6, 1)] == pytest.approx(-1.0 / (3.0 * mu))
    assert c2[0][(2, 1)] == pytest.approx(1.0 / mu)
    assert c2[0][(4, 1)] == pytest.approx(-1.0 / mu)
    assert tail1[0] == pytest.approx(1.0 + (math.cosh(2.0) - 1.0) / (2.0 * mu))
    assert tail2[0] == pytest.approx(1.0 + (math.cosh(2.0) + 1.0) / (2.0 * mu))
    assert tail1[1] == tail2[1] == 1.0
    with pytest.raises(ValueError):
        example2_config(mu=-1.0)


def test_config_validation_names_the_problem():
    with pytest.raises(ValueError, match="dimension"):
        SystemConfig.from_json_dict({"truncation_degree": 4, "subsystems": []})
    base = example1_config().to_json_dict()
    bad = json.loads(json.dumps(base))
    bad["subsystems"][0]["coefficients"][0]["component"] = 5
    with pytest.raises(ValueError, match="component"):
        SystemConfig.from_json_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["subsystems"][0]["coefficients"][0]["exponents"] = [1, 0, 0]
    with pytest.raises(ValueError, match="exponent"):
        SystemConfig.from_json_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["truncation_degree"] = 1
    with pytest.raises(ValueError, match="truncation_degree"):
        SystemConfig.from_json_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["subsystems"] = []
    with pytest.raises(ValueError, match="subsystem"):
        SystemConfig.from_json_dict(bad)


def test_config_rejects_a_repeated_coefficient():
    data = example1_config().to_json_dict()
    coeffs = data["subsystems"][1]["coefficients"]
    coeffs.append({**coeffs[2], "re": 5.0})
    with pytest.raises(ValueError, match="twice"):
        SystemConfig.from_json_dict(data)


def test_simulation_params_validation():
    with pytest.raises(ValueError):
        SimulationParams(dt=0.0)
    with pytest.raises(ValueError):
        SimulationParams(trials=0)
    with pytest.raises(ValueError):
        SimulationParams(min_dwell=0.5, max_dwell=0.4)
    p = SimulationParams()
    assert p.to_json_dict()["horizon"] == 20.0


# cli ------------------------------------------------------------------------


def test_cli_example1_analyze_certifies(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    rpt = tmp_path / "report.json"
    assert main(["example1", "--out", str(cfg)]) == 0
    assert main(["analyze", "--config", str(cfg), "--out", str(rpt)]) == 0
    err = capsys.readouterr().err
    assert "certified: rho=1.0" in err
    data = json.loads(rpt.read_text())
    assert data["certified"] is True
    assert data["rho_certified"] == 1.0
    assert data["scheme"]["kind"] == "polynomial"
    assert len(data["epsilon"]) == data["basis_size"]
    assert data["epsilon"][0] == 1.0


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON")


@pytest.mark.parametrize("example", ["example1", "example2"])
def test_cli_analyze_reports_finite_condition_slack(tmp_path, example):
    cfg = tmp_path / "sys.json"
    rpt = tmp_path / "report.json"
    assert main([example, "--out", str(cfg)]) == 0
    assert main(
        ["analyze", "--config", str(cfg), "--degree", "12", "--out", str(rpt)]
    ) == 0
    data = json.loads(rpt.read_text(), parse_constant=_reject_constant)
    if example == "example1":
        cond = data["poly_condition"]
        assert cond["slack"] == 1.0 - cond["q_sup"] > 0.0
    else:
        cond = data["dd_condition"]
        rho = data["rho_certified"]
        assert cond["same_degree_slack"] == 1.0 - cond["same_degree_sup"] > 0.0
        assert cond["rho_slack"] == pytest.approx(
            1.0 / rho**2 - cond["extrapolated"], abs=1e-12
        )
        assert cond["rho_slack"] > 0.0


@pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -0.5])
def test_cli_analyze_rejects_non_finite_or_non_positive_eta(tmp_path, capsys, eta):
    data = example1_config(degree=6).to_json_dict()
    data["eta"] = eta
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "eta must be finite and positive" in err
    assert "certified" not in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def _analyze_exit(tmp_path, data):
    """Exit code of analyze on a config written as JSON (NaN allowed)."""
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    try:
        return main(["analyze", "--config", str(cfg), "--out", str(out)])
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("case", ["dt-string", "re-null"])
def test_cli_analyze_rejects_config_values_of_the_wrong_type(tmp_path, capsys, case):
    data = example1_config(degree=6).to_json_dict()
    if case == "dt-string":
        data["simulation"]["dt"] = "0.01"
    else:
        data["subsystems"][1]["coefficients"][2]["re"] = None
    assert _analyze_exit(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "case", ["re-nan", "im-inf", "tail-nan", "tail-inf", "repeated"]
)
def test_cli_analyze_rejects_non_finite_or_repeated_coefficients(
    tmp_path, capsys, case
):
    data = example1_config(degree=6).to_json_dict()
    sub = data["subsystems"][1]
    if case == "re-nan":
        sub["coefficients"][2]["re"] = math.nan
    elif case == "im-inf":
        sub["coefficients"][2]["im"] = math.inf
    elif case == "tail-nan":
        sub["tail_l1"] = [math.nan, 2.0]
    elif case == "tail-inf":
        sub["tail_l1"] = [math.inf, 2.0]
    else:
        sub["coefficients"].append({**sub["coefficients"][2], "re": 5.0})
    assert _analyze_exit(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "certified" not in err
    assert not (tmp_path / "r.json").exists()


def test_cli_analyze_fails_closed_on_an_overflowing_coefficient(tmp_path):
    # a finite coefficient whose squared coupling overflows a float
    data = example1_config().to_json_dict()
    coeff = data["subsystems"][1]["coefficients"][1]
    assert coeff["exponents"] == [1, 2]
    coeff["re"] = -1e160
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    argv = [sys.executable, "-m", "koopman_clf", "analyze",
            "--config", str(cfg), "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("not certified:")
    assert proc.stderr.count("\n") == 1
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["certified"] is False
    assert report["poly_condition"]["q_sup"] is None


def test_cli_analyze_reports_scheme_failure(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    assert main(["example1", "--b", "0.5", "--out", str(cfg)]) == 0
    code = main(["analyze", "--config", str(cfg), "--out", "-"])
    assert code == 3
    assert "not certified" in capsys.readouterr().err


def test_cli_analyze_csv_output(tmp_path):
    cfg = tmp_path / "sys.json"
    main(["example1", "--degree", "6", "--out", str(cfg)])
    prefix = str(tmp_path / "run")
    assert main(
        ["analyze", "--config", str(cfg), "--format", "csv", "--out", prefix]
    ) == 0
    eps_lines = (tmp_path / "run.epsilon.csv").read_text().strip().split("\n")
    assert eps_lines[0] == "index,exponents,epsilon"
    assert len(eps_lines) == 27 + 1  # basis size at degree 6
    assert eps_lines[1] == "1,1 0,1.0"  # plain parseable floats, anchor weight
    for line in eps_lines[1:]:
        idx, alpha, eps = line.split(",")
        assert float(eps) > 0.0 and len(alpha.split()) == 2
    ratio_lines = (tmp_path / "run.ratios.csv").read_text().strip().split("\n")
    assert ratio_lines[0] == "degree,max_ratio"
    for line in ratio_lines[1:]:
        d, v = line.split(",")
        assert 0.0 < float(v) < 1.0


def test_cli_analyze_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "sys.json"
    main(["example1", "--out", str(cfg)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["analyze", "--config", str(cfg), "--out", str(r1)])
    main(["analyze", "--config", str(cfg), "--out", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_rejects_broken_configs(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2}')
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", str(bad)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # --config is required
    assert exc.value.code == 2


def test_cli_simulate_audits_and_traces(tmp_path):
    cfg_path = tmp_path / "sys.json"
    cfg_path.write_text(linear_nonnormal_config().to_json())
    rpt = tmp_path / "report.json"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(rpt)]) == 0
    out = tmp_path / "audit.json"
    trace = tmp_path / "trace.csv"
    code = main(
        [
            "simulate",
            "--config", str(cfg_path),
            "--report", str(rpt),
            "--out", str(out),
            "--trace", str(trace),
        ]
    )
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["kind"] == "audit_summary"
    assert summary["passed"] is True
    assert summary["max_v_increase"] == 0.0
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "t,re_z1,im_z1,re_z2,im_z2,V,active_subsystem"
    assert len(lines) > 10


def test_cli_simulate_flags_tampered_certificate(tmp_path):
    cfg_path = tmp_path / "sys.json"
    cfg_path.write_text(linear_nonnormal_config().to_json())
    rpt = tmp_path / "report.json"
    main(["analyze", "--config", str(cfg_path), "--out", str(rpt)])
    data = json.loads(rpt.read_text())
    assert data["epsilon"][1] == pytest.approx(0.5509641873278237, rel=1e-12)
    data["epsilon"][1] = 1e-12  # weight of the z2 monomial
    rpt.write_text(json.dumps(data))
    code = main(
        [
            "simulate",
            "--config", str(cfg_path),
            "--report", str(rpt),
            "--out", str(tmp_path / "audit.json"),
        ]
    )
    assert code == 5
    summary = json.loads((tmp_path / "audit.json").read_text())
    assert summary["passed"] is False
    assert summary["max_v_increase"] > 1e-9


def test_cli_simulate_rejects_uncertified_report(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    main(["example1", "--b", "0.5", "--out", str(cfg)])
    rpt = tmp_path / "report.json"
    main(["analyze", "--config", str(cfg), "--out", str(rpt)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--report", str(rpt)])
    assert exc.value.code == 2


def test_cli_figure_rho_closed_form(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(
        [
            "figure-rho",
            "--mu-min", "2.0",
            "--mu-max", "4.0",
            "--steps", "3",
            "--out", str(out),
        ]
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "mu,rho_closed_form"
    assert len(lines) == 4
    c_plus = (math.cosh(2.0) + 1.0) / 2.0
    for line, mu in zip(lines[1:], (2.0, 3.0, 4.0)):
        got_mu, got_rho = (float(tok) for tok in line.split(","))
        assert got_mu == mu
        assert got_rho == 1.0 / (1.0 + c_plus / mu)
    with pytest.raises(SystemExit):
        main(["figure-rho", "--mu-min", "3", "--mu-max", "2"])


def test_cli_figure_rho_certified_column(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(
        [
            "figure-rho",
            "--mu-min", "2.5",
            "--mu-max", "6.0",
            "--steps", "2",
            "--degree", "12",
            "--certify",
            "--out", str(out),
        ]
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "mu,rho_closed_form,rho_certified"
    for line in lines[1:]:
        mu, closed, certified = (float(tok) for tok in line.split(","))
        assert 0.9 * closed <= certified <= closed + 1e-6


def test_cli_selftest_passes_and_detects_mutation(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out

    def sign_flipped(field_, basis):
        # every off-diagonal entry with the wrong sign
        kmat = build_matrix(field_, basis)
        return dataclasses.replace(
            kmat, v=np.where(kmat.j == kmat.k, kmat.v, -kmat.v)
        )

    out = io.StringIO()
    assert run_selftest(build=sign_flipped, out=out) == 1
    assert "FAIL bracket-identity" in out.getvalue()


def test_cli_example2_round_trips(tmp_path):
    cfg_path = tmp_path / "sys2.json"
    assert main(["example2", "--mu", "6.0", "--out", str(cfg_path)]) == 0
    cfg = SystemConfig.from_json(cfg_path.read_text())
    assert cfg.scheme_kind == "diagonal_dominance"
    assert cfg.subsystems[1][1][0] == pytest.approx(
        1.0 + (math.cosh(2.0) + 1.0) / 12.0
    )


def test_module_entry_point_runs_selftest():
    proc = subprocess.run(
        [sys.executable, "-m", "koopman_clf", "selftest"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 4


def _simulate_with(tmp_path, simulation, extra=()):
    """Analyze the linear pair, then run simulate with the given
    simulation block (written as JSON, NaN and Infinity allowed)."""
    cfg = linear_nonnormal_config()
    cfg_path = tmp_path / "sys.json"
    cfg_path.write_text(cfg.to_json())
    rpt = tmp_path / "report.json"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(rpt)]) == 0
    data = cfg.to_json_dict()
    data["simulation"].update(simulation)
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "audit.json"
    argv = ["simulate", "--config", str(cfg_path), "--report", str(rpt),
            "--out", str(out), *extra]
    return main(argv), out


@pytest.mark.parametrize("name", ["dt", "horizon", "min_dwell", "max_dwell"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_cli_simulate_rejects_non_finite_simulation_values(
    tmp_path, capsys, name, value
):
    with pytest.raises(SystemExit) as exc:
        _simulate_with(tmp_path, {"trials": 1, "points": 1, name: value})
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"simulation.{name} must be finite" in err
    assert "Traceback" not in err
    with pytest.raises(ValueError):
        SimulationParams(**{name: value})


@pytest.mark.parametrize("name", ["trials", "points", "seed"])
@pytest.mark.parametrize("value", [2.5, math.nan, "3", 3.0, True])
def test_cli_simulate_rejects_non_integer_counts(tmp_path, capsys, name, value):
    with pytest.raises(SystemExit) as exc:
        _simulate_with(tmp_path, {"trials": 1, "points": 1, name: value})
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"simulation.{name} must be an integer" in err
    assert "Traceback" not in err
    with pytest.raises(ValueError):
        SimulationParams(**{name: value})


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_simulate_rejects_non_finite_dt_override(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        _simulate_with(tmp_path, {"trials": 1, "points": 1}, ["--dt", value])
    assert exc.value.code == 2
    assert "dt must be finite" in capsys.readouterr().err


def test_cli_simulate_blowup_exits_5_with_one_line(tmp_path):
    # one RK4 step per 1000-long segment: the linear pair blows up
    code, out = _simulate_with(
        tmp_path,
        {"trials": 1, "points": 1, "dt": 1000.0, "horizon": 1e5,
         "min_dwell": 1000.0, "max_dwell": 1000.0},
    )
    assert code == 5
    assert not out.exists()
    argv = [sys.executable, "-m", "koopman_clf", "simulate",
            "--config", str(tmp_path / "sys.json"),
            "--report", str(tmp_path / "report.json"), "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 5
    assert proc.stderr.startswith("audit failed: non-finite")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_cli_simulate_summary_is_strict_json_with_worst_decay(tmp_path):
    code, out = _simulate_with(tmp_path, {})
    assert code == 0

    def reject(token):
        raise ValueError(token)

    summary = json.loads(out.read_text(), parse_constant=reject)
    assert summary["worst_decay_rate"] < 0
    assert set(summary["worst_decay_at"]) == {"signal", "point", "time", "subsystem"}
