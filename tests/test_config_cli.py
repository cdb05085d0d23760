import argparse
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from koopman_clf import analysis, cli, switchsim
from koopman_clf.cli import main
from koopman_clf.config import (
    SimulationParams,
    SystemConfig,
    example1_config,
    example2_config,
)
from koopman_clf.certificate import CommonLyapunovFunction
from koopman_clf.koopman import build_matrix
from koopman_clf.liealg import (
    NotSimultaneouslyTriangularizable,
    simultaneous_triangularize,
)
from koopman_clf.multiindex import build_basis
from koopman_clf.vectorfield import (
    PolyVectorField,
    boundary_invariance_check,
    lie_bracket,
)
from oracles import field_values


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
            assert np.array_equal(field_values(f, pts), field_values(g, pts))


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
    # criterion 8's step; the rest of the simulation block is the default
    assert cfg.simulation == dataclasses.replace(SimulationParams(), dt=0.01)
    assert example1_config().simulation == SimulationParams()
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
    for kwargs, message in (
        (dict(dt=0.0), "simulation.dt must be > 0, got 0.0"),
        (dict(dt=-1.0), "simulation.dt must be > 0, got -1.0"),
        (dict(horizon=-0.5), "simulation.horizon must be >= 0, got -0.5"),
        (dict(trials=0), "simulation.trials must be >= 1, got 0"),
        (dict(points=-2), "simulation.points must be >= 1, got -2"),
        (dict(min_dwell=0.0), "simulation.min_dwell must be > 0, got 0.0"),
        (dict(min_dwell=0.5, max_dwell=0.4),
         "simulation.max_dwell must be >= simulation.min_dwell 0.5, got 0.4"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationParams(**kwargs)
    p = SimulationParams()
    assert p.to_json_dict()["horizon"] == 20.0


@pytest.mark.parametrize("name, value", [("trials", 0), ("points", 0), ("dt", -0.01),
                                         ("horizon", -1.0), ("min_dwell", 0.0),
                                         ("max_dwell", 0.01)])
def test_cli_simulate_names_the_field_out_of_range(tmp_path, capsys, name, value):
    with pytest.raises(SystemExit) as exc:
        _simulate_with(tmp_path, {"trials": 1, "points": 1, name: value})
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid config: simulation.{name} must be " in err
    assert f"got {value!r}" in err and "Traceback" not in err


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


WRONG_TYPES = {
    "dimension-string": ("dimension", "2"),
    "degree-float": ("truncation_degree", 2.7),
    "degree-bool": ("truncation_degree", True),
    "kind-number": ("scheme.kind", 1),
    "xi-string": ("scheme.xi", "0.9"),
    "kappa-bool": ("scheme.kappa", False),
    "rho-string": ("rho_request", "0.5"),
    "xi-huge-integer": ("scheme.xi", 10**400),
    "kappa-huge-integer": ("scheme.kappa", 10**400),
    "eta-string": ("eta", "0.5"),
}


# wrong JSON types inside a subsystem's coefficient list or the simulation
# block: (key path from the config root, value, field named in the message)
WRONG_TYPES_INSIDE = {
    "dt-string": (("simulation", "dt"), "0.01", "simulation.dt"),
    "horizon-bool": (("simulation", "horizon"), True, "simulation.horizon"),
    "re-null": (
        ("subsystems", 1, "coefficients", 2, "re"), None,
        "subsystems[1].coefficients[2].re",
    ),
    "re-string": (
        ("subsystems", 1, "coefficients", 2, "re"), "0.3",
        "subsystems[1].coefficients[2].re",
    ),
    "im-string": (
        ("subsystems", 0, "coefficients", 0, "im"), "0",
        "subsystems[0].coefficients[0].im",
    ),
    "component-float": (
        ("subsystems", 1, "coefficients", 2, "component"), 1.7,
        "subsystems[1].coefficients[2].component",
    ),
    "component-bool": (
        ("subsystems", 0, "coefficients", 0, "component"), True,
        "subsystems[0].coefficients[0].component",
    ),
    "exponent-float": (
        ("subsystems", 1, "coefficients", 2, "exponents"), [2.9, 0.0],
        "subsystems[1].coefficients[2].exponents",
    ),
    "exponents-string": (
        ("subsystems", 1, "coefficients", 2, "exponents"), "20",
        "subsystems[1].coefficients[2].exponents",
    ),
    "tail-strings": (("subsystems", 1, "tail_l1"), ["1", "1"], "subsystems[1].tail_l1"),
    "tail-bool": (("subsystems", 1, "tail_l1"), [True, 1], "subsystems[1].tail_l1"),
    "tail-number": (("subsystems", 1, "tail_l1"), 2.0, "subsystems[1].tail_l1"),
    "re-huge-integer": (
        ("subsystems", 1, "coefficients", 2, "re"), 10**400,
        "subsystems[1].coefficients[2].re",
    ),
    "tail-huge-integer": (("subsystems", 1, "tail_l1"), [10**400, 1],
                          "subsystems[1].tail_l1"),
    "dt-huge-integer": (("simulation", "dt"), 10**400, "simulation.dt"),
}


@pytest.mark.parametrize("case", [*WRONG_TYPES_INSIDE, *WRONG_TYPES])
def test_cli_analyze_rejects_config_values_of_the_wrong_type(tmp_path, capsys, case):
    data = example1_config(degree=6).to_json_dict()
    if case in WRONG_TYPES_INSIDE:
        path, value, field = WRONG_TYPES_INSIDE[case]
        owner = data
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
    else:
        key, value = WRONG_TYPES[case]
        owner = data["scheme"] if key.startswith("scheme.") else data
        owner[key.removeprefix("scheme.")] = value
        field = key
    assert _analyze_exit(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "Traceback" not in err
    assert f"{field} must be" in err
    assert not (tmp_path / "r.json").exists()


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


def test_cli_analyze_dd_reports_a_nan_lhs_sup_for_an_overflowing_coefficient(tmp_path):
    # the cross-degree ratios overflow, so the extrapolated limit is NaN
    # and the summary lhs_sup must not read as a finite 0.0
    data = example1_config().to_json_dict()
    coeff = data["subsystems"][1]["coefficients"][1]
    assert coeff["exponents"] == [1, 2]
    coeff["re"] = -1e160
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    argv = [sys.executable, "-m", "koopman_clf", "analyze", "--config", str(cfg),
            "--scheme", "dd", "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 3
    dd = json.loads(out.read_text(), parse_constant=_reject_constant)["dd_condition"]
    assert dd["extrapolated"] is None
    assert dd["lhs_sup"] is None


@pytest.mark.parametrize(
    "name", ["close_under_bracket", "is_solvable", "simultaneous_triangularize"]
)
def test_cli_analyze_maps_a_linalg_error_to_a_solvability_failure(
    tmp_path, capsys, monkeypatch, name
):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(f"koopman_clf.analysis.{name}", fail)
    cfg = tmp_path / "sys.json"
    out = tmp_path / "r.json"
    assert main(["example1", "--degree", "6", "--out", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("not certified:") and err.count("\n") == 1
    assert "SVD did not converge" in err
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["certified"] is False
    assert report["failure"]["stage"] == "solvability"
    assert report["failure"]["message"].endswith("SVD did not converge")
    assert report["epsilon"] is None


def _pair_config(first, second, scheme="polynomial", **kwargs):
    """A planar pair of polynomial fields, each given as two coefficient
    tables, truncated at degree 8."""
    return SystemConfig(
        dimension=2,
        truncation_degree=8,
        subsystems=[(first, None), (second, None)],
        scheme_kind=scheme,
        **kwargs,
    )


def _overflowing_dd_config():
    # a finite coefficient whose squared coupling overflows a float
    data = example1_config(degree=8).to_json_dict()
    data["subsystems"][1]["coefficients"][1]["re"] = -1e160
    data["scheme"]["kind"] = "diagonal_dominance"
    return SystemConfig.from_json_dict(data)


def _raising(exc):
    def patch(real):
        def fail(*args, **kwargs):
            raise exc

        return fail

    return patch


def _same_degree_sup(real):
    def patched(*args, **kwargs):
        _, detail = real(*args, **kwargs)
        return 0.0, {**detail, "pass": False, "same_degree_sup": 2.0}

    return patched


def _spoiled_weights(spoil):
    def patch(real):
        def patched(*args, **kwargs):
            eps, eta_eff, q_sup, q_by_degree = real(*args, **kwargs)
            return spoil(eps.copy()), eta_eff, q_sup, q_by_degree

        return patched

    return patch


def _nan_weight(eps):
    eps[3] = math.nan
    return eps


_NUM = r"(?:[-+0-9.e]+|nan|inf)"
_STABLE = [{(1, 0): -1.0}, {(0, 1): -1.0}]

# one row per way analyze stops short of a certificate: (config,
# (analysis global, patch of it) or None, stage, exit code, message pattern)
FAILURES = {
    "not-solvable": (
        _pair_config([{(1, 0): -1.0, (0, 1): 1.0}, {(0, 1): -1.0}],
                     [{(1, 0): -1.0}, {(1, 0): 1.0, (0, 1): -1.0}]),
        None, "solvability", 2,
        r"the Lie algebra generated by the Jacobians is not solvable: derived "
        r"series dimensions \[[0-9, ]+\] do not reach zero",
    ),
    "no-common-flag": (
        example1_config(degree=8),
        ("simultaneous_triangularize",
         _raising(NotSimultaneouslyTriangularizable("no common eigenvector"))),
        "solvability", 2,
        r"solvability holds numerically but no common flag was found: "
        r"no common eigenvector",
    ),
    "unstable": (
        _pair_config([{(1, 0): 1.0}, {(0, 1): -1.0}], _STABLE),
        None, "stability", 3,
        r"a subsystem Jacobian has an eigenvalue with non-negative real part; "
        r"every subsystem must be exponentially stable at the origin",
    ),
    "polynomial-scheme": (
        example1_config(b=0.5, degree=8), None, "scheme", 3,
        rf"uniform-split condition failed: the xi-free coupling ratio reaches "
        rf"{_NUM} >= 1 at degree [0-9]+",
    ),
    "derived-xi": (
        _pair_config([{(1, 0): -1.0, (0, 1): 5.0}, {(0, 1): -1.0}], _STABLE,
                     "diagonal_dominance"),
        None, "scheme", 3,
        r"no admissible xi: the dominance inequalities require xi > 5",
    ),
    "dominance-caller-xi": (
        _pair_config([{(1, 0): -1.0, (0, 1): 0.5}, {(0, 1): -1.0}], _STABLE,
                     "diagonal_dominance", xi=0.3),
        None, "scheme", 3,
        r"diagonal-dominance inequalities fail at xi=0.3 \(need xi > 0.5\)",
    ),
    "same-degree-sup": (
        example2_config(mu=3.0, degree=8),
        ("certified_radius_dd", _same_degree_sup), "scheme", 3,
        r"same-degree coupling ratio reaches 2 >= 1",
    ),
    "non-finite-ratios": (
        _overflowing_dd_config(), None, "scheme", 3,
        rf"coupling ratios are not finite: same-degree sup {_NUM}, "
        rf"cross-degree sup {_NUM}, extrapolated nan",
    ),
    "divergence": (
        example1_config(degree=8),
        ("epsilon_sequence", _spoiled_weights(np.ones_like)), "convergence", 4,
        r"weight series diverges at rho=1: per-degree decay ratio 1 times "
        r"rho\^2 is not below one",
    ),
    "non-finite-weight": (
        example1_config(degree=8),
        ("epsilon_sequence", _spoiled_weights(_nan_weight)), "convergence", 4,
        rf"weights or convergence numbers are not finite and positive: smallest "
        rf"weight nan, partial sum {_NUM}, tail bound {_NUM}, ratio {_NUM}",
    ),
}


@pytest.mark.parametrize("case", FAILURES)
def test_cli_analyze_records_each_failure_stage(tmp_path, capsys, monkeypatch, case):
    config, patch, stage, code, pattern = FAILURES[case]
    if patch is not None:
        name, make = patch
        monkeypatch.setattr(analysis, name, make(getattr(analysis, name)))
    cfg = tmp_path / "sys.json"
    cfg.write_text(config.to_json())
    out = tmp_path / "r.json"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == code
    report = json.loads(out.read_text())
    assert report["certified"] is False
    assert report["failure"]["stage"] == stage
    assert re.fullmatch(pattern, report["failure"]["message"])
    assert capsys.readouterr().err == f"not certified: {report['failure']['message']}\n"


def test_a_linalg_error_after_the_solvability_analysis_propagates(monkeypatch):
    monkeypatch.setattr(
        analysis, "check_poly_condition",
        _raising(np.linalg.LinAlgError("lstsq did not converge"))(None),
    )
    with pytest.raises(np.linalg.LinAlgError, match="lstsq"):
        analysis.analyze_family(example1_config(degree=6).build_family(), 6)


def _analyze_refused(tmp_path, capsys, config, argv, message):
    cfg = tmp_path / "sys.json"
    cfg.write_text(config.to_json())
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", str(cfg), "--out", str(out)] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "certified" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config,argv",
    [
        (example1_config(degree=8), ["--kappa", "0.5"]),
        (example1_config(degree=8), ["--kappa", "nan"]),
        (dataclasses.replace(example1_config(degree=8), kappa=0.5), []),
    ],
    ids=["option", "option-nan", "config"],
)
def test_cli_analyze_refuses_a_kappa_under_the_polynomial_scheme(
    tmp_path, capsys, config, argv
):
    _analyze_refused(
        tmp_path, capsys, config, argv, "polynomial scheme takes no kappa"
    )


@pytest.mark.parametrize("xi", ["1.5", "1.0", "0"])
def test_cli_analyze_refuses_a_dominance_xi_outside_the_unit_interval(
    tmp_path, capsys, xi
):
    _analyze_refused(
        tmp_path, capsys, example2_config(mu=3.0, degree=8), ["--xi", xi],
        "xi must lie in (0, 1)",
    )


@pytest.mark.parametrize(
    "config,kw,message",
    [
        (example1_config(degree=8), dict(kappa=0.5), "takes no kappa"),
        (example1_config(degree=8), dict(xi=1.5), "xi must lie in"),
        (example2_config(mu=3.0, degree=8), dict(xi=0.5, kappa=0.6), "xi + kappa"),
    ],
    ids=["polynomial-kappa", "polynomial-xi", "dominance-xi-kappa"],
)
def test_a_refused_xi_or_kappa_raises_before_the_lie_closure(
    monkeypatch, config, kw, message
):
    monkeypatch.setattr(
        analysis, "close_under_bracket",
        _raising(AssertionError("the Lie closure ran"))(None),
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        analysis.analyze_family(
            config.build_family(), 8, scheme_kind=config.scheme_kind, **kw
        )


def _report_text(tmp_path, config, *argv):
    cfg, out = tmp_path / "sys.json", tmp_path / "r.json"
    cfg.write_text(config.to_json())
    assert main(["analyze", "--config", str(cfg), "--out", str(out), *argv]) == 0
    return out.read_text()


def test_a_rho_request_caps_the_certified_radius(tmp_path):
    # example1 at N = 12 certifies rho 1 with eta 0.105; asked for 0.5, by
    # the config key or by --rho, it certifies 0.5 with eta 0.5, and its
    # face bounds and partial sum are those of the radius 0.5
    config = example1_config(degree=12)
    full = json.loads(_report_text(tmp_path, config))
    asked = _report_text(tmp_path, dataclasses.replace(config, rho_request=0.5))
    assert asked == _report_text(tmp_path, config, "--rho", "0.5")
    capped = json.loads(asked)
    assert full["certified"] and capped["certified"]
    assert full["rho_certified"] == 1.0
    assert full["eta"]["effective"] == 0.1050000000000001
    assert (capped["rho_certified"], capped["eta"]["effective"]) == (0.5, 0.5)
    assert capped["region"]["face_bounds"] == boundary_invariance_check(
        config.build_family(), 0.5
    )
    assert full["convergence"]["partial_sum"] == pytest.approx(16.235, abs=1e-3)
    assert capped["convergence"]["partial_sum"] == pytest.approx(0.3907, abs=1e-4)


def test_a_rho_request_above_the_certified_radius_changes_nothing(tmp_path):
    # example2 at N = 20 certifies 0.5464 under the dominance scheme
    config = example2_config(degree=20)
    plain = _report_text(tmp_path, config)
    assert json.loads(plain)["rho_certified"] == pytest.approx(0.5464, abs=1e-4)
    assert _report_text(tmp_path, dataclasses.replace(config, rho_request=0.9)) == plain


@pytest.mark.parametrize(
    "config,argv,message",
    [
        *((dataclasses.replace(example1_config(degree=8), rho_request=rho), [],
           "rho_request must lie in (0, 1]") for rho in (0, 1.5, math.nan)),
        (example1_config(degree=8), ["--rho", "0"], "rho_request must lie in (0, 1]"),
        (dataclasses.replace(example1_config(degree=8), scheme_kind="foo"), [],
         "unknown scheme kind 'foo'"),
    ],
    ids=["rho-0", "rho-1.5", "rho-nan", "option-rho-0", "scheme-foo"],
)
def test_cli_analyze_refuses_a_rho_request_or_scheme_it_cannot_take(
    tmp_path, capsys, config, argv, message
):
    _analyze_refused(tmp_path, capsys, config, argv, message)


def _analyze_config_with(tmp_path, key, value):
    data = example1_config(degree=6).to_json_dict()
    data[key] = value
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(data))
    main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r.json")])


def _line(n):
    return PolyVectorField([{tuple(int(c == l) for c in range(n)): -1.0}
                            for l in range(n)])


# a public entry point given what it refuses, and its message
REFUSALS = {
    "build-matrix-dimensions": (
        lambda tmp: build_matrix(_line(1), build_basis(2, 3)),
        "field and basis dimensions differ",
    ),
    "field-no-component": (
        lambda tmp: PolyVectorField([]), "need at least one component"
    ),
    "field-exponent-length": (
        lambda tmp: PolyVectorField([{(1,): -1.0}, {(0, 1): -1.0}]),
        "exponent (1,) has wrong length for n=2",
    ),
    "bracket-dimensions": (
        lambda tmp: lie_bracket(_line(1), _line(2)), "fields live on different spaces"
    ),
    "triangularize-shapes": (
        lambda tmp: simultaneous_triangularize([np.eye(2), np.eye(3)]),
        "matrices must be square and of equal size",
    ),
    "clf-weights": (
        lambda tmp: CommonLyapunovFunction(np.ones(3), np.eye(2), build_basis(2, 2)),
        "weight vector does not match the basis",
    ),
    "config-dimension-0": (
        lambda tmp: _analyze_config_with(tmp, "dimension", 0),
        "invalid config: dimension must be >= 1",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_each_public_refusal_names_its_problem(tmp_path, capsys, case):
    call, message = REFUSALS[case]
    with pytest.raises((ValueError, SystemExit)) as exc:
        call(tmp_path)
    if exc.type is SystemExit:  # a config error is a usage error
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
    else:
        assert str(exc.value) == message


@pytest.mark.parametrize("degree", [12.5, 12.0, np.float64(12), "12", True])
def test_analyze_family_names_a_truncation_degree_that_is_not_an_integer(degree):
    with pytest.raises(ValueError, match="^truncation_degree must be an integer"):
        analysis.analyze_family(example1_config().build_family(), degree)


def test_analyze_family_accepts_a_numpy_integer_degree():
    family = example1_config().build_family()
    report = analysis.analyze_family(family, np.int64(6))
    assert report.to_json() == analysis.analyze_family(family, 6).to_json()


def test_cli_analyze_reports_scheme_failure(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    assert main(["example1", "--b", "0.5", "--out", str(cfg)]) == 0
    code = main(["analyze", "--config", str(cfg), "--out", "-"])
    assert code == 3
    assert "not certified" in capsys.readouterr().err


def test_cli_analyze_csv_of_an_analysis_without_weights_writes_nothing(
    tmp_path, capsys
):
    # the scheme fails before the weights exist: the stage's exit code and
    # the failure, as with --format json, and no CSV file
    cfg = tmp_path / "sys.json"
    main(["example1", "--b", "0.5", "--out", str(cfg)])
    json_out = tmp_path / "r.json"
    assert main(["analyze", "--config", str(cfg), "--out", str(json_out)]) == 3
    message = json.loads(json_out.read_text())["failure"]["message"]
    capsys.readouterr()
    prefix = tmp_path / "run"
    argv = ["analyze", "--config", str(cfg), "--format", "csv", "--out", str(prefix)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"not certified: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "sys.json"]


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


def test_cli_analyze_csv_without_out_writes_report_prefixed_files(
    tmp_path, monkeypatch, capsys
):
    cfg = tmp_path / "sys.json"
    main(["example1", "--degree", "6", "--out", str(cfg)])
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--config", str(cfg), "--format", "csv"]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "report.epsilon.csv", "report.ratios.csv", "sys.json"
    ]


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


def test_cli_simulate_trace_is_the_audit_first_trajectory(tmp_path, monkeypatch):
    # 3 signals x 4 points: the trace is row 0 of the audit's one
    # integration, bit for bit, and no second integration runs
    cfg = linear_nonnormal_config()
    cfg_path, rpt = tmp_path / "sys.json", tmp_path / "report.json"
    cfg_path.write_text(cfg.to_json())
    assert main(["analyze", "--config", str(cfg_path), "--out", str(rpt)]) == 0
    out, trace = tmp_path / "audit.json", tmp_path / "trace.csv"
    integrations = []

    def counted(*args, **kwargs):
        integrations.append(args)
        return integrate(*args, **kwargs)

    integrate = switchsim._integrate
    monkeypatch.setattr(switchsim, "_integrate", counted)
    assert main(["simulate", "--config", str(cfg_path), "--report", str(rpt),
                 "--trials", "3", "--points", "4", "--seed", "11",
                 "--out", str(out), "--trace", str(trace)]) == 0
    assert len(integrations) == 1
    sim = cfg.simulation
    summary = switchsim.audit_certificate(
        cfg.build_family(), analysis.load_report(json.loads(rpt.read_text())),
        signals=3, points=4, seed=11, dt=sim.dt, horizon=sim.horizon,
        min_dwell=sim.min_dwell, max_dwell=sim.max_dwell,
    )
    assert json.loads(out.read_text()) == summary.to_json_dict()
    run = summary.run
    want = np.column_stack([
        run.times, run.states.real[:, 0], run.states.imag[:, 0],
        run.states.real[:, 1], run.states.imag[:, 1], run.v_values, run.active,
    ])
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,re_z1,im_z1,re_z2,im_z2,V,active_subsystem"
    got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert got.shape == want.shape and len(got) > 100
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_cli_simulate_traces_a_report_without_a_triangularization(tmp_path):
    cfg_path = tmp_path / "sys.json"
    cfg_path.write_text(linear_nonnormal_config().to_json())
    rpt = tmp_path / "report.json"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(rpt)]) == 0
    data = json.loads(rpt.read_text())
    data["triangularization"] = None  # P is the identity
    rpt.write_text(json.dumps(data))
    trace = tmp_path / "trace.csv"
    argv = ["simulate", "--config", str(cfg_path), "--report", str(rpt),
            "--out", str(tmp_path / "audit.json"), "--trace", str(trace)]
    assert main(argv) == 0
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


@pytest.mark.parametrize("edits,named", [
    ({5: None}, "'epsilon[5]' is not finite and positive: nan"),
    ({0: 0.0}, "'epsilon[0]' is not finite and positive: 0.0"),
    ({7: None, 2: 0.0}, "'epsilon[2]' is not finite and positive: 0.0"),
], ids=["null", "zero", "first-of-two"])
def test_cli_simulate_refuses_a_weight_that_is_not_finite_and_positive(
    tmp_path, capsys, edits, named
):
    # analyze certifies no such weight (a null one is NaN); an edited
    # report exits 2 naming the first one
    cfg, rpt = _example1_config_and_report(tmp_path)
    data = json.loads(rpt.read_text())
    for index, value in edits.items():
        data["epsilon"][index] = value
    rpt.write_text(json.dumps(data))
    out = tmp_path / "audit.json"
    argv = ["simulate", "--config", str(cfg), "--report", str(rpt),
            "--out", str(out), "--trials", "1", "--points", "1"]
    code, err = _cli_exit(argv, capsys)
    assert code == 2
    assert f"report field {named}\n" in err
    assert not out.exists()


def test_cli_simulate_rejects_uncertified_report(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    main(["example1", "--b", "0.5", "--out", str(cfg)])
    rpt = tmp_path / "report.json"
    main(["analyze", "--config", str(cfg), "--out", str(rpt)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--report", str(rpt)])
    assert exc.value.code == 2


def _example1_config_and_report(tmp_path):
    cfg = tmp_path / "sys.json"
    main(["example1", "--out", str(cfg)])
    rpt = tmp_path / "report.json"
    assert main(["analyze", "--config", str(cfg), "--out", str(rpt)]) == 0
    return cfg, rpt


def _cli_exit(argv, capsys):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return exc.value.code, err


def _set(owner, path, value):
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value


def _drop(owner, path):
    for key in path[:-1]:
        owner = owner[key]
    del owner[path[-1]]


# a config block of the wrong JSON type: (key path from the config root,
# value, start of the message)
NOT_OBJECTS = {
    "subsystems-ints": (("subsystems",), [5], "subsystems[0] must be an object"),
    "subsystems-string": (
        ("subsystems",), "ab", "subsystems must be a list of objects"
    ),
    "subsystems-object": (
        ("subsystems",), {"a": 1}, "subsystems must be a list of objects"
    ),
    "coefficients-ints": (
        ("subsystems", 1, "coefficients"), [5],
        "subsystems[1].coefficients[0] must be an object",
    ),
    "coefficients-object": (
        ("subsystems", 1, "coefficients"), {"re": 1.0},
        "subsystems[1].coefficients must be a list of objects",
    ),
    "simulation-string": (("simulation",), "x", "simulation must be an object"),
    "simulation-list": (("simulation",), [1], "simulation must be an object"),
    "simulation-zero": (("simulation",), 0, "simulation must be an object"),
    "simulation-false": (("simulation",), False, "simulation must be an object"),
    "scheme-list": (("scheme",), [], "scheme must be an object"),
    "scheme-zero": (("scheme",), 0, "scheme must be an object"),
}


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("case", [*NOT_OBJECTS])
def test_cli_refuses_a_config_block_of_the_wrong_json_type(
    tmp_path, capsys, command, case
):
    cfg, rpt = _example1_config_and_report(tmp_path)
    path, value, message = NOT_OBJECTS[case]
    data = json.loads(cfg.read_text())
    _set(data, path, value)
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    argv = ["--config", str(cfg), "--out", str(out)]
    if command == "simulate":
        argv += ["--report", str(rpt)]
    code, err = _cli_exit([command, *argv], capsys)
    assert code == 2
    assert f"invalid config: {message}, got " in err
    assert not out.exists()


# a misspelt, missing or misplaced key: (key path from the config root,
# its new value or None to delete it, and the message); the empty path
# replaces the whole config
BAD_KEYS = {
    "simulation-trails": (
        ("simulation", "trails"), 5, "unknown key simulation.trails"
    ),
    "scheme-kapa": (("scheme", "kapa"), 0.1, "unknown key scheme.kapa"),
    "root-rho_requets": (("rho_requets",), 0.5, "unknown key rho_requets"),
    "subsystem-tail": (
        ("subsystems", 1, "tail"), [1.0, 1.0], "unknown key subsystems[1].tail"
    ),
    "coefficient-img": (
        ("subsystems", 1, "coefficients", 2, "img"), 0.0,
        "unknown key subsystems[1].coefficients[2].img",
    ),
    "coefficient-re": (
        ("subsystems", 0, "coefficients", 0, "re"), None,
        "subsystems[0].coefficients[0].re is missing",
    ),
    "coefficient-component": (
        ("subsystems", 0, "coefficients", 0, "component"), None,
        "subsystems[0].coefficients[0].component is missing",
    ),
    "coefficient-exponents": (
        ("subsystems", 1, "coefficients", 1, "exponents"), None,
        "subsystems[1].coefficients[1].exponents is missing",
    ),
    "root-dimension": (("dimension",), None, "dimension is missing"),
    "root-list": ((), [1], "config must be an object, got [1]"),
    "root-number": ((), 3, "config must be an object, got 3"),
}


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("case", [*BAD_KEYS])
def test_cli_names_an_unknown_or_missing_config_key(tmp_path, capsys, command, case):
    cfg, rpt = _example1_config_and_report(tmp_path)
    path, value, message = BAD_KEYS[case]
    data = json.loads(cfg.read_text())
    if not path:
        data = value
    elif value is None:
        _drop(data, path)
    else:
        _set(data, path, value)
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    argv = ["--config", str(cfg), "--out", str(out)]
    if command == "simulate":
        argv += ["--report", str(rpt)]
    code, err = _cli_exit([command, *argv], capsys)
    assert code == 2
    assert err.rstrip().endswith(f"invalid config: {message}")
    assert not out.exists()


def test_every_key_a_config_writes_loads_again():
    for cfg in (example1_config(), example2_config()):
        data = cfg.to_json_dict()
        data["rho_request"], data["scheme"]["xi"] = 0.5, 0.9
        assert SystemConfig.from_json_dict(data).to_json_dict() == data


def test_a_null_or_absent_scheme_or_simulation_keeps_the_defaults():
    data = example1_config().to_json_dict()
    assert data["scheme"] == {"kind": "polynomial", "xi": None, "kappa": None}
    assert data["simulation"] == SimulationParams().to_json_dict()
    for key in ("scheme", "simulation"):
        absent = {k: v for k, v in data.items() if k != key}
        for edited in (absent, {**data, key: None}):
            assert SystemConfig.from_json_dict(edited).to_json_dict() == data


def test_cli_simulate_rejects_a_report_of_another_family(tmp_path, capsys):
    cfg, rpt = _example1_config_and_report(tmp_path)
    data = json.loads(cfg.read_text())
    data["subsystems"].append(data["subsystems"][0])  # three subsystems
    three = tmp_path / "three.json"
    three.write_text(json.dumps(data))
    out = tmp_path / "audit.json"
    argv = ["simulate", "--config", str(three), "--report", str(rpt),
            "--out", str(out), "--trials", "1", "--points", "1"]
    code, err = _cli_exit(argv, capsys)
    assert code == 2 and "num_subsystems" in err
    assert not out.exists()


def test_cli_simulate_rejects_a_report_edited_to_uncertified(tmp_path, capsys):
    cfg, rpt = _example1_config_and_report(tmp_path)
    data = json.loads(rpt.read_text())
    data["certified"] = False  # the weights and the radius stay in place
    rpt.write_text(json.dumps(data))
    out = tmp_path / "audit.json"
    argv = ["simulate", "--config", str(cfg), "--report", str(rpt),
            "--out", str(out), "--trials", "1", "--points", "1"]
    code, err = _cli_exit(argv, capsys)
    assert code == 2 and "'certified'" in err
    assert not out.exists()


def _set_entry(key, value):
    def edit(data):
        data["triangularization"]["P"][0][1][key] = value
    return edit


def _scale_matrix(key, factor):
    def edit(data):
        for row in data["triangularization"][key]:
            for entry in row:
                entry["re"] *= factor
                entry["im"] *= factor
    return edit


NOT_INVERSES = "'triangularization.P' and 'triangularization.P_inv'"


@pytest.mark.parametrize(
    "edit,field",
    [
        (lambda d: d.update(truncation_degree=12.5), "'truncation_degree'"),
        # the basis is never built: the weight count is checked first
        (lambda d: d.update(truncation_degree=20000), "truncation_degree 20000"),
        (lambda d: d.update(truncation_degree=10**15, dimension=10**15),
         "truncation_degree 1000000000000000"),
        (lambda d: d.update(dimension="2"), "'dimension'"),
        (lambda d: d.update(num_subsystems=0), "'num_subsystems'"),
        (lambda d: d.update(basis_size=91), "'basis_size'"),
        (lambda d: d.update(rho_certified="0.5"), "'rho_certified'"),
        (lambda d: d.update(rho_certified=1.5), "'rho_certified'"),
        (lambda d: d.update(rho_certified=math.nan), "'rho_certified'"),
        (lambda d: d.update(certified="true"), "'certified'"),
        (lambda d: d.pop("certified"), "'certified' is missing"),
        (lambda d: d.update(epsilon=d["epsilon"][:-1]), "'epsilon' holds 89"),
        (lambda d: d["epsilon"].__setitem__(3, "0.5"), "'epsilon[3]'"),
        (lambda d: d["epsilon"].__setitem__(3, -1.0), "'epsilon[3]'"),
        (lambda d: d["scheme"].update(kind=None), "'scheme.kind'"),
        (_set_entry("re", "0.0"), "'triangularization.P[0][1].re'"),
        (_set_entry("im", math.inf), "'triangularization.P[0][1].im'"),
        (lambda d: d["triangularization"].update(P_inv=[[1.0]]),
         "'triangularization.P_inv'"),
        # each of these passed the audit unchecked: every start at the
        # origin, V identically 0, or half the certified radius audited
        (_scale_matrix("P", 0.0), NOT_INVERSES),
        (_scale_matrix("P_inv", 0.0), NOT_INVERSES),
        (_scale_matrix("P", 0.5), NOT_INVERSES),
    ],
)
def test_cli_simulate_rejects_a_report_field_of_the_wrong_type_or_range(
    tmp_path, capsys, edit, field
):
    cfg, rpt = _example1_config_and_report(tmp_path)
    data = json.loads(rpt.read_text())
    edit(data)
    rpt.write_text(json.dumps(data))
    out = tmp_path / "audit.json"
    argv = ["simulate", "--config", str(cfg), "--report", str(rpt),
            "--out", str(out), "--trials", "1", "--points", "1"]
    code, err = _cli_exit(argv, capsys)
    assert code == 2 and "invalid report" in err and field in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--config", "{cfg}", "--out", "{missing}/r.json"],
        ["analyze", "--config", "{cfg}", "--format", "csv", "--out", "{missing}/p"],
        ["simulate", "--config", "{cfg}", "--report", "{rpt}", "--trials", "1",
         "--points", "1", "--out", "{missing}/audit.json"],
        ["simulate", "--config", "{cfg}", "--report", "{rpt}", "--trials", "1",
         "--points", "1", "--out", "{tmp}/audit.json", "--trace", "{missing}/t.csv"],
        ["example1", "--out", "{missing}/c.json"],
        ["example2", "--out", "{missing}/c.json"],
        ["figure-rho", "--mu-min", "2", "--mu-max", "3", "--out", "{missing}/f.csv"],
    ],
    ids=["analyze", "analyze-csv", "simulate", "simulate-trace", "example1",
         "example2", "figure-rho"],
)
def test_cli_exits_2_on_an_output_path_that_cannot_be_written(tmp_path, capsys, argv):
    cfg, rpt = _example1_config_and_report(tmp_path)
    missing = tmp_path / "missing"
    argv = [a.format(cfg=cfg, rpt=rpt, tmp=tmp_path, missing=missing) for a in argv]
    code, err = _cli_exit(argv, capsys)
    assert code == 2 and f"cannot write {missing}" in err


# The analysis path in a fresh interpreter: the audit layer loads on the
# first audit only.
LAZY_AUDIT_CHILD = """
import io, json, sys
import koopman_clf
from koopman_clf import cli
from koopman_clf.analysis import analyze_family, export_epsilon_csv

def loaded():
    return "koopman_clf.switchsim" in sys.modules

folder = sys.argv[1]
seen = {"import": loaded()}
family = koopman_clf.example1_config().build_family()
report = analyze_family(family, 6)
report.to_json()
export_epsilon_csv(report, io.StringIO())
seen["analyze_family"] = loaded()
cli.main(["example1", "--out", folder + "/sys.json"])
cli.main(["example2", "--out", folder + "/sys2.json"])
cli.main(["analyze", "--config", folder + "/sys.json", "--out", folder + "/r.json"])
cli.main(["figure-rho", "--mu-min", "2", "--mu-max", "3", "--steps", "2",
          "--certify", "--degree", "6", "--out", folder + "/rho.csv"])
seen["cli"] = loaded()
kw = dict(signals=2, points=3, seed=4, dt=0.01, horizon=0.5)
summary = koopman_clf.audit_certificate(family, report, **kw)
seen["audit"] = loaded()
direct = koopman_clf.switchsim.audit_certificate(family, report, **kw)
print(json.dumps({"seen": seen, "equal": summary == direct}))
"""


def test_the_analysis_path_never_loads_the_audit_layer(tmp_path):
    src = pathlib.Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run(
        [sys.executable, "-c", LAZY_AUDIT_CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    out = json.loads(child.stdout.splitlines()[-1])
    assert out["seen"] == {"import": False, "analyze_family": False,
                           "cli": False, "audit": True}
    assert out["equal"]


@pytest.mark.parametrize(
    "out,trace",
    [("{missing}/audit.json", None), ("{tmp}/audit.json", "{missing}/t.csv"),
     ("{tmp}/audit.json", "{tmp}")],
    ids=["out", "trace", "trace-is-a-directory"],
)
def test_cli_simulate_checks_its_output_paths_before_the_audit(
    tmp_path, capsys, monkeypatch, out, trace
):
    cfg, rpt = _example1_config_and_report(tmp_path)

    def no_audit(*args, **kwargs):
        raise AssertionError("the audit ran")

    monkeypatch.setattr(switchsim, "audit_certificate", no_audit)
    dirs = dict(tmp=tmp_path, missing=tmp_path / "missing")
    out, trace = out.format(**dirs), trace and trace.format(**dirs)
    argv = ["simulate", "--config", str(cfg), "--report", str(rpt), "--out", out]
    code, err = _cli_exit(argv + (["--trace", trace] if trace else []), capsys)
    assert code == 2 and f"cannot write {trace or out}" in err
    assert not (tmp_path / "audit.json").exists()


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["figure-rho", "--mu-min", "2", "--mu-max", "3", "--certify",
          "--degree", "1"], "degree >= 2"),
        (["figure-rho", "--mu-min", "nan", "--mu-max", "3"], "finite mu"),
        (["figure-rho", "--mu-min", "2", "--mu-max", "inf"], "finite mu"),
        (["example1", "--a", "-1"], "a must be positive"),
        (["example2", "--mu", "0"], "mu must be positive"),
        (["example1", "--degree", "1"], "truncation_degree"),
        (["example1", "--b", "nan"], "not finite"),
        (["example2", "--mu", "nan"], "not finite"),
    ],
)
def test_cli_rejects_bad_numeric_arguments_with_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda kmat: dataclasses.replace(kmat, v=-kmat.v),
         "generator diagonal must have negative real part"),
        (lambda kmat: dataclasses.replace(kmat, k=kmat.j, j=kmat.k),
         "generator matrix has entries below the diagonal; the field's "
         "Jacobian is not upper triangular"),
    ],
    ids=["sign-flip", "transpose"],
)
def test_cli_analyze_refuses_a_corrupted_generator_matrix(
    tmp_path, capsys, monkeypatch, mutate, message
):
    """``analyze`` checks the generator matrices of the user's own family:
    a matrix with every sign flipped, or transposed, ends in exit 2.

    A flip of the off-diagonal signs alone is not caught here: the schemes
    read only the entries' moduli, so the reports keep their bytes.
    ``test_koopman.py::test_matrix_commutator_represents_bracket_field``
    is the test that catches it.
    """
    monkeypatch.setattr(
        "koopman_clf.certificate.build_matrix",
        lambda field_, basis: mutate(build_matrix(field_, basis)),
    )
    _analyze_refused(tmp_path, capsys, example1_config(), [], message)


def test_cli_example2_round_trips(tmp_path):
    cfg_path = tmp_path / "sys2.json"
    assert main(["example2", "--mu", "6.0", "--out", str(cfg_path)]) == 0
    cfg = SystemConfig.from_json(cfg_path.read_text())
    assert cfg.scheme_kind == "diagonal_dominance"
    assert cfg.subsystems[1][1][0] == pytest.approx(
        1.0 + (math.cosh(2.0) + 1.0) / 12.0
    )


def test_module_entry_point_writes_a_config():
    proc = subprocess.run(
        [sys.executable, "-m", "koopman_clf", "example1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert SystemConfig.from_json(proc.stdout).to_json() == example1_config().to_json()


def test_cli_analyze_refuses_an_exponent_past_int64(tmp_path, capsys):
    data = example1_config().to_json_dict()
    data["subsystems"][1]["coefficients"].append(
        {"component": 1, "exponents": [10**30, 0], "re": 0.1}
    )
    assert _analyze_exit(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert (f"invalid config: subsystems[1]: exponent in ({10**30}, 0) is above "
            "2**63 - 1") in err
    assert "Traceback" not in err


def test_the_selftest_command_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


def test_the_readme_lists_every_subcommand_once():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines()
              if line.startswith("koopman-clf ")]
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)


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


def test_cli_simulate_names_a_dt_too_small_to_plan(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _simulate_with(tmp_path, {"trials": 1, "points": 1}, ["--dt", "1e-300"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "dt 1e-300 plans" in err and "RK4 steps" in err
    assert "Traceback" not in err


def test_cli_simulate_refuses_a_horizon_it_cannot_plan_before_drawing_signals(tmp_path):
    # 1e300 / 0.01 steps: the signals alone would never finish
    code, out = _simulate_with(tmp_path, {"trials": 1, "points": 1})
    assert code == 0
    data = json.loads((tmp_path / "sys.json").read_text())
    data["simulation"]["horizon"] = 1e300
    (tmp_path / "sys.json").write_text(json.dumps(data))
    argv = [sys.executable, "-m", "koopman_clf", "simulate",
            "--config", str(tmp_path / "sys.json"),
            "--report", str(tmp_path / "report.json"), "--out", str(out),
            "--trials", "1", "--points", "1", "--dt", "0.01"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "dt 0.01 plans 1e+302 RK4 steps over horizon 1e+300" in proc.stderr


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


# example2 at high degrees ---------------------------------------------------


def test_example2_config_keeps_its_coefficients_below_degree_175():
    # while (2p)! fits a float, each coefficient is the float quotient
    mu = 3.0
    (c1, _), (c2, _) = example2_config(mu=mu, degree=174).subsystems
    for p in range(1, 86):
        coeff = 2.0 ** (2 * p - 1) / math.factorial(2 * p) / mu
        assert c1[0][(2 * p + 2, 1)] == (-1.0) ** (p + 1) * coeff
        assert c2[0][(2 * p + 2, 1)] == (-1.0) ** p * coeff
    assert len(c1[0]) == 1 + 85 and len(c2[0]) == 2 + 85


def test_example2_config_builds_and_analyzes_at_degree_200(tmp_path, capsys):
    cfg = example2_config(degree=200)
    (c1, _), _ = cfg.subsystems
    # past 2p = 170 the coefficients are exact integer quotients
    assert c1[0][(174, 1)] == -(2**171) / math.factorial(172) / 3.0
    assert c1[0][(198, 1)] == -(2**195) / math.factorial(196) / 3.0
    report = analysis.analyze_family(cfg.build_family(), 200, scheme_kind="dd")
    assert report.certified
    assert report.region["proved"]
    assert main(["example2", "--degree", "175", "--out", str(tmp_path / "e.json")]) == 0
    assert SystemConfig.from_json((tmp_path / "e.json").read_text()).truncation_degree == 175


def test_example2_config_stops_at_the_first_zero_coefficient():
    # 2^(2p - 1) / (2p)! / 3 is 0.0 from 2p = 206 on, the term of z1^208 z2
    (c1, _), (c2, _) = example2_config(degree=1000).subsystems
    assert max(alpha[0] for alpha in c1[0]) == 206
    assert abs(c1[0][(206, 1)]) == 5e-324
    assert 0.0 not in c1[0].values() and 0.0 not in c2[0].values()


# out of memory --------------------------------------------------------------


def _no_memory(*args, **kwargs):
    raise MemoryError


def test_cli_analyze_names_a_basis_too_large_for_memory(tmp_path, capsys, monkeypatch):
    cfg = example1_config()
    cfg.truncation_degree = 100000
    path = tmp_path / "sys.json"
    path.write_text(cfg.to_json())
    monkeypatch.setattr(cli, "analyze_family", _no_memory)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("out of memory: truncation degree 100000 gives a basis of "
            "5000150000 monomials in dimension 2") in err
    assert "Traceback" not in err


def test_cli_simulate_names_a_basis_too_large_for_memory(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(switchsim, "audit_certificate", _no_memory)
    with pytest.raises(SystemExit) as exc:
        _simulate_with(tmp_path, {"trials": 1, "points": 1})
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("out of memory: truncation degree 6 gives a basis of 27 monomials "
            "in dimension 2") in err


def test_cli_figure_rho_names_a_basis_too_large_for_memory(capsys, monkeypatch):
    monkeypatch.setattr(cli, "analyze_family", _no_memory)
    with pytest.raises(SystemExit) as exc:
        main(["figure-rho", "--mu-min", "2", "--mu-max", "3", "--certify",
              "--degree", "3000"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("out of memory: truncation degree 3000 gives a basis of 4504500 "
            "monomials in dimension 2") in err


# seeds ----------------------------------------------------------------------


def test_a_negative_seed_is_refused_by_name(tmp_path, capsys):
    with pytest.raises(ValueError, match=r"simulation\.seed must be >= 0, got -5"):
        SimulationParams(seed=-5)
    data = linear_nonnormal_config().to_json_dict()
    data["simulation"]["seed"] = -5
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", str(path)])
    assert exc.value.code == 2
    assert "simulation.seed must be >= 0" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        _simulate_with(tmp_path, {"trials": 1, "points": 1}, ["--seed", "-5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err and "Traceback" not in err


def test_the_seeded_draws_refuse_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        switchsim.random_signal(2, 1.0, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        switchsim.sample_initial_points(2, 0.5, 3, seed=-1)
    family = linear_nonnormal_config().build_family()
    report = analysis.analyze_family(family, 6)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        switchsim.audit_certificate(family, report, signals=1, points=1, seed=-1)


# paths in field errors ------------------------------------------------------


def _example1_with(edit):
    data = example1_config().to_json_dict()
    edit(data["subsystems"][1])
    return data


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda s: s["coefficients"][0].update(exponents=[-1, 2]),
         "subsystems[1]: negative exponent in (-1, 2)"),
        (lambda s: s["coefficients"][0].update(exponents=[0, 0]),
         "subsystems[1]: constant terms are not allowed; fields fix the origin"),
        (lambda s: s.update(tail_l1=[0.1, 1.0]),
         "subsystems[1]: tail_l1[0]=0.1 is below the stored coefficient sum 1.6"),
        (lambda s: s.update(tail_l1=[2.0]),
         "subsystems[1]: tail_l1 must have one entry per component"),
        (lambda s: s["coefficients"][2].update(component=3),
         "subsystems[1].coefficients[2].component must lie in 1..2, got 3"),
        (lambda s: s["coefficients"][2].update(exponents=[1, 0, 0]),
         "subsystems[1].coefficients[2].exponents must have 2 entries, got "
         "[1, 0, 0]"),
        (lambda s: s["coefficients"].append(dict(s["coefficients"][2])),
         "subsystems[1].coefficients[5]: component 1 lists exponents [2, 0] "
         "twice"),
    ],
    ids=["negative-exponent", "constant", "tail-below-sum", "tail-length",
         "component", "exponent-count", "repeat"],
)
def test_field_errors_name_the_path_of_their_subsystem(edit, message):
    with pytest.raises(ValueError) as exc:
        SystemConfig.from_json_dict(_example1_with(edit))
    assert str(exc.value) == message
