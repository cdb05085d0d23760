"""The one-pass report encoder against the standard library's encoder."""

import json
import math

import numpy as np
import pytest

from koopman_clf.analysis import CertificateReport, _encode_json, analyze_family
from koopman_clf.config import SystemConfig, example1_config, example2_config


def _finite_or_none(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_none(v) for v in obj]
    return obj


def reference_json(doc):
    """Strict JSON by the standard encoder, non-finite floats as null."""
    return (
        json.dumps(_finite_or_none(doc), sort_keys=True, indent=2, allow_nan=False)
        + "\n"
    )


def _non_finite_floats(obj):
    if isinstance(obj, float):
        return 0 if math.isfinite(obj) else 1
    if isinstance(obj, dict):
        return sum(_non_finite_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(_non_finite_floats(v) for v in obj)
    return 0


@pytest.mark.parametrize(
    "config,degree",
    [(example1_config(), N) for N in (12, 30, 60, 100)]
    + [(example2_config(mu=3), N) for N in (12, 20, 40)],
)
def test_report_json_matches_the_standard_encoder(config, degree):
    report = analyze_family(config.build_family(), degree, config.scheme_kind)
    assert report.certified
    assert report.to_json() == reference_json(report.to_json_dict())


@pytest.mark.parametrize("scheme", ["polynomial", "diagonal_dominance"])
def test_failed_report_with_non_finite_values_matches(scheme):
    # a finite coefficient whose squared coupling overflows a float
    data = example1_config().to_json_dict()
    coeff = data["subsystems"][1]["coefficients"][1]
    assert coeff["exponents"] == [1, 2]
    coeff["re"] = -1e160
    config = SystemConfig.from_json_dict(data)
    with np.errstate(over="ignore", invalid="ignore"):
        report = analyze_family(
            config.build_family(), config.truncation_degree, scheme
        )
    assert not report.certified
    doc = report.to_json_dict()
    assert _non_finite_floats(doc) > 0
    assert report.to_json() == reference_json(doc)


def test_report_with_empty_lists_and_dicts_matches():
    report = CertificateReport(
        dimension=2,
        truncation_degree=2,
        basis_size=5,
        num_subsystems=0,
        scheme_kind="polynomial",
        failure={},
        derived_series_dims=[],
        term_counts=[],
        epsilon=np.array([]),
        convergence={"ratios": [], "limits": {}},
    )
    text = report.to_json()
    assert '"epsilon": []' in text and '"failure": {}' in text
    assert text == reference_json(report.to_json_dict())


def test_encoder_covers_every_json_type():
    doc = {
        "z": [1.0, math.nan, -2.5e-300, math.inf],
        "mixed": [1, 2.0, True, False, None, "x", [], {}, [[0.1, -0.0]]],
        "floats": [0.1, 1e22, -math.pi, 5e-324],
        "text": "tab\t quote\" ü \U0001d400",
        "int": -(2**70),
        "nested": {"b": {"a": -math.inf}, "a": []},
    }
    chunks = []
    _encode_json(doc, "\n", chunks.append)
    assert "".join(chunks) + "\n" == reference_json(doc)
    with pytest.raises(TypeError):
        _encode_json({"a": object()}, "\n", chunks.append)
