"""The one-pass report encoder against the standard library's encoder."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koopman_clf.analysis import (
    CertificateReport,
    _encode_json,
    analyze_family,
    export_epsilon_csv,
    export_ratios_csv,
)
from koopman_clf.config import SystemConfig, example1_config, example2_config
from koopman_clf.multiindex import build_basis


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


def _encoded(doc):
    chunks = []
    _encode_json(doc, "\n", chunks.append)
    return "".join(chunks) + "\n"


# a small pool, so that values repeat within a list and zeros of both
# signs, non-finite values and integral floats (equal to ints and bools)
# meet in one list or record
_FLOATS = st.sampled_from(
    [0.0, -0.0, 1.0, 1.5, -2.25, 0.1, 1e-300, 5e-324, 1e22, -math.pi,
     math.nan, math.inf, -math.inf]
)
_KEYS = st.sampled_from(["a", "b", "degree", "value", "re", "im", "\u00fc"])
_NUMBERS = st.one_of(
    _FLOATS, _FLOATS.map(np.float64), st.integers(-3, 3),
    st.sampled_from([2**70, -(2**70)]), st.booleans(),
)
_LEAVES = st.one_of(
    _NUMBERS, st.none(), st.sampled_from(["", "x", "tab\t"]),
    st.lists(_FLOATS, max_size=8),  # float lists, with repeats
    st.dictionaries(_KEYS, _NUMBERS, max_size=4),  # records of numbers
    st.just([]), st.just({}),
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_DOCS)
@example([0.0, -0.0])
@example([-0.0, 1.5, 0.0, 1.5])
@example([1.5, True])
@example([1.0, True, 1])
@example([2.0, math.nan, 2.0])
@example({"a": 1.0, "b": True})
@example({"a": 1, "b": math.inf})
@example({"value": 0.5, "degree": 3})
@example({"re": -0.0, "im": 0.0})
@example({"a": np.float64(0.1), "b": [np.float64(2.5), 2.5]})
def test_encoder_matches_the_standard_encoder_on_any_document(doc):
    assert _encoded(doc) == reference_json(doc)


def test_report_epsilon_is_the_float_of_each_weight():
    for eps in (np.array([0.1, 2.0, 0.1]), np.array([0.1, 2.0], dtype=np.float32),
                np.array([1, 2]), [0.5, 3]):
        report = CertificateReport(
            dimension=1, truncation_degree=2, basis_size=2, num_subsystems=1,
            scheme_kind="polynomial", epsilon=eps,
        )
        got = report.to_json_dict()["epsilon"]
        assert got == [float(e) for e in eps]
        assert all(type(e) is float for e in got)


def per_row_epsilon_csv(report):
    """The weight export written one row at a time."""
    basis = build_basis(report.dimension, report.truncation_degree)
    rows = ["index,exponents,epsilon\n"]
    for k in range(1, basis.size + 1):
        alpha = " ".join(str(a) for a in basis.alpha(k))
        rows.append(f"{k},{alpha},{float(report.epsilon[k - 1])!r}\n")
    return "".join(rows)


def per_row_ratios_csv(report):
    """The ratio export written one row at a time."""
    rows = ["degree,max_ratio\n"]
    for d, v in sorted((report.q_by_degree or {}).items()):
        rows.append(f"{d},{float(v)!r}\n")
    return "".join(rows)


def _csv(export, report):
    fh = io.StringIO()
    export(report, fh)
    return fh.getvalue()


@pytest.mark.parametrize(
    "config,degree", [(example1_config(), 60), (example2_config(mu=3), 20)]
)
def test_csv_exports_match_the_per_row_formula(config, degree):
    report = analyze_family(config.build_family(), degree, config.scheme_kind)
    assert report.certified
    assert _csv(export_epsilon_csv, report) == per_row_epsilon_csv(report)
    assert _csv(export_ratios_csv, report) == per_row_ratios_csv(report)
    # zeros of both signs and non-finite weights among repeated values
    report.epsilon = report.epsilon.copy()
    report.epsilon[[0, 3, 5, 7, 8]] = [-0.0, 0.0, math.nan, math.inf, -0.0]
    assert _csv(export_epsilon_csv, report) == per_row_epsilon_csv(report)


def test_epsilon_csv_refuses_a_weight_count_other_than_the_basis_size():
    report = analyze_family(example1_config().build_family(), 4)
    report.epsilon = report.epsilon[:-1]
    with pytest.raises(ValueError):
        _csv(export_epsilon_csv, report)
