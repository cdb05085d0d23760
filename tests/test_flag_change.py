"""The change to flag coordinates: the linear substitution, the clipping
of sub-diagonal linear dust it leaves, and a family that needs it."""

import json

import numpy as np
import pytest

from koopman_clf import analysis
from koopman_clf.analysis import (
    _clip_subdiagonal_linear,
    analyze_family,
    substitute_linear,
)
from koopman_clf.cli import main
from koopman_clf.config import (
    SimulationParams,
    SystemConfig,
    example2_config,
)
from koopman_clf.vectorfield import PolyVectorField, SwitchedFamily
from zoo import split_example1

S = np.array([[1.0, 0.4], [-0.3, 1.0]], dtype=complex)
S_INV = np.linalg.inv(S)


@pytest.mark.parametrize(
    "field_",
    [split_example1()[1], example2_config(mu=3.0, degree=8).build_family()[1]],
    ids=["example1", "example2"],
)
def test_substitute_linear_round_trip_recovers_every_coefficient(field_):
    there = substitute_linear(field_, S, S_INV)
    back = substitute_linear(there, S_INV, S)
    assert back.dimension == field_.dimension
    for l, (want, got) in enumerate(zip(field_.components, back.components)):
        for alpha, a in want.items():
            assert abs(got.get(alpha, 0j) - a) <= 1e-12 * max(1.0, abs(a)), (l, alpha)
        for alpha in set(got) - set(want):
            assert abs(got[alpha]) <= 1e-12, (l, alpha)


def _with_subdiagonal(value):
    return PolyVectorField(
        [{(1, 0): -1.0, (0, 1): 0.5, (2, 0): 0.1}, {(1, 0): value, (0, 1): -2.0}],
        tail_l1=[2.0, 3.0],
    )


@pytest.mark.parametrize("dust", [1e-12, -1e-10, 1e-10j])
def test_clip_subdiagonal_linear_removes_dust_up_to_the_tolerance(dust):
    field_ = _with_subdiagonal(dust)
    clipped, size = _clip_subdiagonal_linear(field_, 1e-10)
    assert size == abs(dust)
    assert (1, 0) not in clipped.components[1]
    assert clipped.components[0] == field_.components[0]
    assert clipped.components[1] == {(0, 1): -2.0}
    assert clipped.tail_l1 == field_.tail_l1
    assert clipped.truncated == field_.truncated


def test_clip_subdiagonal_linear_rejects_coefficients_above_the_tolerance():
    with pytest.raises(ValueError, match="flag-consistency tolerance"):
        _clip_subdiagonal_linear(_with_subdiagonal(2e-10), 1e-10)


def test_clip_subdiagonal_linear_returns_the_same_field_when_clean():
    field_ = split_example1()[1]
    same, size = _clip_subdiagonal_linear(field_, 1e-10)
    assert same is field_
    assert size == 0.0


def test_conjugated_family_reaches_the_scheme_with_triangular_operators(
    monkeypatch,
):
    # conjugate by S: z -> S F(S^-1 z); the certificate verdict is left open
    family = [substitute_linear(f, S_INV, S) for f in split_example1()]
    built, build = [], analysis.build_operator

    def spy(field_hat, basis):
        built.append(build(field_hat, basis))
        return built[-1]

    monkeypatch.setattr(analysis, "build_operator", spy)
    report = analyze_family(family, 8)
    assert not np.allclose(report.P, np.eye(2))
    assert report.failure is None or report.failure["stage"] in (
        "scheme",
        "convergence",
    )
    assert report.poly_condition is not None
    assert len(built) == 2
    for op in built:
        kmat = op.kmat
        assert np.all(kmat.j >= kmat.k)
        diagonal = kmat.k == kmat.j
        assert np.array_equal(kmat.k[diagonal], np.arange(1, kmat.size + 1))
        assert np.all(kmat.v[diagonal].real < 0)


def test_a_complex_triangularization_round_trips_through_simulate(tmp_path):
    # simulate re-derives the report from its config block, LAPACK's flag
    # change included, and finds it equal to the one analyze wrote
    S_c = np.array([[1.0, 0.4j], [-0.3, 1.0]])
    S_c_inv = np.linalg.inv(S_c)
    family = [substitute_linear(f, S_c_inv, S_c) for f in split_example1()]
    cfg = SystemConfig(
        truncation_degree=8, family=SwitchedFamily(family),
        scheme_kind="diagonal_dominance",
        simulation=SimulationParams(dt=0.01, horizon=1.0, trials=1, points=2),
    )
    cfg_path, rpt, out = (tmp_path / name for name in ("sys.json", "r.json", "a.json"))
    cfg_path.write_text(cfg.to_json())
    assert main(["analyze", "--config", str(cfg_path), "--out", str(rpt)]) == 0
    data = json.loads(rpt.read_text())
    P = np.array([[complex(c["re"], c["im"]) for c in row]
                  for row in data["triangularization"]["P"]])
    assert np.any(P.imag != 0) and not np.allclose(P, np.eye(2))
    assert main(["simulate", "--report", str(rpt), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def example2_split_pair():
    """example2 (mu = 3, N = 20) with both second diagonals at -2 and the
    second tail norms at 2.0: each Jacobian is diag(-1, -2), so the
    coordinates already carry the common flag, in the order the
    eigenvalues do not sort."""
    return SwitchedFamily(
        PolyVectorField([f.components[0], {(0, 1): -2.0 + 0j}],
                        tail_l1=[f.tail_l1[0], 2.0])
        for f in example2_config(mu=3.0, degree=20).family
    )


@pytest.mark.parametrize("scheme", ["polynomial", "diagonal_dominance"])
def test_coordinates_that_carry_a_common_flag_are_kept(scheme):
    # the eigenvalue search alone would take the axis of -1.2 first and
    # swap the coordinates
    report = analyze_family(split_example1(), 12, scheme_kind=scheme)
    assert report.certified
    assert np.array_equal(report.P, np.eye(2))
    assert np.array_equal(report.P_inv, np.eye(2))


def test_kept_coordinates_keep_the_tail_norms():
    # swapped coordinates would drop the tail norms in substitute_linear,
    # whose truncated fields warn ``tail_l1 missing``: an error under this
    # suite's warning filter
    report = analyze_family(example2_split_pair(), 20, scheme_kind="dd")
    assert report.certified
    assert np.array_equal(report.P, np.eye(2))
    assert report.region["proved"]
    assert report.rho_certified == 0.5482607357943946
    assert len(report.warnings) == 1
    assert report.warnings[0].startswith("headroom eta reduced")
