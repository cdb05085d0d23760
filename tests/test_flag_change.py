"""The change to flag coordinates: the linear substitution, the clipping
of sub-diagonal linear dust it leaves, and a family that needs it."""

import numpy as np
import pytest

from koopman_clf import analysis
from koopman_clf.analysis import (
    _clip_subdiagonal_linear,
    analyze_family,
    substitute_linear,
)
from koopman_clf.config import example1_config, example2_config
from koopman_clf.vectorfield import PolyVectorField

S = np.array([[1.0, 0.4], [-0.3, 1.0]], dtype=complex)
S_INV = np.linalg.inv(S)


def example1_split_pair():
    """example1 with the second diagonal entry of subsystem 2 at -1.2.

    With both Jacobians equal to -I every flag is common and the tool
    keeps P = I; distinct eigenvalues make the flag unique up to order.
    """
    cfg = example1_config()
    cfg.subsystems[1][0][1][(0, 1)] = -1.2
    return cfg.build_family()


@pytest.mark.parametrize(
    "field_",
    [example1_split_pair()[1], example2_config(mu=3.0, degree=8).build_family()[1]],
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
    field_ = example1_split_pair()[1]
    same, size = _clip_subdiagonal_linear(field_, 1e-10)
    assert same is field_
    assert size == 0.0


def test_conjugated_family_reaches_the_scheme_with_triangular_operators(
    monkeypatch,
):
    # conjugate by S: z -> S F(S^-1 z); the certificate verdict is left open
    family = [substitute_linear(f, S_INV, S) for f in example1_split_pair()]
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
