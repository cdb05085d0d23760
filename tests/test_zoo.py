"""One claim per family of ``tests/zoo.py``.  A claim that the tool gets
wrong today is a strict xfail naming the ROADMAP item that fixes it, so
that the fix must flip it."""

import pytest

from koopman_clf.analysis import analyze_family
import zoo


def test_the_non_solvable_pair_stops_at_solvability():
    report = analyze_family(zoo.non_solvable_pair(), 12)
    assert report.exit_code == 2
    assert report.failure["stage"] == "solvability"
    assert report.derived_series_dims == [4, 3, 3]


def test_the_three_dimensional_pair_is_certified_on_a_computed_sup():
    report = analyze_family(zoo.three_dimensional_pair(), 12)
    assert report.certified and report.rho_certified == 1.0
    assert report.poly_condition["q_sup"] == 0.623076923076923
    assert report.poly_condition["source"] == "computed"
    assert report.region["worst"]["bound"] == pytest.approx(-0.80, abs=1e-12)


@pytest.mark.parametrize("degree", [12, 13])
def test_the_trap_family_is_not_certified(degree):
    report = analyze_family(zoo.trap_family(), degree)
    assert not report.certified and report.exit_code == 3


@pytest.mark.parametrize("degree", [
    20, 27,
    pytest.param(30, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 6: the weight floors underflow, exit 4")),
])
def test_the_diagonal_pair_is_certified_at_every_degree(degree):
    report = analyze_family(zoo.diagonal_pair(), degree)
    assert report.certified and report.rho_certified == 1.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the extrapolated sup is low, "
                   "0.390966 at N = 20 against 0.371803 at N = 80")
def test_the_focus_pair_radius_does_not_grow_when_n_falls():
    radius = {degree: analyze_family(zoo.focus_pair(), degree,
                                     scheme_kind="dd").rho_certified
              for degree in (20, 80)}
    assert radius[20] <= radius[80]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the polynomial scheme certifies "
                   "rho = 1 on the computed q_sup 0.9537, below its limit "
                   "1.0404")
def test_example1_at_b_0_34_is_not_certified_on_the_unit_polydisk():
    report = analyze_family(zoo.example1_b034(), 12)
    assert not (report.certified and report.rho_certified == 1.0)


def test_the_split_example1_is_certified_by_the_polynomial_scheme():
    report = analyze_family(zoo.split_example1(), 12)
    assert report.certified and report.rho_certified == 1.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: in the tool's flag coordinates "
                   "the polynomial scheme fails it, exit 3")
def test_the_conjugated_split_example1_gets_the_same_verdict():
    report = analyze_family(zoo.conjugated_split_example1(), 12)
    assert report.certified and report.rho_certified == 1.0
