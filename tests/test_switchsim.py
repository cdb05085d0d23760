import dataclasses
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from koopman_clf import switchsim
from koopman_clf.analysis import analyze_family
from koopman_clf.certificate import CommonLyapunovFunction
from koopman_clf.config import example1_config
from koopman_clf.multiindex import build_basis
from koopman_clf.switchsim import (
    ESCAPE_TOL,
    AuditSummary,
    NonFiniteStateError,
    SwitchedRun,
    SwitchingSignal,
    _integrate,
    _segment_steps,
    _step_plan,
    audit_certificate,
    export_run_csv,
    halton,
    integrate_switched,
    random_signal,
    sample_initial_points,
)
from koopman_clf.vectorfield import PolyVectorField, SwitchedFamily, flow_step
from oracles import field_from_linear, field_step, unit_clf


def contraction_family(rates=(-1.0, -2.0)):
    fields = [
        PolyVectorField([{(1, 0): r}, {(0, 1): r}]) for r in rates
    ]
    return SwitchedFamily(fields)


def linear_nonnormal_family():
    A1 = np.array([[-1.0, 0.6], [0.0, -1.0]])
    A2 = np.diag([-1.0, -1.5])
    return SwitchedFamily([field_from_linear(A) for A in (A1, A2)])


# signals --------------------------------------------------------------------


def test_signal_validation_and_boundaries():
    sig = SwitchingSignal((0.25, 0.5, 0.25), (0, 1, 0), 1.0)
    assert len(sig) == 3
    assert np.allclose(sig.boundaries, [0.25, 0.75, 1.0])
    assert sig.boundaries[-1] == 1.0
    with pytest.raises(ValueError):
        SwitchingSignal((0.5,), (0, 1), 1.0)
    with pytest.raises(ValueError):
        SwitchingSignal((0.5, 0.0), (0, 1), 0.5)


def test_random_signal_is_seed_reproducible():
    a = random_signal(3, 20.0, seed=7)
    b = random_signal(3, 20.0, seed=7)
    assert a.durations == b.durations
    assert a.subsystems == b.subsystems
    c = random_signal(3, 20.0, seed=8)
    assert a.durations != c.durations or a.subsystems != c.subsystems


def test_random_signal_respects_dwell_bounds():
    for seed in range(25):
        sig = random_signal(2, 20.0, min_dwell=0.05, max_dwell=1.0, seed=seed)
        assert abs(sum(sig.durations) - 20.0) < 1e-9
        assert all(0 <= s < 2 for s in sig.subsystems)
        assert all(d >= 0.05 - 1e-12 for d in sig.durations)
        assert all(d <= 1.0 + 1e-12 for d in sig.durations[:-1])
        # final segment may only exceed max_dwell in degenerate configs
        assert sig.durations[-1] <= 1.0 + 1e-9


def test_random_signal_edge_cases():
    assert len(random_signal(2, 0.0)) == 0
    with pytest.raises(ValueError):
        random_signal(0, 1.0)
    with pytest.raises(ValueError):
        random_signal(2, 1.0, min_dwell=0.0)
    with pytest.raises(ValueError):
        random_signal(2, 1.0, min_dwell=0.5, max_dwell=0.4)
    with pytest.raises(ValueError):
        random_signal(2, -1.0)


def test_a_horizon_of_more_than_2_52_dwells_is_refused_by_name():
    # past 2**52 min_dwell a dwell can fall below the spacing of doubles
    # near t, and t += d would stop advancing
    with pytest.raises(ValueError, match=(
        r"^horizon 1e\+300 is 2e\+301 times min_dwell 0\.05, more than the "
        r"2\*\*52 dwells a signal can time$"
    )):
        random_signal(2, 1e300)
    assert len(random_signal(2, 2.0**52 * 0.0625, min_dwell=0.0625,
                             max_dwell=0.0625 * 2**52)) == 1


def test_segment_step_planning():
    assert _segment_steps(0.25, 0.1) == (2, pytest.approx(0.05))
    n, rem = _segment_steps(0.3, 0.1)
    assert n == 3 and rem == 0.0
    n, rem = _segment_steps(0.05, 0.1)
    assert n == 0 and rem == pytest.approx(0.05)


def test_a_dt_whose_plan_no_list_can_index_is_refused_by_name():
    # 20 / 1e-300 steps: refused before any list or array is made
    signal = random_signal(2, 20.0, seed=1)
    with pytest.raises(ValueError, match=r"dt 1e-300 plans 2e\+301 RK4 steps"):
        _step_plan(signal, 1e-300)


# integration ----------------------------------------------------------------


def test_constant_signal_matches_exponential_decay():
    fam = contraction_family()
    sig = SwitchingSignal((2.0,), (0,), 2.0)
    run = integrate_switched(fam, sig, np.array([0.5, -0.25]), unit_clf(2), dt=1e-3)
    assert np.max(np.abs(run.final_state - np.exp(-2.0) * np.array([0.5, -0.25]))) < 1e-9
    assert run.times[-1] == 2.0
    assert not run.escaped


def test_switch_instants_are_sampled_exactly():
    fam = contraction_family()
    sig = SwitchingSignal((0.123, 0.456, 0.421), (0, 1, 0), 1.0)
    run = integrate_switched(fam, sig, np.array([0.4, 0.1]), unit_clf(2), dt=0.01)
    for b in sig.boundaries:
        assert np.min(np.abs(run.times - b)) == 0.0
    # active subsystem recorded at every sample
    assert run.active[0] == 0
    assert run.active[-1] == 0
    assert set(run.active.tolist()) == {0, 1}


def test_cross_segment_decay_against_closed_form():
    fam = contraction_family(rates=(-1.0, -2.0))
    sig = SwitchingSignal((0.5, 0.5), (0, 1), 1.0)
    run = integrate_switched(fam, sig, np.array([0.8, 0.2]), unit_clf(2), dt=1e-3)
    factor = np.exp(-0.5) * np.exp(-1.0)
    assert np.max(np.abs(run.final_state - factor * np.array([0.8, 0.2]))) < 1e-9


def test_dt_larger_than_segment_still_lands_on_switch():
    fam = contraction_family()
    sig = SwitchingSignal((0.03, 0.07), (0, 1), 0.1)
    run = integrate_switched(fam, sig, np.array([0.5, 0.5]), unit_clf(2), dt=0.05)
    assert 0.03 in run.times.tolist()
    assert run.times[-1] == pytest.approx(0.1)


def test_certificate_values_recorded_and_monotone_for_contraction():
    fam = contraction_family()
    basis = build_basis(2, 3)
    clf = CommonLyapunovFunction(
        np.ones(basis.size), np.eye(2, dtype=complex), basis
    )
    sig = SwitchingSignal((0.5, 0.5), (0, 1), 1.0)
    run = integrate_switched(fam, sig, np.array([0.4, -0.2]), clf, dt=0.01)
    assert run.v_values is not None
    assert len(run.v_values) == len(run.times)
    assert run.max_v_increase == 0.0
    assert all(b < a for a, b in zip(run.v_values, run.v_values[1:]))


def test_escape_is_flagged_not_raised():
    fam = SwitchedFamily(
        [PolyVectorField([{(1, 0): 1.0}, {(0, 1): 1.0}])]
    )
    sig = SwitchingSignal((0.2,), (0,), 0.2)
    run = integrate_switched(fam, sig, np.array([0.9, 0.0]), unit_clf(2), dt=1e-3)
    assert run.escaped
    assert 0.09 < run.escape_time < 0.13  # exp growth from 0.9 crosses 1
    assert run.times[-1] == pytest.approx(0.2)  # integration continues


def test_integrate_switched_validates_arguments():
    fam = contraction_family()
    sig = SwitchingSignal((1.0,), (0,), 1.0)
    with pytest.raises(ValueError):
        integrate_switched(fam, sig, np.array([0.1, 0.1]), unit_clf(2), dt=0.0)
    with pytest.raises(ValueError):
        integrate_switched(fam, sig, np.array([0.1, 0.1, 0.1]), unit_clf(2))


def test_run_csv_layout():
    fam = contraction_family()
    sig = SwitchingSignal((0.1,), (0,), 0.1)
    run = integrate_switched(fam, sig, np.array([0.3, 0.2]), unit_clf(2), dt=0.05)
    buf = io.StringIO()
    export_run_csv(run, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,re_z1,im_z1,re_z2,im_z2,V,active_subsystem"
    assert len(lines) == len(run.times) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[5] == repr(float(run.v_values[0])) == repr(0.3**2 + 0.2**2)
    assert first[6] == "0"


# initial points -------------------------------------------------------------


def test_sample_points_deterministic_and_inside_radius():
    a = sample_initial_points(2, 0.9, 12, seed=3)
    b = sample_initial_points(2, 0.9, 12, seed=3)
    assert np.array_equal(a, b)
    c = sample_initial_points(2, 0.9, 12, seed=4)
    assert not np.array_equal(a, c)
    assert np.all(np.abs(a) <= 0.9 + 1e-12)
    # first half is purely real, second half carries phases
    assert np.all(a[:6].imag == 0.0)
    assert np.any(np.abs(a[6:].imag) > 0)


def test_sample_points_validation_and_small_counts():
    with pytest.raises(ValueError):
        sample_initial_points(2, 0.5, 0, seed=0)
    one = sample_initial_points(3, 0.5, 1, seed=0)
    assert one.shape == (1, 3)
    assert np.all(one.imag == 0.0)


# halton ---------------------------------------------------------------------


def test_halton_base2_and_base3_prefixes():
    assert [halton(i, 2) for i in (1, 2, 3, 4)] == [0.5, 0.25, 0.75, 0.125]
    assert np.allclose(
        [halton(i, 3) for i in (1, 2, 3)], [1 / 3, 2 / 3, 1 / 9]
    )


def scalar_halton(index, base):
    result, f = 0.0, 1.0
    i = index
    while i > 0:
        f /= base
        result += f * (i % base)
        i //= base
    return result


@pytest.mark.parametrize("base", [2, 3, 5, 7, 37])
def test_halton_batch_matches_the_scalar_recursion(base):
    index = np.arange(0, 3000)
    want = [scalar_halton(int(i), base) for i in index]
    assert halton(index, base).tolist() == want
    assert halton(index[::-7], base).tolist() == want[::-7]


# audit ----------------------------------------------------------------------


def certified_linear_report():
    fam = linear_nonnormal_family()
    rep = analyze_family(fam, 4, scheme_kind="polynomial")
    assert rep.certified
    return fam, rep


def test_audit_passes_and_is_deterministic():
    fam, rep = certified_linear_report()
    kw = dict(signals=4, points=6, seed=11, dt=0.01, horizon=3.0)
    s1 = audit_certificate(fam, rep, **kw)
    s2 = audit_certificate(fam, rep, **kw)
    assert s1.passed
    assert s1.max_v_increase == 0.0
    assert s1.escapes == 0
    assert s1.to_json_dict() == s2.to_json_dict()


def test_audit_flags_weight_tampering():
    fam, rep = certified_linear_report()
    basis = build_basis(2, 4)
    rep.epsilon = rep.epsilon.copy()
    rep.epsilon[basis.index_of((0, 1)) - 1] = 1e-12
    bad = audit_certificate(
        fam, rep, signals=4, points=6, seed=11, dt=0.01, horizon=3.0
    )
    assert not bad.passed
    assert bad.max_v_increase > 1e-9
    assert math.isfinite(bad.worst_decay_rate) and bad.worst_decay_rate > 0


def test_audit_validates_inputs():
    fam, rep = certified_linear_report()
    with pytest.raises(ValueError):
        audit_certificate(fam, rep, signals=0)
    rep.epsilon = None
    with pytest.raises(ValueError):
        audit_certificate(fam, rep)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(signals=2.5), "signals must be an integer, got 2.5"),
        (dict(signals=True), "signals must be an integer, got True"),
        (dict(signals=np.int64(0)), "signals must be >= 1"),
        (dict(points=2.5), "points must be an integer, got 2.5"),
        (dict(points="3"), "points must be an integer, got '3'"),
        (dict(points=False), "points must be an integer, got False"),
        (dict(points=0), "points must be >= 1"),
        (dict(count=2.5), "count must be an integer, got 2.5"),
        (dict(count=True), "count must be an integer, got True"),
        (dict(count=0), "count must be >= 1"),
        (dict(num_subsystems=2.5), "num_subsystems must be an integer, got 2.5"),
        (dict(num_subsystems=True), "num_subsystems must be an integer, got True"),
    ],
)
def test_audit_counts_must_be_integers_and_name_themselves(kw, message):
    fam, rep = certified_linear_report()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if "count" in kw:
            sample_initial_points(2, 0.5, kw["count"], 0)
        elif "num_subsystems" in kw:
            random_signal(kw["num_subsystems"], 1.0)
        else:
            audit_certificate(fam, rep, dt=0.01, horizon=0.1, **kw)


def test_audit_rejects_a_report_that_does_not_certify_the_family():
    fam, rep = certified_linear_report()
    kw = dict(signals=1, points=1, dt=0.01, horizon=0.1)
    three = SwitchedFamily(list(fam) + [fam[0]])
    with pytest.raises(ValueError, match="'num_subsystems' is 2, the family's is 3"):
        audit_certificate(three, rep, **kw)
    rep.dimension = 3
    with pytest.raises(ValueError, match="'dimension' is 3, the family's is 2"):
        audit_certificate(fam, rep, **kw)
    rep.dimension = 2
    for flag in (False, None, "true", 1):
        rep.certified = flag
        with pytest.raises(ValueError, match="'certified' is not true"):
            audit_certificate(fam, rep, **kw)
    rep.certified = True
    assert audit_certificate(fam, rep, **kw).passed


@pytest.mark.parametrize("name", ["dt", "horizon", "min_dwell", "max_dwell"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_audit_rejects_non_finite_parameters(name, value):
    fam, rep = certified_linear_report()
    kw = dict(signals=1, points=1, dt=0.01, horizon=1.0)
    kw[name] = value
    with pytest.raises(ValueError, match=name):
        audit_certificate(fam, rep, **kw)


def test_audit_refuses_a_horizon_it_cannot_plan_before_drawing_signals(monkeypatch):
    fam, rep = certified_linear_report()

    def drawn(*args, **kwargs):
        raise AssertionError("a signal was drawn")

    monkeypatch.setattr(switchsim, "random_signal", drawn)
    for horizon, dt, steps in ((1e300, 0.01, "1e+302"), (20.0, 1e-300, "2e+301")):
        with pytest.raises(ValueError, match=re.escape(
            f"dt {dt!r} plans {steps} RK4 steps over horizon {horizon!r}"
        )):
            audit_certificate(fam, rep, signals=1, points=1, dt=dt, horizon=horizon)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_integrate_and_signals_reject_non_finite_values(value):
    fam = contraction_family()
    sig = SwitchingSignal((1.0,), (0,), 1.0)
    with pytest.raises(ValueError, match="dt"):
        integrate_switched(fam, sig, np.array([0.1, 0.1]), unit_clf(2), dt=value)
    with pytest.raises(ValueError, match="horizon"):
        random_signal(2, value)
    with pytest.raises(ValueError, match="max_dwell"):
        random_signal(2, 1.0, max_dwell=value)


# worst decay rate -----------------------------------------------------------


def example1_report():
    fam = example1_config().build_family()
    rep = analyze_family(fam, 12, scheme_kind="polynomial")
    assert rep.certified
    return fam, rep


def test_worst_decay_rate_is_negative_for_the_example1_certificate():
    fam, rep = example1_report()
    s = audit_certificate(fam, rep, signals=2, points=8, seed=4, dt=0.01, horizon=4.0)
    assert s.passed
    assert math.isfinite(s.worst_decay_rate) and s.worst_decay_rate < 0
    at = s.worst_decay_at
    assert 0 <= at["signal"] < 2 and 0 <= at["point"] < 8
    assert 0 < at["time"] <= 4.0 and at["subsystem"] in (0, 1)
    data = s.to_json_dict()
    assert json.loads(json.dumps(data, allow_nan=False)) == data


def test_audit_without_steps_reports_no_worst_decay():
    fam, rep = certified_linear_report()
    s = audit_certificate(fam, rep, signals=2, points=3, horizon=0.0)
    assert s.passed and s.max_v_increase == 0.0
    assert s.worst_decay_rate is None and s.worst_decay_at is None
    data = json.loads(json.dumps(s.to_json_dict(), allow_nan=False))
    assert data["worst_decay_rate"] is None and data["worst_decay_at"] is None
    assert s.run.times.tolist() == [0.0] and s.run.max_v_increase == 0.0


AUDIT_KEYS = {
    "kind", "signals", "points", "dt", "horizon", "seed", "rho", "sample_radius",
    "max_v_increase", "worst_decay_rate", "worst_decay_at", "final_norm_max",
    "fraction_converged", "escapes", "slack", "convergence_tol", "passed",
}


def test_the_summary_keeps_its_run_out_of_its_json_and_its_equality():
    fam, rep = certified_linear_report()
    kw = dict(signals=2, points=3, seed=4, dt=0.01, horizon=2.0)
    s = audit_certificate(fam, rep, **kw)
    assert isinstance(s.run, SwitchedRun) and len(s.run.times) > 100
    assert set(s.to_json_dict()) == AUDIT_KEYS
    bare = dataclasses.replace(s, run=None)
    assert s == bare and s.to_json_dict() == bare.to_json_dict()
    other = audit_certificate(fam, rep, **dict(kw, horizon=1.0)).run
    assert len(other.times) < len(s.run.times)
    assert dataclasses.replace(s, run=other) == s
    assert "run=" not in repr(s)


def test_the_audit_run_is_row_0_of_its_integration():
    # signal 0 from point 0, in the batch of all 12 rows; plan 0 is the
    # shortest, so the run ends before the padding of row 0
    fam, rep = example1_report()
    s = audit_certificate(fam, rep, signals=3, points=4, seed=4, dt=0.01, horizon=3.0)
    plans = plans_of(fam, 3, 4, 0.01, 3.0)
    assert len(plans[0][0]) < max(len(p[0]) for p in plans)
    clf = CommonLyapunovFunction(rep.epsilon, rep.P_inv, build_basis(2, 12))
    pts = sample_initial_points(2, 0.95 * rep.rho_certified, 4, 4) @ rep.P.T
    full = _integrate(fam, plans, pts, clf)
    run = s.run
    assert run.signal == random_signal(2, 3.0, seed=4)
    assert np.array_equal(run.times, np.r_[0.0, plans[0][2]])
    assert np.array_equal(run.active, np.r_[plans[0][1][:1], plans[0][1]])
    assert np.array_equal(run.states, full.states[:len(run.times)])
    assert np.array_equal(run.states[0], pts[0])
    assert np.array_equal(run.states[-1], full.Z[0])
    # V of a point does not depend on its batch
    assert np.array_equal(run.v_values, clf.value_batch(run.states))
    assert run.max_v_increase <= s.max_v_increase
    assert not run.escaped and run.escape_time is None


# batched kernel against the sequential loops --------------------------------


def sequential_integrate(family, signal, z0, clf, dt=1e-3):
    """Reference for integrate_switched: one RK4 step and one sample at a time."""
    z = np.asarray(z0, dtype=complex).reshape(1, -1)
    times = [0.0]
    states = [z[0].copy()]
    active = [signal.subsystems[0] if len(signal) else 0]
    v_values = [float(clf.value_batch(z)[0])]
    max_rel = 0.0
    escaped = bool(np.max(np.abs(clf.hat(z))) >= 1.0 - ESCAPE_TOL)
    escape_time = 0.0 if escaped else None
    boundaries = signal.boundaries
    t_start = 0.0
    for seg in range(len(signal)):
        fld = family[signal.subsystems[seg]]
        end = float(boundaries[seg])
        n_full, rem = _segment_steps(signal.durations[seg], dt)
        plan = [dt] * n_full + ([rem] if rem else [])
        for s, h in enumerate(plan):
            z = field_step(fld, z, h)
            t = end if s == len(plan) - 1 else t_start + (s + 1) * dt
            times.append(t)
            states.append(z[0].copy())
            active.append(signal.subsystems[seg])
            v = float(clf.value_batch(z)[0])
            rel = (v - v_values[-1]) / max(v_values[-1], 1e-300)
            max_rel = max(max_rel, rel)
            v_values.append(v)
            if not escaped and np.max(np.abs(clf.hat(z))) >= 1.0 - ESCAPE_TOL:
                escaped = True
                escape_time = t
        t_start = end
    return SwitchedRun(
        signal=signal,
        times=np.array(times),
        states=np.array(states),
        active=np.array(active, dtype=int),
        v_values=np.array(v_values),
        max_v_increase=max_rel,
        escaped=escaped,
        escape_time=escape_time,
    )


def sequential_audit_one_signal(family, clf, P, signal, points, dt):
    """One signal on all points, step by step.

    Returns the largest relative V increase, the escape count, the final
    norms, and the worst decay rate as (rate, step, point, time,
    subsystem); among equal rates the earliest step and the lowest point
    win.  A step from V = 0 has no rate; the worst is None when no step
    has one.
    """
    Z = points @ P.T
    Zh = clf.hat(Z)
    v_prev = clf.value_batch(Z)
    max_rel, worst = 0.0, None
    escaped = np.abs(Zh).max(axis=1) >= 1.0 - ESCAPE_TOL
    step, t_start = 0, 0.0
    for seg in range(len(signal)):
        fld = family[signal.subsystems[seg]]
        end = float(signal.boundaries[seg])
        n_full, rem = _segment_steps(signal.durations[seg], dt)
        plan = [dt] * n_full + ([rem] if rem else [])
        for s, h in enumerate(plan):
            Z = field_step(fld, Z, h)
            Zh = clf.hat(Z)
            v = clf.value_batch(Z)
            rel = (v - v_prev) / np.maximum(v_prev, 1e-300)
            max_rel = max(max_rel, float(np.max(rel)))
            rate = np.where(v_prev == 0.0, -np.inf, rel / h)
            p = int(np.argmax(rate))
            if rate[p] > (-np.inf if worst is None else worst[0]):
                t = end if s == len(plan) - 1 else t_start + (s + 1) * dt
                worst = (float(rate[p]), step, p, t, signal.subsystems[seg])
            v_prev = v
            escaped |= np.abs(Zh).max(axis=1) >= 1.0 - ESCAPE_TOL
            step += 1
        t_start = end
    return max_rel, int(np.sum(escaped)), np.abs(Z).max(axis=1), worst


def sequential_audit(family, report, signals, points, seed, dt, horizon,
                     min_dwell=0.05, max_dwell=1.0, slack=1e-9,
                     convergence_tol=1e-3):
    """Reference for audit_certificate: the signals one after another."""
    n = report.dimension
    basis = build_basis(n, report.truncation_degree)
    clf = CommonLyapunovFunction(report.epsilon, report.P_inv, basis)
    rho = float(report.rho_certified)
    pts = sample_initial_points(n, 0.95 * rho, points, seed)
    results = [
        sequential_audit_one_signal(
            family,
            clf,
            report.P,
            random_signal(len(family), horizon, min_dwell, max_dwell,
                          seed=seed + 7919 * s),
            pts,
            dt,
        )
        for s in range(signals)
    ]
    max_rel = max(r[0] for r in results)
    escapes = sum(r[1] for r in results)
    final_norms = np.concatenate([r[2] for r in results])
    # the largest rate; among equal rates the earliest step, then the lowest signal
    rated = [s for s in range(signals) if results[s][3] is not None]
    best = min(rated, key=lambda s: (-results[s][3][0], results[s][3][1], s),
               default=None)
    rate, at = None, None
    if best is not None:
        rate, _, point, time, sub = results[best][3]
        at = {"signal": best, "point": point, "time": time, "subsystem": sub}
    return AuditSummary(
        signals=signals,
        points=points,
        dt=float(dt),
        horizon=float(horizon),
        seed=int(seed),
        rho=rho,
        sample_radius=0.95 * rho,
        max_v_increase=max_rel,
        worst_decay_rate=rate,
        worst_decay_at=at,
        final_norm_max=float(final_norms.max()),
        fraction_converged=float(np.mean(final_norms < convergence_tol)),
        escapes=escapes,
        slack=float(slack),
        convergence_tol=float(convergence_tol),
        passed=bool(max_rel <= slack and escapes == 0),
    )


def three_subsystem_report():
    fam = SwitchedFamily(
        [
            PolyVectorField([{(1, 0): -1.0, (1, 1): 0.2}, {(0, 1): -2.0}]),
            PolyVectorField([{(1, 0): -1.5}, {(0, 1): -0.5, (2, 0): 0.3}]),
            PolyVectorField([{(1, 0): -0.7}, {(0, 1): -1.2, (1, 1): -0.1}]),
        ]
    )
    rep = analyze_family(fam, 6, scheme_kind="polynomial")
    assert rep.certified
    return fam, rep


def plans_of(family, signals, seed, dt, horizon):
    return [
        _step_plan(random_signal(len(family), horizon, seed=seed + 7919 * s), dt)
        for s in range(signals)
    ]


def test_batched_audit_matches_sequential_audit_with_padding():
    fam, rep = example1_report()
    kw = dict(signals=3, points=5, seed=0, dt=0.01, horizon=3.0)
    counts = {len(p[0]) for p in plans_of(fam, 3, 0, 0.01, 3.0)}
    assert len(counts) == 3  # plans of three lengths: rows go idle at different steps
    got = audit_certificate(fam, rep, **kw)
    assert got.passed
    assert got.to_json_dict() == sequential_audit(fam, rep, **kw).to_json_dict()


def test_batched_audit_matches_sequential_audit_on_tampered_weight():
    fam, rep = certified_linear_report()
    rep.epsilon = rep.epsilon.copy()
    rep.epsilon[build_basis(2, 4).index_of((0, 1)) - 1] = 1e-12
    kw = dict(signals=4, points=6, seed=11, dt=0.01, horizon=3.0)
    got = audit_certificate(fam, rep, **kw)
    assert not got.passed
    assert got.to_json_dict() == sequential_audit(fam, rep, **kw).to_json_dict()


def test_batched_audit_matches_sequential_audit_on_three_subsystems():
    fam, rep = three_subsystem_report()
    kw = dict(signals=6, points=4, seed=0, dt=0.01, horizon=4.0)
    plans = plans_of(fam, 6, 0, 0.01, 4.0)
    shortest = min(len(p[0]) for p in plans)
    assert any(len({int(p[1][l]) for p in plans}) == 3 for l in range(shortest))
    got = audit_certificate(fam, rep, **kw)
    assert got.passed
    assert got.to_json_dict() == sequential_audit(fam, rep, **kw).to_json_dict()


def assert_runs_equal(got, want):
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.active, want.active)
    assert np.array_equal(got.v_values, want.v_values)
    assert got.max_v_increase == want.max_v_increase
    assert got.escaped == want.escaped
    assert got.escape_time == want.escape_time


def test_integrate_switched_matches_sequential_rk4():
    fam, rep = example1_report()
    clf = CommonLyapunovFunction(rep.epsilon, rep.P_inv, build_basis(2, 12))
    sig = random_signal(2, 3.0, seed=5)
    z0 = rep.P @ sample_initial_points(2, 0.9, 3, seed=5)[2]
    for c in (clf, unit_clf(2)):
        assert_runs_equal(
            integrate_switched(fam, sig, z0, c, dt=0.013),
            sequential_integrate(fam, sig, z0, c, dt=0.013),
        )
    # an escaping run, and a step longer than every segment
    grow = SwitchedFamily([PolyVectorField([{(1, 0): 1.0}, {(0, 1): 0.5}])] * 2)
    sig = SwitchingSignal((0.03, 0.2, 0.07), (0, 1, 0), 0.3)
    for dt in (1e-3, 0.5):
        assert_runs_equal(
            integrate_switched(grow, sig, np.array([0.9, 0.1]), unit_clf(2), dt=dt),
            sequential_integrate(grow, sig, np.array([0.9, 0.1]), unit_clf(2), dt=dt),
        )


def test_interleaved_audits_and_runs_match_each_alone():
    # each integration owns its scratch, so runs sharing the family's
    # fields cannot see each other's work arrays
    fam, rep = three_subsystem_report()
    clf = CommonLyapunovFunction(rep.epsilon, rep.P_inv, build_basis(2, 6))
    kw = dict(signals=3, points=4, seed=2, dt=0.01, horizon=2.0)
    sig = random_signal(3, 2.0, seed=8)
    z0 = sample_initial_points(2, 0.5, 1, seed=1)[0]
    alone_audit = audit_certificate(fam, rep, **kw).to_json_dict()
    alone_run = integrate_switched(fam, sig, z0, clf, dt=0.01)
    for _ in range(2):
        assert audit_certificate(fam, rep, **kw).to_json_dict() == alone_audit
        assert_runs_equal(integrate_switched(fam, sig, z0, clf, dt=0.01), alone_run)


def test_rows_whose_plan_has_ended_keep_their_state_bit_for_bit():
    # plan 0 drives its rows to about 1e119 under the fast linear field
    # and ends; its rows then take zero-length steps under that field in
    # a mixed batch, while plan 1's rows run under the cubic field.  The
    # cubic terms overflow on the ended rows, but each row keeps only its
    # own field's values, so nothing raises.  The integration records row
    # 0, so each of plan 0's points is put first in turn
    fam = SwitchedFamily(
        [PolyVectorField([{(3,): -1.0}]), PolyVectorField([{(1,): 40.0}])]
    )
    plans = [
        _step_plan(SwitchingSignal((7.8,), (1,), 7.8), 0.1),
        _step_plan(SwitchingSignal((10.0,), (0,), 10.0), 0.1),
    ]
    end = len(plans[0][0])
    assert end < len(plans[1][0]) and plans[0][1][-1] == 1
    assert np.all(plans[1][1][end:] == 0)
    for pts in ([[0.5], [0.3]], [[0.3], [0.5]]):
        pts = np.array(pts, dtype=complex)
        run = _integrate(fam, plans, pts, unit_clf(1))
        ended = run.states[end:].view(np.uint64)
        assert np.all(ended == ended[0]) and np.all(np.isfinite(run.states))
        assert np.all(np.isfinite(run.Z))
        assert 1e100 < abs(run.Z[0, 0]) < 1e200
        alone = _integrate(fam, plans[:1], pts, unit_clf(1))
        assert np.array_equal(run.Z[:2], alone.Z)
        assert run.escaped[:2].all()
        assert np.array_equal(run.escape_time[:2], alone.escape_time)
        assert not run.escaped[2:].any()


def test_integration_steps_allocate_no_batch_sized_array(monkeypatch):
    # criterion-8 sizes, 100 signals x 50 points: R = 5000 rows, and the
    # plans end at different steps, so zero-length steps run too.  Memory
    # is counted from the first step on; the set-up before it allocates
    # the states and both scratches.
    fam, rep = example1_report()
    clf = CommonLyapunovFunction(rep.epsilon, rep.P_inv, build_basis(2, 12))
    plans = plans_of(fam, 100, 2026, 0.01, 3.0)
    assert len({len(p[0]) for p in plans}) > 1
    pts = sample_initial_points(2, 0.9, 50, seed=1)
    base = []

    def counted_step(*args, **kwargs):
        if not base:
            base.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return flow_step(*args, **kwargs)

    monkeypatch.setattr(switchsim, "flow_step", counted_step)
    tracemalloc.start()
    try:
        run = _integrate(fam, plans, pts, clf)
        peak = tracemalloc.get_traced_memory()[1] - base[0]
    finally:
        tracemalloc.stop()
    assert run.worst_rate < 0 and not run.escaped.any()
    assert peak < run.Z.nbytes / 4  # the finiteness mask is an eighth


# blocks of steps -------------------------------------------------------------


def block_steps(rows):
    """Steps in one block of an integration of ``rows`` rows, before the
    cap at the step count."""
    return max(1, switchsim.BLOCK_ROWS // rows)


@pytest.mark.parametrize("horizon", [1.0, 3.0])
def test_blocked_audit_matches_sequential_audit_across_block_ends(horizon):
    # 3 signals x 5 points are 15 rows, so a block holds 136 steps: a
    # horizon of 1 takes fewer, one of 3 ends in a partial third block
    fam, rep = certified_linear_report()
    kw = dict(signals=3, points=5, seed=3, dt=0.01, horizon=horizon)
    L, C = max(len(p[0]) for p in plans_of(fam, 3, 3, 0.01, horizon)), block_steps(15)
    assert L < C if horizon == 1.0 else L > 2 * C and L % C
    got = audit_certificate(fam, rep, **kw)
    assert got.passed
    assert got.to_json_dict() == sequential_audit(fam, rep, **kw).to_json_dict()


def test_the_worst_decay_rate_is_its_first_occurrence_across_blocks():
    # the field leaves z2 alone, so the point (0, 0.5) stays where it is
    # and V stays positive there: its rate is 0 at each of the 2000 steps,
    # above the other row's; 2 rows hold 1024 steps a block
    fam = SwitchedFamily([PolyVectorField([{(1, 0): -1.0}, {}])])
    basis = build_basis(2, 3)
    clf = CommonLyapunovFunction(np.ones(basis.size), np.eye(2), basis)
    plan = _step_plan(SwitchingSignal((2.0,), (0,), 2.0), 1e-3)
    assert len(plan[0]) > block_steps(2)
    run = _integrate(fam, [plan], np.array([[0.5, 0.1], [0.0, 0.5]]), clf)
    assert run.worst_rate == 0.0
    assert run.worst_at == dict(signal=0, point=1, time=float(plan[2][0]), subsystem=0)


def scalar_pair():
    return SwitchedFamily([
        PolyVectorField([{(1,): -1.0, (2,): 0.2}]),
        PolyVectorField([{(1,): -2.0, (3,): 0.3 + 0.1j}]),
    ])


@pytest.mark.parametrize("scheme", ["polynomial", "diagonal_dominance"])
def test_a_step_from_the_origin_has_no_decay_rate(scheme):
    # in dimension 1 the first sample point is the origin, where V stays
    # 0: its steps have no relative rate, so the worst rate is another
    # point's, and a lone origin sample leaves none at all
    fam = scalar_pair()
    rep = analyze_family(fam, 6, scheme_kind=scheme)
    assert rep.certified
    kw = dict(seed=7, dt=0.05, horizon=2.0)
    assert sample_initial_points(1, 0.95 * rep.rho_certified, 3, 7)[0, 0] == 0
    got = audit_certificate(fam, rep, signals=2, points=3, **kw)
    assert got.passed and got.worst_decay_rate < 0
    assert got.worst_decay_at["point"] != 0
    assert got.to_json_dict() == sequential_audit(
        fam, rep, signals=2, points=3, **kw).to_json_dict()
    lone = audit_certificate(fam, rep, signals=1, points=1, **kw)
    assert lone.worst_decay_rate is None and lone.worst_decay_at is None
    assert lone.to_json_dict() == sequential_audit(
        fam, rep, signals=1, points=1, **kw).to_json_dict()


def growing_family():
    # the second field has two terms in a component: a lone row's RK4
    # steps round as a batch's only since a lone row is contracted over a
    # padding column
    return SwitchedFamily([
        PolyVectorField([{(1, 0): 1.0}, {(0, 1): 0.5}]),
        PolyVectorField([{(1, 0): 0.6, (0, 1): 0.2}, {(0, 1): 1.1}]),
    ])


def test_a_lone_integration_is_row_0_of_a_batch_bit_for_bit():
    fam = growing_family()
    signals = [random_signal(2, 3.0, seed=s) for s in range(3)]
    plans = [_step_plan(sig, 0.01) for sig in signals]
    assert set(plans[0][1].tolist()) == {0, 1}
    pts = sample_initial_points(2, 0.05, 4, seed=2)
    full = _integrate(fam, plans, pts, unit_clf(2))
    one = integrate_switched(fam, signals[0], pts[0], unit_clf(2), dt=0.01)
    k = len(one.times)
    assert np.array_equal(one.states.view(np.uint64), full.states[:k].view(np.uint64))


def test_a_one_row_audit_is_row_0_of_a_larger_audit_bit_for_bit():
    # a linear pair conjugated by S, so that each component has two terms
    S = np.array([[1.0, 0.4], [-0.3, 1.0]])
    fam = SwitchedFamily([
        field_from_linear(S @ np.array(A) @ np.linalg.inv(S))
        for A in ([[-1.16, 0.36], [0.0, -0.9]], [[-1.46, -0.15], [0.0, -1.1]])
    ])
    rep = analyze_family(fam, 6)
    assert rep.certified
    one = audit_certificate(fam, rep, signals=1, points=1, seed=2026, dt=0.01,
                            horizon=5.0).run
    row = audit_certificate(fam, rep, signals=3, points=4, seed=2026, dt=0.01,
                            horizon=5.0).run
    assert np.array_equal(one.states.view(np.uint64), row.states.view(np.uint64))
    assert np.array_equal(one.v_values.view(np.uint64), row.v_values.view(np.uint64))


def test_each_step_is_one_flow_step_call_on_the_whole_batch(monkeypatch):
    # benchmarks/tracer.py times the steps by wrapping switchsim.flow_step
    # and counts the rows of its argument 1
    batches = []

    def counted_step(*args, **kwargs):
        batches.append(args[1].shape)
        return flow_step(*args, **kwargs)

    monkeypatch.setattr(switchsim, "flow_step", counted_step)
    fam, rep = example1_report()
    plans = plans_of(fam, 3, 4, 0.01, 2.0)
    clf = CommonLyapunovFunction(rep.epsilon, rep.P_inv, build_basis(2, 12))
    _integrate(fam, plans, sample_initial_points(2, 0.5, 4, seed=1), clf)
    assert batches == [(12, 2)] * max(len(p[0]) for p in plans)


@pytest.mark.parametrize("signals", [1, 3])
def test_every_step_reads_a_contiguous_points_last_batch(monkeypatch, signals):
    # flow_step reads z.T as it is given; the states are kept points-last
    # for one plan too, where np.tile would keep the points' own order
    layouts = set()

    def seen_step(*args, **kwargs):
        layouts.add(args[1].T.flags.c_contiguous)
        return flow_step(*args, **kwargs)

    monkeypatch.setattr(switchsim, "flow_step", seen_step)
    fam = contraction_family()
    plans = plans_of(fam, signals, 4, 0.01, 0.5)
    _integrate(fam, plans, sample_initial_points(2, 0.5, 5, seed=1), unit_clf(2))
    assert layouts == {True}


@pytest.mark.parametrize("flag_change", [True, False])
def test_escapes_in_mid_block_match_sequential_integrate(flag_change):
    # V in flag coordinates that are not the state's, or V = |z|^2
    # 3 signals x 4 points are 12 rows, 170 steps a block, and 600 steps;
    # each row's states, V and escape time are its lone trajectory's.  The
    # integration records row 0, so the plans and points are rotated to
    # put each row there in turn
    fam = growing_family()
    basis = build_basis(2, 6)
    clf = CommonLyapunovFunction(
        np.ones(basis.size), np.array([[1.0, 0.3j], [0.0, 1.0]]), basis
    ) if flag_change else unit_clf(2)
    signals = [random_signal(2, 6.0, seed=s) for s in range(3)]
    plans = [_step_plan(sig, 0.01) for sig in signals]
    pts = sample_initial_points(2, 0.9, 4, seed=2)
    C, escape_steps = block_steps(12), []
    for s, sig in enumerate(signals):
        for p, z0 in enumerate(pts):
            run = _integrate(fam, plans[s:] + plans[:s], np.roll(pts, -p, axis=0), clf)
            want = sequential_integrate(fam, sig, z0, clf, dt=0.01)
            k = len(want.times)
            assert np.array_equal(run.states[:k], want.states)
            assert np.array_equal(run.values[:k], want.v_values)
            assert run.escaped[0] == want.escaped
            if want.escaped:
                assert run.escape_time[0] == want.escape_time
                escape_steps.append(want.times.tolist().index(want.escape_time) - 1)
    assert any(l > C and 0 < l % C < C - 1 for l in escape_steps)


def test_a_lone_trajectory_across_block_ends_matches_sequential_rk4():
    # one row: a block holds 2048 steps, and the runs take 3000 and 3500,
    # the growing one escaping in mid-block of its second block
    fam, rep = example1_report()
    clf = CommonLyapunovFunction(rep.epsilon, rep.P_inv, build_basis(2, 12))
    cases = [
        (fam, random_signal(2, 3.0, seed=5), rep.P @ sample_initial_points(2, 0.9, 3, 5)[2]),
        (growing_family(), SwitchingSignal((3.5,), (0,), 3.5), np.array([0.05, 0.01])),
    ]
    for family, sig, z0 in cases:
        got = integrate_switched(family, sig, z0, clf, dt=1e-3)
        assert len(got.times) - 1 > block_steps(1) and (len(got.times) - 1) % block_steps(1)
        assert_runs_equal(got, sequential_integrate(family, sig, z0, clf, dt=1e-3))
    assert got.escaped and got.escape_time > 2.048 + 0.1


@pytest.mark.parametrize("rows", [2, 300])
def test_a_non_finite_v_before_a_non_finite_state_is_the_error(rows):
    # z' = 40 z grows 34-fold a step of 0.1: V of degree 12 passes the
    # largest double at step 9 or so, V = |z|^2 at step 101, the state
    # about 190 steps later.  With 2 rows a block holds all 300 steps, so
    # both happen in one block; with 300 rows a block holds 6 steps.
    fam = SwitchedFamily([PolyVectorField([{(1,): 40.0}])])
    basis = build_basis(1, 12)
    h, _, T = plan = _step_plan(SwitchingSignal((30.0,), (0,), 30.0), 0.1)
    pts = np.array([[0.5]] * (rows - 1) + [[0.9]], dtype=complex)
    assert rows > 2 or len(T) <= block_steps(rows)
    for clf in (CommonLyapunovFunction(np.ones(basis.size), np.eye(1), basis),
                unit_clf(1)):
        z = pts[-1:]
        with np.errstate(over="ignore"):
            for dt, t in zip(h, T):  # the end of the first step with V not finite
                z = field_step(fam[0], z, dt)
                if not np.isfinite(clf.value_batch(z)[0]):
                    break
        assert np.isfinite(z).all()
        with pytest.raises(NonFiniteStateError, match=re.escape(f"V at t={float(t)!r}")):
            _integrate(fam, [plan], pts, clf)
    # z' = z^3 steps the row from 0.9 to |z| = 4.7e11 at its seventh step,
    # where V = |z|^2 is finite, and to a non-finite state at its eighth,
    # whose V is the error
    cubic = SwitchedFamily([PolyVectorField([{(3,): 1.0}])])
    with pytest.raises(NonFiniteStateError, match=r"^non-finite V at t=0\.8$"):
        _integrate(cubic, [plan], pts, unit_clf(1))


def test_a_blowup_on_the_first_step_of_a_later_block_is_the_error_at_its_end():
    # signal 1 runs z' = z^3 with a step shortened to 0.05 at a switch to
    # the same field, and takes its last point, 0.9, to a non-finite state
    # at its ninth step; 2 x 120 rows make blocks of 8 steps, so that step
    # opens the second block, and ends near 0.85 on signal 1, not at 0.9 as
    # signal 0's ninth step does
    fam = SwitchedFamily([PolyVectorField([{(1,): -1.0}]),
                          PolyVectorField([{(3,): 1.0}])])
    signals = [SwitchingSignal((30.0,), (0,), 30.0),
               SwitchingSignal((0.25, 29.75), (1, 1), 30.0)]
    plans = [_step_plan(sig, 0.1) for sig in signals]
    pts = np.array([[0.5]] * 119 + [[0.9]], dtype=complex)
    clf, (h, _, T) = unit_clf(1), plans[1]
    z = pts[-1:]
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (dt, t) in enumerate(zip(h, T)):
            z = field_step(fam[1], z, dt)
            if not np.isfinite(z).all():
                break
    assert l == block_steps(240) == 8 and t != plans[0][2][l]
    message = f"non-finite V at t={float(t)!r}"
    with pytest.raises(NonFiniteStateError, match=f"^{re.escape(message)}$"):
        _integrate(fam, plans, pts, clf)


@pytest.mark.parametrize("rate,z0", [(5.9e20, 0.1), (5.1e20, 0.1), (1e60, 1e-170)])
def test_an_infinite_rate_between_finite_values_of_v_is_the_error(rate, z0):
    # z' = rate z takes V = |z|^2 + |z|^4 to a finite V in one step of 0.1:
    # from 0.0101 to 6.498e306 at 5.9e20, whose relative increment
    # overflows, and to 6.314e305 at 5.1e20, whose increment is finite and
    # its rate not; and from 0, which has no rate, to 3.014e258, whose
    # increment over the floor 1e-300 overflows all the same
    fam = SwitchedFamily([PolyVectorField([{(1,): rate}])])
    clf = CommonLyapunovFunction(np.ones(2), np.eye(1), build_basis(1, 2))
    plan = _step_plan(SwitchingSignal((0.1,), (0,), 0.1), 0.1)
    z = np.array([[z0 + 0j]])
    with np.errstate(over="ignore"):
        v0, v1 = clf.value_batch(z)[0], clf.value_batch(field_step(fam[0], z, 0.1))[0]
        assert math.isfinite(v0) and math.isfinite(v1)
        assert not math.isfinite((v1 - v0) / max(v0, 1e-300) / 0.1)
    with pytest.raises(NonFiniteStateError, match=r"^non-finite rate of V at t=0\.1$"):
        _integrate(fam, [plan], z, clf)


def test_a_non_finite_v_at_the_initial_states_is_the_error_at_t_0():
    # every weight 1e308: V overflows at the sample points themselves, not
    # first after a step
    fam = example1_config().build_family()
    rep = analyze_family(fam, 6, scheme_kind="polynomial")
    rep.epsilon[:] = 1e308
    with pytest.raises(NonFiniteStateError, match=r"^non-finite V at t=0\.0$"):
        audit_certificate(fam, rep, signals=2, points=3, seed=1, dt=0.01, horizon=1.0)
    # one row overflowing among finite ones is enough
    clf = CommonLyapunovFunction(rep.epsilon, np.eye(2), build_basis(2, 6))
    plan = _step_plan(SwitchingSignal((1.0,), (0,), 1.0), 0.01)
    pts = np.array([[1e-3, 0.0], [0.9, 0.9], [0.0, 1e-3]], dtype=complex)
    with np.errstate(over="ignore"):
        assert np.isfinite(clf.value_batch(pts)).tolist() == [True, False, True]
    with pytest.raises(NonFiniteStateError, match=r"^non-finite V at t=0\.0$"):
        _integrate(fam, [plan], pts, clf)


# property: the batched audit is the sequential one ---------------------------


@st.composite
def triangular_families(draw):
    """2-3 planar fields with negative diagonal linear parts and small
    upper-triangular terms of degree at most 3."""
    coeff = st.floats(-0.3, 0.3)
    fields = []
    for _ in range(draw(st.integers(2, 3))):
        first = {(1, 0): -draw(st.floats(0.5, 2.0))}
        second = {(0, 1): -draw(st.floats(0.5, 2.0))}
        for alpha in draw(st.sets(st.sampled_from([(0, 1), (1, 1), (0, 2), (1, 2)]))):
            first[alpha] = complex(draw(coeff), draw(coeff))
        for alpha in draw(st.sets(st.sampled_from([(0, 2), (0, 3)]))):
            second[alpha] = draw(coeff)
        fields.append(PolyVectorField([first, second]))
    return SwitchedFamily(fields)


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    fam=triangular_families(),
    degree=st.integers(4, 6),
    signals=st.integers(2, 4),
    points=st.integers(2, 5),
    seed=st.integers(0, 1000),
    horizon=st.floats(0.2, 2.0),
)
def test_batched_audit_is_the_sequential_audit(fam, degree, signals, points, seed,
                                               horizon):
    rep = analyze_family(fam, degree, scheme_kind="polynomial")
    assume(rep.certified)
    kw = dict(signals=signals, points=points, seed=seed, dt=0.01, horizon=horizon)
    got = audit_certificate(fam, rep, **kw)
    assert got.to_json_dict() == sequential_audit(fam, rep, **kw).to_json_dict()
