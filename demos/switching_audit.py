"""Audit a certificate by simulating seeded switching schedules.

A certificate is only as good as its weakest weight: the audit integrates
the switched system under random dwell-time schedules, evaluates the
certified function along every trajectory, and flags any relative
increase beyond numerical slack.  The script audits the polynomial pair,
prints one trajectory in detail, then tampers with a weight of a linear
non-normal pair and shows the audit catching it.
"""

import numpy as np

from koopman_clf.analysis import analyze_family
from koopman_clf.config import example1_config
from koopman_clf.kernels import CommonLyapunovFunction
from koopman_clf.multiindex import build_basis
from koopman_clf.switchsim import (
    audit_certificate,
    integrate_switched,
    random_signal,
    sample_initial_points,
)
from koopman_clf.vectorfield import PolyVectorField, SwitchedFamily

family = example1_config().build_family()
report = analyze_family(family, 12, scheme_kind="polynomial")
assert report.certified

summary = audit_certificate(
    family, report, signals=20, points=20, seed=3, dt=0.01, horizon=20.0
)
print("audit of the polynomial pair certificate:")
print(f"  signals x points: {summary.signals} x {summary.points}")
print(f"  sample radius:    {summary.sample_radius}")
print(f"  max relative V increase: {summary.max_v_increase!r}")
at = summary.worst_decay_at
print(f"  slowest decay of V: {summary.worst_decay_rate:.3f} per unit time "
      f"(signal {at['signal']}, point {at['point']}, t = {at['time']:.2f}, "
      f"subsystem {at['subsystem'] + 1})")
print(f"  escapes: {summary.escapes},  converged: "
      f"{100 * summary.fraction_converged:.0f}%  -> passed: {summary.passed}")

# one schedule in detail
basis = build_basis(2, 12)
clf = CommonLyapunovFunction(report.epsilon, report.P_inv, basis)
sig = random_signal(len(family), 6.0, 0.05, 1.0, seed=42)
z0 = sample_initial_points(2, 0.9, 8, seed=42)[5]
run = integrate_switched(family, sig, z0, clf, dt=0.01)
print(f"\none schedule, {len(sig)} segments, start {np.round(z0, 3)}:")
for t_switch, idx in zip(sig.boundaries, sig.subsystems):
    print(f"  until t = {t_switch:5.2f}: subsystem {idx + 1}")
print(f"  |z| shrank {np.abs(z0).max():.3f} -> "
      f"{np.abs(run.final_state).max():.2e}")
print(f"  V shrank {run.v_values[0]:.3e} -> {run.v_values[-1]:.2e}, "
      f"max step increase {run.max_v_increase!r}")

# tampering with one weight breaks monotonicity and the audit reports it
pair = SwitchedFamily(
    [
        PolyVectorField([{(1, 0): -1.0, (0, 1): 0.6}, {(0, 1): -1.0}]),
        PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.5}]),
    ]
)
rep2 = analyze_family(pair, 6, scheme_kind="polynomial")
k = build_basis(2, 6).index_of((0, 1))
print(f"\nlinear pair: honest weight eps[{k}] = {rep2.epsilon[k - 1]:.6f}")
rep2.epsilon[k - 1] = 1e-12
bad = audit_certificate(pair, rep2, signals=10, points=10, seed=3, dt=0.01)
print(f"after tampering: max relative V increase {bad.max_v_increase:.3e} "
      f"-> passed: {bad.passed}")
