"""Switched trajectories: signal generation, integration, certificate audit.

Switching signals are piecewise-constant subsystem selections with dwell
times drawn from a seeded generator.  Integration uses fixed-step RK4,
shortening the last step of each segment so switch instants are hit
exactly.  One kernel integrates every signal from every initial point as
a single batch; the audit runs it over many signals and checks that the
certified function never increases along any trajectory, and a single
recorded trajectory is the same kernel with one signal and one point.

The kernel keeps the states points-last, as one contiguous (n, R) array
``ZT`` of R = signals x points columns, and hands ``flow_step`` and the
certificate the (R, n) view ``ZT.T``.  Each integration owns one
``FieldScratch`` over the whole family and one ``ValueScratch`` for V:
a step is one ``flow_step`` of every live row, each under the subsystem
its signal selects, and the flag coordinates, their moduli and V reuse
the same arrays every step, so the step loop allocates no batch-sized
array.
"""

import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from .certificate import CommonLyapunovFunction, ValueScratch
from .multiindex import build_basis
from .vectorfield import (
    FieldScratch,
    NonFiniteStateError,
    flow_step,
    halton,
    _PRIMES,
)

ESCAPE_TOL = 1e-12
V_SLACK = 1e-9  # largest relative one-step V increase the audit accepts
CONVERGENCE_TOL = 1e-3  # final max-modulus counted as converged


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant subsystem schedule on [0, horizon]."""

    durations: tuple
    subsystems: tuple
    horizon: float

    def __post_init__(self):
        if len(self.durations) != len(self.subsystems):
            raise ValueError("durations and subsystems must align")
        if any(d <= 0 for d in self.durations):
            raise ValueError("durations must be positive")

    @property
    def boundaries(self):
        """Segment end times; the final one equals the horizon exactly."""
        b = np.cumsum(np.array(self.durations, dtype=float))
        if len(b):
            b[-1] = self.horizon
        return b

    def __len__(self):
        return len(self.durations)


def random_signal(num_subsystems, horizon, min_dwell=0.05, max_dwell=1.0, seed=0):
    """Seeded random schedule with dwell times in [min_dwell, max_dwell].

    Dwell draws are capped so the remaining horizon always admits a final
    segment of at least min_dwell; when the bounds make an exact split
    impossible the final segment absorbs the remainder.
    """
    if num_subsystems < 1:
        raise ValueError("need at least one subsystem")
    _require_finite(horizon=horizon, min_dwell=min_dwell, max_dwell=max_dwell)
    if min_dwell <= 0:
        raise ValueError("min_dwell must be positive")
    if max_dwell < min_dwell:
        raise ValueError("max_dwell must be >= min_dwell")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    rng = np.random.Generator(np.random.PCG64(seed))
    if horizon == 0:
        return SwitchingSignal((), (), 0.0)
    durs, subs = [], []
    t = 0.0
    while True:
        remaining = horizon - t
        idx = int(rng.integers(num_subsystems))
        upper = min(max_dwell, remaining - min_dwell)
        if remaining <= max_dwell + 1e-12 or upper < min_dwell:
            durs.append(remaining)
            subs.append(idx)
            break
        d = float(rng.uniform(min_dwell, upper))
        durs.append(d)
        subs.append(idx)
        t += d
    return SwitchingSignal(tuple(durs), tuple(subs), float(horizon))


def _segment_steps(duration, dt):
    n_full = int(math.floor(duration / dt + 1e-12))
    rem = duration - n_full * dt
    if rem < 1e-12 * max(1.0, dt):
        rem = 0.0
    return n_full, rem


def _step_plan(signal, dt):
    """RK4 steps of ``signal`` as arrays: h, subsystem, time at step end."""
    _require_finite(dt=dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    plan, t_start = [(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))], 0.0
    for dur, sub, end in zip(signal.durations, signal.subsystems, signal.boundaries):
        n_full, rem = _segment_steps(dur, dt)
        h = np.array([dt] * n_full + ([rem] if rem else []))
        t = t_start + np.arange(1, len(h) + 1) * dt
        t[-1:] = end  # the last step lands on the switch
        plan.append((h, np.full(len(h), sub), t))
        t_start = float(end)
    return tuple(np.concatenate(column) for column in zip(*plan))


# A mixed step evaluates every active subsystem's terms on every row and
# keeps each row's own values, so a row may overflow in terms it never
# uses; an overflow in its own terms ends in NonFiniteStateError.  Either
# way numpy's warnings would add nothing.
@np.errstate(over="ignore", invalid="ignore")
def _integrate(family, plans, points, clf=None, record=False):
    """Integrate every point under every step plan as one (S*P, n) batch.

    Row s*P + p follows plans[s] from points[p] while that plan has steps
    left.  The states are stored points-last, ``Z`` being the view
    ``ZT.T``.  Each step is one ``flow_step`` over the family's scratch,
    which knows each row's subsystem from the last regroup: in place on
    every row while all plans run, and on the live rows, taken into the
    scratch and scattered back, once some have ended.  Flag coordinates,
    their moduli and V then fill the certificate's scratch, and the
    escape test reads the same moduli.
    Returns the final states, escape flags and times, the largest relative
    one-step V increase, the largest rate (V_next - V) / (h V) with where
    it occurs, and with ``record`` the states and V after every step.
    """
    S, P = len(plans), len(points)
    counts = np.array([len(plan[0]) for plan in plans])
    L, all_live = int(counts.max()), int(counts.min())
    H, SUB, T = (  # each (L, S), padded with zeros
        np.stack([np.pad(c, (0, L - len(c))) for c in column], axis=1)
        for column in zip(*plans)
    )
    one_h = (H == H[:, :1]).all(axis=1).tolist()
    # the rows of each subsystem change only at a switch or where a plan ends
    regroup = np.r_[True, (SUB[1:] != SUB[:-1]).any(axis=1)]
    regroup[counts[counts < L]] = True
    ZT = np.tile(np.asarray(points, dtype=complex).T, (1, S))
    Z = ZT.T
    R = len(Z)
    fs = FieldScratch(family, R)
    # per-row buffers: subsystem and step of every row, then the live
    # rows' indices, subsystems and steps, and two for the V increments
    signal_rows = np.arange(R).reshape(S, P)
    live = signal_rows.ravel()
    sub_all, sub_live, live_buf = np.empty((3, R), dtype=np.intp)
    h_all, h_live, dv, rate_buf, v_prev = np.empty((5, R))
    if clf is None:
        mod = np.empty(Z.shape)
        np.abs(Z, out=mod)
    else:
        vs = ValueScratch(clf, R)
        v = clf.value_batch(clf.hat(Z, out=vs.zh), hat=True, scratch=vs)
        mod = vs.mod
    escape_time = np.where(mod.max(axis=1) >= 1.0 - ESCAPE_TOL, 0.0, np.nan)
    max_rel, worst, worst_at = 0.0, None, None
    states, values = [Z.copy()], [None if clf is None else v.copy()]
    for l in range(L):
        tail = l >= all_live
        if regroup[l]:
            sub_all.reshape(S, P)[:] = SUB[l, :, None]
            if tail:
                alive = np.flatnonzero(counts > l)
                m = len(alive) * P
                live = live_buf[:m]
                signal_rows.take(alive, 0, live.reshape(-1, P), "wrap")
                fs.select(sub_all.take(live, 0, sub_live[:m], "wrap"))
            else:
                fs.select(sub_all)
        if one_h[l]:
            h = float(H[l, 0])
        else:
            h_all.reshape(S, P)[:] = H[l, :, None]
            h = h_all.take(live, 0, h_live[:m], "wrap") if tail else h_all
        if tail:
            zg = ZT.take(live, 1, fs.z, "wrap")
            flow_step(family, zg.T, h[:, None], fs, out=zg.T)
            ZT[:, live] = zg
        else:
            flow_step(family, Z, h if one_h[l] else h[:, None], fs, out=Z)
        if clf is None:
            np.abs(Z, out=mod)
        else:
            np.copyto(v_prev, v)
            v = clf.value_batch(clf.hat(Z, out=vs.zh), hat=True, scratch=vs)
        rows = live if tail else slice(None)
        if mod.max() >= 1.0 - ESCAPE_TOL:
            out = mod[rows].max(axis=1) >= 1.0 - ESCAPE_TOL
            new = live[out & np.isnan(escape_time[rows])]
            escape_time[new] = T[l, new // P]
        if clf is not None:
            now, before = v, v_prev
            if tail:
                now = v.take(live, 0, dv[:m], "wrap")
                before = v_prev.take(live, 0, rate_buf[:m], "wrap")
            rel = np.subtract(now, before, out=dv[:len(now)])
            den = np.maximum(before, 1e-300, out=rate_buf[:len(now)])
            rel = np.divide(rel, den, out=rel)
            rate = np.divide(rel, h, out=den)
            i = int(rate.argmax())  # argmax stops at the first NaN
            s, p = divmod(int(live[i]), P)
            if not math.isfinite(rate[i]):
                raise NonFiniteStateError(f"non-finite V at t={float(T[l, s])!r}")
            max_rel = max(max_rel, float(rel.max()))
            if worst is None or rate[i] > worst:
                worst, worst_at = float(rate[i]), dict(
                    signal=s, point=p, time=float(T[l, s]), subsystem=int(SUB[l, s])
                )
        if record:
            states.append(Z.copy())
            values.append(None if clf is None else v.copy())
    return SimpleNamespace(
        Z=Z, escaped=~np.isnan(escape_time), escape_time=escape_time, max_rel=max_rel,
        worst_rate=worst, worst_at=worst_at,
        states=np.array(states) if record else None,
        values=np.array(values) if record and clf is not None else None,
    )


@dataclass
class SwitchedRun:
    """One integrated trajectory with optional certificate values."""

    signal: SwitchingSignal
    times: np.ndarray
    states: np.ndarray           # (samples, n)
    active: np.ndarray           # subsystem index at each sample
    v_values: np.ndarray = None
    max_v_increase: float = None  # largest relative step increase of V
    escaped: bool = False
    escape_time: float = None

    @property
    def final_state(self):
        return self.states[-1]


def integrate_switched(family, signal, z0, dt=1e-3, clf=None):
    """Integrate the switched system along ``signal`` from ``z0``.

    Samples at every RK4 step and at every switch instant (hit exactly by
    shortening the last step of each segment).  When a certificate
    evaluator is passed, V is recorded along the run and its largest
    relative one-step increase reported.  Leaving the unit polydisk (in
    flag coordinates when the certificate provides them) sets ``escaped``
    instead of raising.
    """
    z = np.asarray(z0, dtype=complex).reshape(1, -1)
    if z.shape[1] != family.dimension:
        raise ValueError("initial point dimension mismatch")
    _, sub, t = plan = _step_plan(signal, dt)
    run = _integrate(family, [plan], z, clf, record=True)
    return SwitchedRun(
        signal=signal,
        times=np.concatenate(([0.0], t)),
        states=run.states[:, 0],
        active=np.concatenate(([signal.subsystems[0] if len(signal) else 0], sub)),
        v_values=None if clf is None else run.values[:, 0],
        max_v_increase=None if clf is None else run.max_rel,
        escaped=bool(run.escaped[0]),
        escape_time=float(run.escape_time[0]) if run.escaped[0] else None,
    )


def export_run_csv(run, fh):
    """Trace as CSV: t, Re/Im of each coordinate, V, active subsystem."""
    n = run.states.shape[1]
    cols = ["t"]
    for c in range(n):
        cols += [f"re_z{c + 1}", f"im_z{c + 1}"]
    cols += ["V", "active_subsystem"]
    fh.write(",".join(cols) + "\n")
    for s in range(len(run.times)):
        row = [repr(float(run.times[s]))]
        for c in range(n):
            row += [
                repr(float(run.states[s, c].real)),
                repr(float(run.states[s, c].imag)),
            ]
        row.append("" if run.v_values is None else repr(float(run.v_values[s])))
        row.append(str(int(run.active[s])))
        fh.write(",".join(row) + "\n")


def sample_initial_points(dimension, radius, count, seed):
    """Deterministic points in the closed polydisk of the given radius.

    The first half lies on the real section (Halton fill of the cube);
    the rest get Halton moduli with phases from the seeded generator, so
    both purely real and genuinely complex states are exercised.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = np.zeros((count, dimension), dtype=complex)
    n_real = (count + 1) // 2
    index = np.arange(1, n_real + 1)
    h = [halton(index, _PRIMES[c % len(_PRIMES)]) for c in range(dimension)]
    for c in range(dimension):
        pts[:n_real, c] = radius * (2.0 * h[c] - 1.0)
    for p in range(n_real, count):
        for c in range(dimension):
            pts[p, c] = radius * math.sqrt(h[c][p - n_real]) * np.exp(
                2j * np.pi * rng.random()
            )
    return pts


@dataclass(frozen=True)
class AuditSummary:
    """Aggregate outcome of a simulation audit of one certificate.

    ``worst_decay_rate`` is the largest (V_next - V) / (h V) over all
    steps, so a negative value is the margin by which V decreased even at
    its slowest; ``worst_decay_at`` gives the signal index, point index,
    time at the end of that step and its subsystem.  Both are None when
    the audit took no step.
    """

    signals: int
    points: int
    dt: float
    horizon: float
    seed: int
    rho: float
    sample_radius: float
    max_v_increase: float
    worst_decay_rate: float
    worst_decay_at: dict
    final_norm_max: float
    fraction_converged: float
    escapes: int
    slack: float
    convergence_tol: float
    passed: bool

    def to_json_dict(self):
        return {"kind": "audit_summary", **asdict(self)}


def audit_certificate(
    family,
    report,
    signals=100,
    points=50,
    seed=0,
    dt=1e-3,
    horizon=20.0,
    min_dwell=0.05,
    max_dwell=1.0,
):
    """Simulation audit of a certificate over seeded switching signals.

    Integrates ``signals`` random schedules from ``points`` deterministic
    initial states inside the polydisk of radius 0.95 * rho (flag
    coordinates), monitoring the certified function at every step.  The
    audit passes when V never increases beyond ``V_SLACK`` (relative) and
    no trajectory leaves the unit polydisk.  Raises NonFiniteStateError when
    a state or a value of V stops being finite, and ValueError when the
    report is not certified or its dimension or subsystem count is not the
    family's.  The report's P and P_inv map between flag and original
    coordinates (``load_report`` supplies the identity when a stored
    report has none).
    """
    if signals < 1 or points < 1:
        raise ValueError("signals and points must be >= 1")
    if report.epsilon is None or report.rho_certified is None or report.P is None:
        raise ValueError("report does not contain a usable certificate")
    if report.certified is not True:
        raise ValueError("report field 'certified' is not true")
    for field, theirs in (("dimension", family.dimension),
                          ("num_subsystems", len(family))):
        ours = getattr(report, field)
        if ours != theirs:
            raise ValueError(
                f"report field '{field}' is {ours!r}, the family's is {theirs}"
            )
    n = report.dimension
    basis = build_basis(n, report.truncation_degree)
    clf = CommonLyapunovFunction(report.epsilon, report.P_inv, basis)
    rho = float(report.rho_certified)
    radius = 0.95 * rho
    pts = sample_initial_points(n, radius, points, seed)
    plans = [
        _step_plan(
            random_signal(
                len(family), horizon, min_dwell, max_dwell, seed=seed + 7919 * s
            ),
            dt,
        )
        for s in range(signals)
    ]
    # flag samples back to original coordinates
    run = _integrate(family, plans, pts @ report.P.T, clf)
    escapes = int(run.escaped.sum())
    final_norms = np.abs(run.Z).max(axis=1)
    return AuditSummary(
        signals=int(signals),
        points=int(points),
        dt=float(dt),
        horizon=float(horizon),
        seed=int(seed),
        rho=rho,
        sample_radius=float(radius),
        max_v_increase=float(run.max_rel),
        worst_decay_rate=run.worst_rate,
        worst_decay_at=run.worst_at,
        final_norm_max=float(final_norms.max()),
        fraction_converged=float(np.mean(final_norms < CONVERGENCE_TOL)),
        escapes=escapes,
        slack=V_SLACK,
        convergence_tol=CONVERGENCE_TOL,
        passed=bool(run.max_rel <= V_SLACK and escapes == 0),
    )
