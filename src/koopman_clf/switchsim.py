"""Switched trajectories: signal generation, integration, certificate audit.

Switching signals are piecewise-constant subsystem selections with dwell
times drawn from a seeded generator.  Integration uses fixed-step RK4,
shortening the last step of each segment so switch instants are hit
exactly.  One kernel integrates every signal from every initial point as
a single batch, always under a certificate whose V it monitors; the audit
runs it over many signals and checks that the certified function never
increases along any trajectory, and a single recorded trajectory is the
same kernel with one signal and one point.
The kernel records the trajectory of its first row, signal 0 from point
0, so the audit's summary carries its own first trajectory and no second
integration is needed to trace it.

The kernel keeps the states points-last, as one contiguous (n, R) array
``ZT`` of R = signals x points columns, and hands ``flow_step`` the
(R, n) view ``ZT.T``.  Each integration owns one ``FieldScratch`` over
the whole family for all R rows, selected anew at each switch; a set of
subsystems it has stepped before reuses its plan, in which each RK4
stage is one contraction of the active subsystems' monomials (one
stacked product in a mixed batch).  The step loop does only what must
follow every step: one ``flow_step`` of every row, each under the
subsystem its signal selects, and one copy of the new states into the
next slot of a block of C steps; it tests nothing.  The flag
coordinates, V, the escapes and the decay rates are computed per block:
one ``value_batch`` over the block's C x R rows, in one ``ValueScratch``
of that size, then one vectorised pass, which is also the one test of a
blow-up, since a state that is not finite has a V that is not.  C is as
many steps as fit in ``BLOCK_ROWS`` rows, at least one and at most the
step count; V of a point does not depend on the batch it is in, so the
blocks give the values that one evaluation per step would.  Every work
array is made before the first step, so the step loop allocates no
batch-sized array.  A signal whose steps run out before the longest
one's takes zero-length steps, which leave its rows as they are.
"""

import math
import sys
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .certificate import CommonLyapunovFunction, ValueScratch
from .multiindex import build_basis, checked_int
from .vectorfield import FieldScratch, flow_step

ESCAPE_TOL = 1e-12
V_SLACK = 1e-9  # largest relative one-step V increase the audit accepts
CONVERGENCE_TOL = 1e-3  # final max-modulus counted as converged
BLOCK_ROWS = 2048  # (step, row) pairs whose V one value_batch call evaluates
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NonFiniteStateError(RuntimeError):
    """Raised when V, or its rate, stops being finite along a trajectory."""


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
    impossible the final segment absorbs the remainder.  A horizon of more
    than 2**52 min_dwell is refused: past it a dwell can be below the
    spacing of doubles near t, and the time would stop advancing.
    ``num_subsystems`` must be an integer >= 1 and ``seed`` one >= 0, not
    bools.
    """
    num_subsystems = checked_int("num_subsystems", num_subsystems, 1)
    _require_finite(horizon=horizon, min_dwell=min_dwell, max_dwell=max_dwell)
    if min_dwell <= 0:
        raise ValueError("min_dwell must be positive")
    if max_dwell < min_dwell:
        raise ValueError("max_dwell must be >= min_dwell")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if horizon / min_dwell > 2**52:
        raise ValueError(
            f"horizon {horizon!r} is {horizon / min_dwell:.3g} times min_dwell "
            f"{min_dwell!r}, more than the 2**52 dwells a signal can time"
        )
    rng = np.random.Generator(np.random.PCG64(checked_int("seed", seed, 0)))
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


def _require_step_count(dt, horizon):
    """Refuse a ``dt`` that is not finite and positive, or that plans more
    RK4 steps over ``horizon`` than a list can index."""
    _require_finite(dt=dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = horizon / dt  # inf if it overflows
    if not steps < sys.maxsize:
        raise ValueError(
            f"dt {dt!r} plans {steps:.3g} RK4 steps over horizon {horizon!r}, "
            f"more than the {sys.maxsize} a list can index"
        )


def _step_plan(signal, dt):
    """RK4 steps of ``signal`` as arrays: h, subsystem, time at step end.
    A ``dt`` whose plan has more steps than a list can index is refused
    before anything is allocated."""
    _require_step_count(dt, math.fsum(signal.durations))
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
# uses; an overflow in its own terms makes its state, and so its V, not
# finite, and NonFiniteStateError follows once its block is stepped.
# Either way numpy's warnings would add nothing; nor would they for the
# 0 / 0 rate of a row whose plan has ended, which is replaced.
@np.errstate(over="ignore", invalid="ignore")
def _integrate(family, plans, points, clf):
    """Integrate every point under every step plan as one (S*P, n) batch.

    Row s*P + p follows plans[s] from points[p].  Every row is stepped on
    every step: a plan shorter than the longest is padded with
    zero-length steps under its last subsystem, and a zero-length RK4
    step gives back a finite state unchanged wherever its field is
    finite.  The states are stored points-last, ``Z`` being the view
    ``ZT.T``.  Each step is one ``flow_step`` of the whole batch, in
    place, over the family's scratch, which knows each row's subsystem
    from the last switch, and one copy of the new states into slot c of
    an (n, C, R) block, points-last like the states, whose transpose is
    the (C*R, n) batch of the block's states.

    Once the block's C steps are taken, or the plans end, one
    ``value_batch`` gives the flag coordinates, their moduli and V at its
    C*R rows, and one pass over them finds each row's first escaping
    step, the relative V increments and the rates, a row whose plan has
    ended, or whose previous V is exactly 0, having none.
    The initial states get theirs from the same call over R rows, and a
    non-finite V there is the error at t = 0.  The last V of a block is
    the previous V of the next block's first step, so V is evaluated once
    per state.  The first (step, row) whose V is not finite is the error,
    at the end of that step: a state that is not finite has a flag
    coordinate that is not (P^-1 is invertible), and so a V that is not.
    Next comes an increment or rate that overflows between finite values.

    Returns the final states, escape flags and times, the largest relative
    one-step V increase, the largest rate (V_next - V) / (h V) over the
    steps that have one, with where it occurs (None when none has), and
    row 0's states and V after every step, padding included.
    """
    S, P = len(plans), len(points)
    L = max(len(plan[0]) for plan in plans)
    shortest = min(len(plan[0]) for plan in plans)
    H, SUB, T = (  # each (L, S); H and T padded with zeros
        np.stack([np.pad(c, (0, L - len(c)), mode) for c in column], axis=1)
        for column, mode in zip(zip(*plans), ("constant", "edge", "constant"))
    )
    one_h = (H == H[:, :1]).all(axis=1).tolist()
    # the rows of each subsystem change only at a switch
    regroup = np.r_[True, (SUB[1:] != SUB[:-1]).any(axis=1)]
    ZT = np.ascontiguousarray(np.tile(np.asarray(points, dtype=complex).T, (1, S)))
    Z = ZT.T
    R, n = Z.shape
    C = max(1, min(BLOCK_ROWS // R, L))
    fs = FieldScratch(family, R)
    # the subsystem of every row, and per block: the states, points-last
    # like ZT, and their moduli, then the step, previous V and its
    # relative change and rate of every (step, row); row 0's states and V
    # at every step
    sub_all = np.empty(R, dtype=np.intp)
    block = np.zeros((n, C, R), dtype=complex)
    Zb = block.reshape(n, C * R).T  # (C*R, n): row c*R + i is row i at step c
    vs = ValueScratch(clf, C * R)
    mod = vs.mod.reshape(C, R, n)
    h_all, v_prev, rel, rate = np.empty((4, C, R))
    states, values = np.empty((L + 1, n), dtype=complex), np.empty(L + 1)
    states[0] = Z[0]
    vs0 = ValueScratch(clf, R)
    v_prev[0] = clf.value_batch(Z, scratch=vs0)
    if not np.isfinite(v_prev[0]).all():
        raise NonFiniteStateError("non-finite V at t=0.0")
    values[0] = v_prev[0, 0]
    escape_time = np.where(vs0.mod.max(axis=1) >= 1.0 - ESCAPE_TOL, 0.0, np.nan)
    max_rel, worst, worst_at = 0.0, -math.inf, None
    for l0 in range(0, L, C):
        m = min(C, L - l0)
        h_all.reshape(C, S, P)[:m] = H[l0:l0 + m, :, None]
        for c in range(m):
            l = l0 + c
            if regroup[l]:
                sub_all.reshape(S, P)[:] = SUB[l, :, None]
                fs.select(sub_all)
            h = float(H[l, 0]) if one_h[l] else h_all[c, :, None]
            flow_step(fs, Z, h, out=Z)
            np.copyto(block[:, c], ZT)
        states[l0 + 1:l0 + m + 1] = block[:, :m, 0].T
        v = clf.value_batch(Zb, scratch=vs).reshape(C, R)[:m]
        finite = np.isfinite(v)
        if not finite.all():  # the first (step, row) whose V is not
            c, i = divmod(int(finite.argmin()), R)
            raise NonFiniteStateError(f"non-finite V at t={float(T[l0 + c, i // P])!r}")
        if mod[:m].max() >= 1.0 - ESCAPE_TOL:
            out = mod[:m].max(axis=2) >= 1.0 - ESCAPE_TOL
            new = np.flatnonzero(out.any(axis=0) & np.isnan(escape_time))
            escape_time[new] = T[l0 + out[:, new].argmax(axis=0), new // P]
        v_prev[1:m] = v[:-1]
        no_rate = v_prev[:m] == 0.0  # V = 0 has no relative rate
        dv = np.subtract(v, v_prev[:m], out=rel[:m])
        dv /= np.maximum(v_prev[:m], 1e-300, out=v_prev[:m])
        r = np.divide(dv, h_all[:m], out=rate[:m])
        if l0 + m > shortest:  # a plan has ended: its rows have no rate
            no_rate |= h_all[:m] == 0.0
        np.putmask(r, no_rate, -np.inf)
        c, i = divmod(int(r.argmax()), R)
        top = float(dv.max())
        if not (r[c, i] < math.inf and top < math.inf):  # V is finite: no NaN here
            c, i = divmod(int(np.argmax((r == math.inf) | (dv == math.inf))), R)
            raise NonFiniteStateError(
                f"non-finite rate of V at t={float(T[l0 + c, i // P])!r}"
            )
        max_rel = max(max_rel, top)
        if r[c, i] > worst:
            s, p = divmod(i, P)
            worst, worst_at = float(r[c, i]), dict(
                signal=s, point=p, time=float(T[l0 + c, s]),
                subsystem=int(SUB[l0 + c, s]),
            )
        v_prev[0] = v[-1]
        values[l0 + 1:l0 + m + 1] = v[:, 0]
    return SimpleNamespace(
        Z=Z, escaped=~np.isnan(escape_time), escape_time=escape_time, max_rel=max_rel,
        worst_rate=worst if worst_at else None, worst_at=worst_at,
        states=states, values=values,
    )


@dataclass
class SwitchedRun:
    """One integrated trajectory with its certificate values."""

    signal: SwitchingSignal
    times: np.ndarray
    states: np.ndarray           # (samples, n)
    active: np.ndarray           # subsystem index at each sample
    v_values: np.ndarray         # V at each sample
    max_v_increase: float        # largest relative step increase of V
    escaped: bool = False
    escape_time: float = None

    @property
    def final_state(self):
        return self.states[-1]


def _first_run(signal, plan, run):
    """Row 0 of the integration ``run`` (signal 0 from point 0) as a
    ``SwitchedRun`` of ``signal``, whose step plan is ``plan``."""
    _, sub, t = plan
    k = len(t) + 1  # the samples of this plan; the rest are padding
    v = run.values[:k]
    return SwitchedRun(
        signal=signal,
        times=np.concatenate(([0.0], t)),
        states=run.states[:k],
        active=np.concatenate(([signal.subsystems[0] if len(signal) else 0], sub)),
        v_values=v,
        max_v_increase=float(
            np.max(np.diff(v) / np.maximum(v[:-1], 1e-300), initial=0.0)
        ),
        escaped=bool(run.escaped[0]),
        escape_time=float(run.escape_time[0]) if run.escaped[0] else None,
    )


def integrate_switched(family, signal, z0, clf, dt=1e-3):
    """Integrate the switched system along ``signal`` from ``z0``.

    Samples at every RK4 step and at every switch instant (hit exactly by
    shortening the last step of each segment).  The certificate evaluator
    ``clf`` gives V along the run, whose largest relative one-step increase
    is reported.  Leaving the unit polydisk in the certificate's flag
    coordinates sets ``escaped`` instead of raising.
    """
    z = np.asarray(z0, dtype=complex).reshape(1, -1)
    if z.shape[1] != family.dimension:
        raise ValueError("initial point dimension mismatch")
    plan = _step_plan(signal, dt)
    return _first_run(signal, plan, _integrate(family, [plan], z, clf))


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
        row.append(repr(float(run.v_values[s])))
        row.append(str(int(run.active[s])))
        fh.write(",".join(row) + "\n")


def halton(index, base):
    """Radical-inverse (van der Corput) values of an array of indices in
    ``base``; every index runs through the same digit steps as the scalar
    recursion, so the values do not depend on the batch."""
    i = np.array(index, dtype=np.int64)
    result, f = np.zeros(i.shape), 1.0
    while np.any(i > 0):
        f /= base
        result += f * (i % base)
        i //= base
    return result


def sample_initial_points(dimension, radius, count, seed):
    """Deterministic points in the closed polydisk of the given radius.

    The first half lies on the real section (Halton fill of the cube);
    the rest get Halton moduli with phases from the seeded generator, so
    both purely real and genuinely complex states are exercised.
    ``count`` must be an integer >= 1 and ``seed`` one >= 0, not bools.
    """
    count = checked_int("count", count, 1)
    rng = np.random.Generator(np.random.PCG64(checked_int("seed", seed, 0)))
    pts = np.zeros((count, dimension), dtype=complex)
    n_real = (count + 1) // 2
    index = np.arange(1, n_real + 1)
    h = np.array(
        [halton(index, _PRIMES[c % len(_PRIMES)]) for c in range(dimension)]
    ).T
    pts[:n_real] = radius * (2.0 * h - 1.0)
    # the phases are drawn point by point, coordinate by coordinate
    phases = rng.random((count - n_real, dimension))
    pts[n_real:] = radius * np.sqrt(h[:count - n_real]) * np.exp(2j * np.pi * phases)
    return pts


@dataclass(frozen=True)
class AuditSummary:
    """Aggregate outcome of a simulation audit of one certificate.

    ``worst_decay_rate`` is the largest (V_next - V) / (h V) over all
    steps, so a negative value is the margin by which V decreased even at
    its slowest; ``worst_decay_at`` gives the signal index, point index,
    time at the end of that step and its subsystem.  A step from V = 0,
    as from the origin, has no rate; both are None when no step has one,
    as when the audit took no step.  ``run`` is the audit's own first
    trajectory, signal 0 from point 0; it is not part of the summary's
    JSON, nor of its equality.
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
    run: SwitchedRun = field(default=None, compare=False, repr=False)

    def to_json_dict(self):
        data = asdict(replace(self, run=None))
        del data["run"]
        return {"kind": "audit_summary", **data}


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
    V, or its rate, stops being finite, and ValueError when ``signals``,
    ``points`` or ``seed`` is not an integer (bools refused) of at least 1,
    1 and 0, when the report is not certified, one of its weights is not
    finite and positive, or its dimension or subsystem count is not the
    family's.
    The report's P and P_inv map between flag and original coordinates
    (``load_report`` supplies the identity when a stored report has
    none).
    """
    signals = checked_int("signals", signals, 1)
    points = checked_int("points", points, 1)
    seed = checked_int("seed", seed, 0)
    if report.epsilon is None or report.rho_certified is None or report.P is None:
        raise ValueError("report does not contain a usable certificate")
    if report.certified is not True:
        raise ValueError("report field 'certified' is not true")
    for key, theirs in (("dimension", family.dimension),
                        ("num_subsystems", len(family))):
        ours = getattr(report, key)
        if ours != theirs:
            raise ValueError(
                f"report field '{key}' is {ours!r}, the family's is {theirs}"
            )
    n = report.dimension
    basis = build_basis(n, report.truncation_degree)
    clf = CommonLyapunovFunction(report.epsilon, report.P_inv, basis)
    bad = ~(np.isfinite(clf.epsilon) & (clf.epsilon > 0))
    if bad.any():  # analysis certifies no other weights
        i = int(np.argmax(bad))
        raise ValueError(f"report field 'epsilon[{i}]' is not finite and "
                         f"positive: {float(clf.epsilon[i])!r}")
    rho = float(report.rho_certified)
    radius = 0.95 * rho
    _require_finite(horizon=horizon)
    _require_step_count(dt, horizon)  # before any signal is drawn
    pts = sample_initial_points(n, radius, points, seed)
    schedules = [
        random_signal(len(family), horizon, min_dwell, max_dwell, seed=seed + 7919 * s)
        for s in range(signals)
    ]
    plans = [_step_plan(signal, dt) for signal in schedules]
    # flag samples back to original coordinates
    run = _integrate(family, plans, pts @ report.P.T, clf)
    escapes = int(run.escaped.sum())
    final_norms = np.abs(run.Z).max(axis=1)
    return AuditSummary(
        signals=signals,
        points=points,
        dt=float(dt),
        horizon=float(horizon),
        seed=seed,
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
        run=_first_run(schedules[0], plans[0], run),
    )
