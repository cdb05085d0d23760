"""Benchmark of the certificate pipeline and the switching audit.

Run from the repository root:

    python3 benchmarks/run.py --workload analyze-dd --seed 2026 --seconds 30 --trace 0

Workloads (see benchmarks/README.md for why each exists):

    analyze-poly  example1 (a=1, b=0.3), polynomial scheme, N = 12 / 30 / 60
    analyze-dd    example2 (mu=3), diagonal-dominance scheme, N = 12 / 16 / 20
    audit         criterion-8 audit of the example1 certificate at N = 12:
                  1 / 2 / 3 signals x 50 points, dt 0.01, horizon 20

One operation is ``analyze_family`` followed by ``report.to_json()`` (what
``koopman-clf analyze`` does after reading its config), or one
``audit_certificate`` call.  Load is a closed loop: one caller, one call at
a time.  Every operation passes a correctness gate or counts as failed.
On a shared host the same call runs up to 1.8 times slower for seconds
to minutes at a time (CPU time equal to wall time: the core is slower, the
process is not descheduled), and whole runs drift by 30%.  So a time is
the mean of the run's calls rescaled to a reference host speed: a fixed
probe that does not touch the library runs between the calls, and every
time is multiplied by PROBE_REF_S / (mean probe time of the run); each
set-up repeat by PROBE_REF_S / (mean of the probes just before and after
it).  The raw times and the probe times are kept in the detail line.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced replay, which
also checks that tracing leaves every output byte-identical.  Earlier
lines give a readable table and one JSON line with the provenance.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 2026
HELD_OUT_SEED = 7
SETUP_REPEATS = 7
MIN_SAMPLES = 3
PROBE_EVERY = 0.25  # seconds of calls between two host probes
PROBE_REF_S = 0.005  # host_probe() time at the reference host speed
SIZES = ("small", "mid", "large")

# Truncation degrees (analyze) or signal counts x points (audit) per size.
# "tiny" exists for the smoke test only.
SCALES = {
    "analyze-poly": {"full": (12, 30, 60), "tiny": (4, 5, 6)},
    "analyze-dd": {"full": (12, 16, 20), "tiny": (12, 13, 14)},
    "audit": {"full": ((1, 50), (2, 50), (3, 50)), "tiny": ((1, 4), (1, 4), (2, 4))},
    "audit-tampered": {"full": ((1, 10), (2, 10), (4, 10)),
                       "tiny": ((1, 4), (1, 4), (1, 4))},
}
WORKLOADS = ("analyze-poly", "analyze-dd", "audit")
CONTROLS = ("audit-tampered",)

# xi-free polynomial-scheme sup of example1 (a=1, b=0.3) per truncation
# degree, as computed at commit a042cdc.
POLY_Q_SUP = {4: 0.6075, 5: 0.648, 6: 0.675, 12: 0.7425, 30: 0.783, 60: 0.7965}
# Criterion 3: example2 at mu=3 certifies rho in [0.95 c, c + 1e-6].
MU = 3.0
DD_RHO_CLOSED_FORM = 1.0 / (1.0 + (math.cosh(2.0) + 1.0) / (2.0 * MU))
AUDIT_DT = 0.01
AUDIT_HORIZON = 20.0
AUDIT_DWELL = (0.05, 1.0)
AUDIT_CERT_DEGREE = 12
V_SLACK = 1e-9

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetupError(RuntimeError):
    """The library could not be imported from this checkout."""


def import_library():
    """Fresh import of koopman_clf from ``src/`` of this checkout.

    Drops any earlier import first, so each set-up repeat pays the import.
    Refuses a copy installed elsewhere.
    """
    for name in [m for m in sys.modules if m.split(".")[0] == "koopman_clf"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        lib = importlib.import_module("koopman_clf")
    except ImportError as exc:
        raise SetupError(f"cannot import koopman_clf from {SRC}: {exc}") from None
    if Path(lib.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"koopman_clf was found at {lib.__file__}, not under {SRC}")
    return lib


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_report(workload, degree, data):
    """Problems of one analyze report (already parsed as strict JSON)."""
    problems = []
    if data["certified"] is not True:
        problems.append(f"not certified: {data['failure']}")
        return problems
    rho = data["rho_certified"]
    if workload == "analyze-poly":
        if rho != 1.0:
            problems.append(f"rho_certified={rho!r}, wanted 1.0")
        want = POLY_Q_SUP.get(degree)
        got = data["poly_condition"]["q_sup"]
        if want is None or abs(got - want) > 1e-10:
            problems.append(f"q_sup={got!r} at N={degree}, wanted {want!r}")
    else:
        lo, hi = 0.95 * DD_RHO_CLOSED_FORM, DD_RHO_CLOSED_FORM + 1e-6
        if not (_finite(rho) and lo <= rho <= hi):
            problems.append(f"rho_certified={rho!r} outside [{lo}, {hi}]")
    eps = data["epsilon"] or []
    if not eps or not all(_finite(e) and e > 0 for e in eps):
        problems.append("weights are missing, non-finite or not positive")
    conv = data["convergence"] or {}
    for key in ("partial_sum", "tail_bound", "ratio"):
        if not _finite(conv.get(key)):
            problems.append(f"convergence {key}={conv.get(key)!r} is not finite")
    return problems


def check_audit(data):
    problems = []
    if data["passed"] is not True:
        problems.append("audit did not pass")
    if data["escapes"] != 0:
        problems.append(f"{data['escapes']} trajectories escaped")
    if data["fraction_converged"] != 1.0:
        problems.append(f"fraction_converged={data['fraction_converged']!r}")
    if not data["max_v_increase"] <= V_SLACK:
        problems.append(f"max_v_increase={data['max_v_increase']!r}")
    return problems


def _segment_steps(duration, dt):
    """RK4 steps the audit takes on one segment (full steps plus a remainder)."""
    n_full = int(math.floor(duration / dt + 1e-12))
    rem = duration - n_full * dt
    return n_full + (1 if rem >= 1e-12 * max(1.0, dt) else 0)


class Workload:
    """Inputs of one workload: one operation per size, with its gate.

    ``ops[i]()`` runs the timed operation and returns its raw result;
    ``render(i, result)`` turns it into the bytes that must repeat;
    ``check(i, text)`` gives the gate's problems; ``units[i]`` is the
    work of one operation (basis monomials, or points x RK4 steps).
    """

    def __init__(self, lib, name, scale, seed):
        self.name = name
        params = SCALES[name][scale]
        self.params = params
        if name.startswith("analyze"):
            self._analyze(lib, name, params)
        else:
            self._audit(lib, name, params, seed)

    def _analyze(self, lib, name, degrees):
        if name == "analyze-poly":
            cfg = lib.example1_config(a=1.0, b=0.3)
        else:
            cfg = lib.example2_config(mu=MU)
        family = cfg.build_family()
        n = cfg.dimension

        def make(degree):
            def op():
                report = lib.analyze_family(
                    family,
                    degree,
                    scheme_kind=cfg.scheme_kind,
                    xi=cfg.xi,
                    kappa=cfg.kappa,
                    eta=cfg.eta,
                    rho_request=cfg.rho_request,
                )
                return report.to_json()

            return op

        self.ops = [make(d) for d in degrees]
        self.units = [math.comb(d + n, n) - 1 for d in degrees]
        self.render = lambda i, text: text
        self.check = lambda i, text: check_report(name, degrees[i], strict_json(text))

    def _audit(self, lib, name, params, seed):
        if name == "audit":
            cfg = lib.example1_config(a=1.0, b=0.3)
            family = cfg.build_family()
            report = lib.analyze_family(family, AUDIT_CERT_DEGREE)
            if not report.certified:
                raise SetupError("the example1 certificate did not certify")
        else:
            # criterion 8's negative control: one weight tampered
            family = lib.SwitchedFamily(
                [
                    lib.PolyVectorField([{(1, 0): -1.0, (0, 1): 0.6}, {(0, 1): -1.0}]),
                    lib.PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.5}]),
                ]
            )
            report = lib.analyze_family(family, 6)
            basis = lib.build_basis(2, 6)
            report.epsilon[basis.index_of((0, 1)) - 1] = 1e-12
        rng = random.Random(seed)
        self.audit_seeds = [rng.randrange(2**31) for _ in params]
        min_dwell, max_dwell = AUDIT_DWELL

        def make(signals, points, audit_seed):
            def op():
                return lib.audit_certificate(
                    family,
                    report,
                    signals=signals,
                    points=points,
                    seed=audit_seed,
                    dt=AUDIT_DT,
                    horizon=AUDIT_HORIZON,
                    min_dwell=min_dwell,
                    max_dwell=max_dwell,
                )

            return op

        def steps(signals, audit_seed):
            # the audit draws signal s from seed + 7919 s
            total = 0
            for s in range(signals):
                sig = lib.random_signal(
                    len(family), AUDIT_HORIZON, min_dwell, max_dwell,
                    seed=audit_seed + 7919 * s,
                )
                total += sum(_segment_steps(d, AUDIT_DT) for d in sig.durations)
            return total

        self.ops = [make(s, p, a) for (s, p), a in zip(params, self.audit_seeds)]
        self.units = [p * steps(s, a) for (s, p), a in zip(params, self.audit_seeds)]
        self.render = lambda i, summary: (
            json.dumps(summary.to_json_dict(), sort_keys=True, indent=2) + "\n"
        )
        self.check = lambda i, text: check_audit(strict_json(text))


class Gate:
    """Counts attempted and failed operations; remembers the first output
    of each size so later ones must repeat it byte for byte."""

    def __init__(self, workload):
        self.workload = workload
        self.first = [None] * len(workload.ops)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, i, call):
        """Time one operation; returns its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call(self.workload.ops[i])
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(i, "raised:\n" + traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            text = self.workload.render(i, result)
            problems = self.workload.check(i, text)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
            text = None
        if text is not None:
            if self.first[i] is None:
                self.first[i] = text
            elif text != self.first[i]:
                problems.append("output differs from the first one of this size")
        if problems:
            self._fail(i, "; ".join(problems))
        return elapsed

    def _fail(self, i, message):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{self.workload.name} {SIZES[i]}: {message}")

    def digests(self):
        return [
            None if t is None else hashlib.sha256(t.encode()).hexdigest()
            for t in self.first
        ]


def direct(op):
    return op()


def set_up(name, scale, seed, trace):
    """Import, inputs, certificate and a warm-up operation, repeated.

    Each repeat is rescaled by the mean of the host probes run just before
    and just after it.  Returns (library, workload, median rescaled set-up
    seconds, raw seconds of each repeat, build_family seconds per repeat or
    None).
    """
    times, raw = [], []
    tr = tracing.Tracer() if trace else None
    before = host_probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = import_library()
        if tr is not None:
            tr.install(lib, tracing.SETUP_SPANS)
        try:
            workload = Workload(lib, name, scale, seed)
        finally:
            if tr is not None:
                tr.uninstall()
        workload.ops[0]()
        elapsed = time.perf_counter() - start
        after = host_probe()
        raw.append(elapsed)
        times.append(elapsed * 2.0 * PROBE_REF_S / (before + after))
        before = after
    build_family_s = None
    if tr is not None:
        _, total, _ = tr.totals().get("config.build_family", (0, 0.0, 0.0))
        build_family_s = total / SETUP_REPEATS
    return lib, workload, statistics.median(times), raw, build_family_s


def host_probe():
    """Seconds taken by a fixed piece of work that does not touch the library.

    It mixes the kinds of work the library spends its time on: dict and
    tuple arithmetic in Python (matrix assembly), Python loops over numpy
    scalars and tiny arrays (the scheme scans), and numpy arithmetic on a
    (50, 2) complex batch (the audit).
    """
    cols = np.arange(1, 361, dtype=np.int64)
    vals = np.linspace(0.5, 1.5, 360) * (1 - 0.5j)
    exps = np.arange(720, dtype=np.int64).reshape(360, 2)
    z = np.linspace(0.1, 0.2, 100).reshape(50, 2) * (1 + 1j)
    m = np.array([[1.0, 0.2], [0.0, 1.0]], dtype=complex)
    start = time.perf_counter()
    acc = {}
    for i in range(1800):
        key = (i % 17, i % 13)
        acc[key] = acc.get(key, 0j) + complex(i, 1) * 0.5
    best = 0.0
    for c, v in zip(cols, vals):
        j = int(c)
        d = int(exps[j - 1].sum())
        best = max(best, abs(complex(v)) / (1 + d))
    for _ in range(120):
        z = z + 0.01 * ((z * z - z) @ m)
        best = max(best, float(np.max(np.abs(z))))
    acc[None] = best
    return time.perf_counter() - start


def measure(gate, seconds):
    """Closed loop: each size gets seconds/len(sizes) of calls, and at
    least MIN_SAMPLES calls; the host probe runs after every PROBE_EVERY
    seconds of calls.

    The next call goes to the due size with the least time spent, so every
    size's calls, and the probes, spread over the whole run and drift in
    the host's speed hits all of them alike.  Returns (samples, probes).
    """
    count = len(gate.workload.ops)
    budget = seconds / count
    spent = [0.0] * count
    samples = [[] for _ in range(count)]
    probes = [host_probe()]
    since_probe = 0.0
    while True:
        due = [i for i in range(count)
               if spent[i] < budget or len(samples[i]) < MIN_SAMPLES]
        if not due:
            return samples, probes
        i = min(due, key=spent.__getitem__)
        dt = gate.run(i, direct)
        spent[i] += dt
        samples[i].append(dt)
        since_probe += dt
        if since_probe >= PROBE_EVERY:
            probes.append(host_probe())
            since_probe = 0.0


def one_round(gate, call):
    """One operation per size, in order; returns their summed wall time."""
    return sum(gate.run(i, call) for i in range(len(gate.workload.ops)))


def sample_summary(values):
    """Raw mean, fastest, median, and the highest of p90/p99 with ten
    samples beyond it."""
    out = {"n": len(values), "mean": statistics.mean(values), "min": min(values),
           "median": statistics.median(values)}
    for p in (90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
    return out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, threads_env):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "KOOPMAN_CLF_THREADS": threads_env,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def end_to_end(gate, samples, probes, setup_s, setup_raw):
    work = gate.workload
    speed = PROBE_REF_S / statistics.mean(probes)
    times = [statistics.mean(s) * speed for s in samples]
    metrics = {"setup_s": (setup_s, "s")}
    for size, t in zip(SIZES, times):
        metrics[f"op_s.{size}"] = (t, "s")
    metrics["work_per_s"] = (sum(work.units) / sum(times), "1/s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "MB",
    )
    detail = {
        "samples": {
            f"op_s.{size}": sample_summary(s) for size, s in zip(SIZES, samples)
        },
        "times_us": {size: [round(t * 1e6) for t in s] for size, s in zip(SIZES, samples)},
        "probe_us": [round(t * 1e6) for t in probes],
        "host_speed": speed,
        "setup_raw_s": setup_raw,
        "setup_repeats": SETUP_REPEATS,
        "units_per_op": work.units,
    }
    return metrics, detail


def traced(lib, gate, seconds, build_family_s, span_file, meta):
    """Untraced and traced rounds of the same operations, alternating.

    Alternating lets drift in the host's speed hit both kinds alike.  All
    rounds go through one gate, so every traced output must equal the
    untraced one byte for byte.
    """
    tr = tracing.Tracer()

    def call(op):
        try:
            return tr.op(op)
        finally:
            tr.flush_counts()

    plain, walls = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        plain.append(one_round(gate, direct))
        tr.install(lib)
        try:
            walls.append(one_round(gate, call))
        finally:
            tr.uninstall()
    metrics = tracing.layer_metrics(tr, len(walls))
    metrics["config.build_family_s"] = (build_family_s, "s")
    metrics["trace.overhead_frac"] = (
        statistics.mean(walls) / statistics.mean(plain) - 1.0,
        "ratio",
    )
    detail = {"untraced_rounds": len(plain), "traced_rounds": len(walls),
              "spans": len(tr.spans)}
    span_file.parent.mkdir(parents=True, exist_ok=True)
    tr.dump(span_file, meta)
    detail["span_file"] = str(span_file.relative_to(ROOT))
    return metrics, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + CONTROLS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measured time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the smoke test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # the audit's default sequential path is the measured one
    threads_env = os.environ.pop("KOOPMAN_CLF_THREADS", None)
    try:
        lib, work, setup_s, setup_raw, build_family_s = set_up(
            args.workload, args.scale, args.seed, args.trace
        )
    except SetupError as exc:
        sys.stderr.write(f"benchmark set-up failed: {exc}\n")
        return 2
    gate = Gate(work)
    meta = provenance(args, threads_env)
    if args.trace:
        out = ROOT / "benchmarks" / "out" / f"trace-{args.workload}-{args.seed}.json.gz"
        metrics, detail = traced(lib, gate, args.seconds, build_family_s, out, meta)
    else:
        samples, probes = measure(gate, args.seconds)
        metrics, detail = end_to_end(gate, samples, probes, setup_s, setup_raw)
    error_rate = gate.failed / gate.attempted
    correct = gate.failed == 0
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(f"{'error_rate':36s} {error_rate:.6g} ratio "
          f"({gate.failed} of {gate.attempted} operations failed)")
    for problem in gate.problems:
        sys.stderr.write(f"GATE FAILED: {problem}\n")
    detail.update(
        {
            "provenance": meta,
            "error_rate": error_rate,
            "output_sha256": dict(zip(SIZES, gate.digests())),
            "params": dict(zip(SIZES, work.params)),
        }
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
