"""The reports and audit outputs keep their bytes: their sha256 digests are
committed in ``tests/data/output_digests.json``.

Float rounding can depend on numpy, its BLAS and the processor, so the
manifest records the machine its digests were taken on, and on any other
the test skips and names the difference.  When a change moves an output on
purpose, print the new manifest with

    PYTHONPATH=src python tests/test_output_digests.py

and commit it, naming the moved outputs and values in CHANGES.md.  The
committed reports, unlike the audit outputs, must not depend on the BLAS
kernel or numpy's SIMD level: a second test checks that in child
processes.  Each of them keeps the identity as its flag change; a report
whose flag change is not the identity is not covered (see that test).
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import random
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from koopman_clf.analysis import analyze_family, substitute_linear
from koopman_clf.cli import main
from koopman_clf.config import example1_config, example2_config
from koopman_clf.multiindex import build_basis
from koopman_clf.switchsim import audit_certificate, sample_initial_points
from koopman_clf.vectorfield import PolyVectorField, SwitchedFamily

MANIFEST = pathlib.Path(__file__).parent / "data" / "output_digests.json"


def machine():
    """What float rounding may depend on: numpy, its BLAS, the processor."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas,
            "machine": f"{platform.machine()} {cpu}"}


def config_report(cfg, degree=None):
    """The config's analysis, at ``degree`` if given."""
    return analyze_family(
        cfg.build_family(), degree or cfg.truncation_degree,
        scheme_kind=cfg.scheme_kind, xi=cfg.xi, kappa=cfg.kappa, eta=cfg.eta,
        rho_request=cfg.rho_request,
    )


def report_text(cfg, degree=None):
    """``to_json()`` of the config's analysis, at ``degree`` if given."""
    return config_report(cfg, degree).to_json()


def conjugated_report(scheme_kind):
    """The report of example1 conjugated by S = [[1, 0.4], [-0.3, 1]], at
    N = 12.  Both linear parts stay -I, but S mixes the higher terms: the
    polynomial scheme fails, the dominance scheme certifies.  S^-1 is
    written out, as LAPACK's inverse moves in its last bit with the BLAS
    kernel."""
    S = np.array([[1.0, 0.4], [-0.3, 1.0]])
    S_inv = np.array([[1.0, -0.4], [0.3, 1.0]]) / 1.12
    family = [substitute_linear(f, S_inv, S)
              for f in example1_config().build_family()]
    return analyze_family(family, 12, scheme_kind=scheme_kind).to_json()


def tampered_summary():
    """The audit of the linear pair with one weight set to 1e-12, as
    ``simulate --out`` writes it."""
    pair = SwitchedFamily([
        PolyVectorField([{(1, 0): -1.0, (0, 1): 0.6}, {(0, 1): -1.0}]),
        PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.5}]),
    ])
    report = analyze_family(pair, 6)
    report.epsilon[build_basis(2, 6).index_of((0, 1)) - 1] = 1e-12
    summary = audit_certificate(pair, report, signals=10, points=10, seed=3,
                                dt=0.01, horizon=20.0)
    assert not summary.passed
    return json.dumps(summary.to_json_dict(), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def summary_text(summary):
    """An audit summary as ``benchmarks/run.py`` renders it."""
    return json.dumps(summary.to_json_dict(), sort_keys=True, indent=2) + "\n"


def benchmark_audits():
    """The benchmark's ``audit`` workload: example1's N = 12 certificate,
    1, 2 and 3 signals x 50 points, dt 0.01, horizon 20, dwell 0.05-1,
    for the default seed 2026 and the held-out seed 7; each size's audit
    seed is the next ``randrange(2**31)`` of ``random.Random(seed)``."""
    family = example1_config().build_family()
    report = analyze_family(family, 12)
    texts = {}
    for seed in (2026, 7):
        rng = random.Random(seed)
        for signals in (1, 2, 3):
            summary = audit_certificate(
                family, report, signals=signals, points=50,
                seed=rng.randrange(2**31), dt=0.01, horizon=20.0,
                min_dwell=0.05, max_dwell=1.0)
            texts[f"audit.example1.{signals}x50.seed{seed}"] = summary_text(summary)
    return texts


def criterion8_summary():
    """Acceptance criterion 8's audit: 100 signals x 50 points, seed 2026."""
    family = example1_config().build_family()
    report = analyze_family(family, 12, scheme_kind="polynomial")
    return summary_text(audit_certificate(family, report, signals=100, points=50,
                                          seed=2026, dt=0.01, horizon=20.0))


def example2_summary():
    """A short audit of example2's certificate: 2 signals x 10 points,
    seed 2026, dt 0.01, horizon 2."""
    cfg = example2_config()
    return summary_text(audit_certificate(
        cfg.build_family(), config_report(cfg), signals=2, points=10, seed=2026,
        dt=0.01, horizon=2.0))


def simulate_files(folder):
    """``simulate --out`` and ``--trace`` of example1's certificate, 3
    signals x 7 points, seed 5, dt 0.01, through the command line."""
    cfg, rpt, out, trace = (str(folder / name) for name in
                            ("sys.json", "report.json", "audit.json", "trace.csv"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["example1", "--out", cfg]) == 0
        assert main(["analyze", "--config", cfg, "--out", rpt]) == 0
        assert main(["simulate", "--report", rpt, "--trials", "3",
                     "--points", "7", "--seed", "5", "--dt", "0.01",
                     "--out", out, "--trace", trace]) == 0
    return {"simulate.example1.summary": pathlib.Path(out).read_bytes(),
            "simulate.example1.trace": pathlib.Path(trace).read_bytes()}


def reports():
    """The committed ``analyze`` reports, by name, as bytes."""
    texts = {}
    for degree in (12, 30, 60):
        texts[f"report.example1.N{degree}"] = report_text(example1_config(), degree)
    for degree in (12, 16, 20):
        texts[f"report.example2.dd.N{degree}"] = report_text(example2_config(), degree)
    texts["report.example1.b0.5"] = report_text(example1_config(b=0.5))
    texts["report.example1.b0.5.dd.N16"] = report_text(
        example1_config(b=0.5)._replace(scheme_kind="diagonal_dominance"), 16)
    for scheme_kind in ("polynomial", "diagonal_dominance"):
        texts[f"report.example1.conjugated.{scheme_kind}"] = conjugated_report(
            scheme_kind)
    return {name: text.encode() for name, text in texts.items()}


def outputs(folder):
    """Every committed output of this tree, by name, as bytes."""
    audit = {"audit.tampered.summary": tampered_summary(),
             "audit.example1.criterion8": criterion8_summary(),
             "audit.example2.2x10.horizon2": example2_summary(),
             **benchmark_audits()}
    audit = {name: text.encode() for name, text in audit.items()}
    points = {f"points.n{n}": sample_initial_points(n, 0.95, 50, 2026).tobytes()
              for n in (1, 2, 3)}
    return {**reports(), **audit, **points, **simulate_files(folder)}


def sha256(named):
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in sorted(named.items())}


def digests(folder):
    return sha256(outputs(folder))


def test_outputs_keep_their_committed_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    here = machine()
    moved = [f"{key} {manifest['machine'].get(key)!r}, here {value!r}"
             for key, value in here.items() if manifest["machine"].get(key) != value]
    if moved:
        pytest.skip("digests were taken on another machine: " + "; ".join(moved))
    got, want = digests(tmp_path), manifest["sha256"]
    assert got.keys() == want.keys()
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, "outputs moved: " + ", ".join(moved)


# numpy's SIMD dispatch and the BLAS kernel are chosen when a process
# starts, so a child process can run another of each on this machine
KERNELS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-sse": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernels named are x86 ones")
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_reports_do_not_depend_on_the_blas_kernel_or_simd_level(kernel):
    """The committed reports keep their bytes under another OpenBLAS
    kernel and under numpy's SSE-only dispatch: each is recomputed in a
    child process and its digest compared with this process's.

    Every one of them has the identity as its flag change, so no number
    in it goes through LAPACK.  A family whose flag change is not the
    identity is not covered, and does move: example1 with subsystem 2's
    second diagonal at -1.2, conjugated by S as in ``conjugated_report``,
    gives a dominance report at N = 12 whose ``T`` and ``eigenvalues``
    differ in 7 lines under ``OPENBLAS_CORETYPE=Prescott``, through
    LAPACK's ``eig``, ``qr`` and ``svd`` in ``liealg``.

    The audit outputs are not compared; their digests stay per-machine.
    The trace maps flag coordinates back through a BLAS product, which
    wrote a zero as -0.0 under one kernel and 0.0 under another, and the
    SSE-only dispatch moved the summary's ``final_norm_max`` in its last
    bit.
    """
    tests = pathlib.Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    env = {**os.environ, **KERNELS[kernel], "PYTHONPATH": path}
    child = subprocess.run(
        [sys.executable, "-c", "import json, test_output_digests as t; "
         "print(json.dumps(t.sha256(t.reports())))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(child.stdout) == sha256(reports())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        manifest = {"machine": machine(), "sha256": digests(pathlib.Path(folder))}
    sys.stdout.write(json.dumps(manifest, indent=2) + "\n")
