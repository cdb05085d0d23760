"""Command-line interface.

Subcommands: ``analyze`` (run the certificate pipeline on a config),
``simulate`` (audit a certificate by seeded switched simulation),
``figure-rho`` (certified-radius curve of the built-in analytic family),
``example1``/``example2`` (write ready-made configs).

analyze writes the config it ran, with its overrides, into the report as
``config``.  simulate reads that block alone: it runs the same analysis
again and audits that certificate, and it exits 2 when the rest of the
report differs from it, naming the first path where they differ.

Exit codes: analyze returns 0 on a certificate, 2 when the Jacobian
algebra is unsolvable or its linear algebra fails, 3 when the stability
assumption, the scheme condition or the proof that the certified
polydisk is forward invariant fails, 4 when the weight series diverges.
analyze, simulate and figure-rho exit 2 when memory runs out, naming the
truncation degree and the basis size.  simulate returns 5
when the audit flags a violation, including a value of V, or of its
rate, that stops being finite, as V does wherever a state does (one
line on stderr, no summary).  Reports and summaries are strict JSON; a
non-finite number in a failed report is written as null.  Usage and
config errors exit with 2 via the argument parser; these include
non-finite coefficients, tail norms or simulation parameters, repeated
coefficients, exponents past 2**63 - 1, values of the wrong JSON type, a
report without a config block, and an output path that cannot be
written.
"""

import argparse
import io
import json
import math
import os
import sys
from functools import partial

import numpy as np

from .analysis import (
    analyze_family,
    export_epsilon_csv,
    export_ratios_csv,
    strict_json,
)
from .config import SystemConfig, example1_config, example2_config

# a basis too large for memory is a usage error (exit 2)
OUT_OF_MEMORY = (
    "out of memory: truncation degree {} gives a basis of {} monomials "
    "in dimension {}"
)


def _write_text(parser, path, text):
    """Write ``text`` to ``path``, or to stdout for '-'; a path that
    cannot be written is a usage error (exit 2)."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc.strerror or exc}")


def _check_writable(parser, path):
    """Exit 2 now, as ``_write_text`` would later, when ``path`` cannot be
    written; a file that the check creates is removed again."""
    if path is None or path == "-":
        return
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc.strerror or exc}")
    if not existed:
        os.remove(path)


def _csv_text(export, data):
    """What ``export(data, fh)`` writes, as a string."""
    buf = io.StringIO()
    export(data, buf)
    return buf.getvalue()


def _read_json(parser, path, what):
    """The JSON value in the file ``path``; a file that cannot be read or
    parsed is a usage error (exit 2)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read {what}: {exc}")
    except ValueError as exc:
        parser.error(f"invalid {what}: {exc}")


def _config(parser, data):
    """The config of the dict ``data``; an invalid one is a usage error."""
    try:
        return SystemConfig.from_json_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        parser.error(f"invalid config: {exc}")


def _analysis(parser, cfg):
    """The report of ``cfg``, as ``analyze`` writes it and ``simulate``
    re-derives it; a field or parameter that the analysis refuses and a
    basis too large for memory are usage errors."""
    # an overflowing ratio ends as inf and fails the scheme; numpy's
    # warnings would only repeat it
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return analyze_family(
                cfg.family,
                cfg.truncation_degree,
                scheme_kind=cfg.scheme_kind,
                xi=cfg.xi,
                kappa=cfg.kappa,
                eta=cfg.eta,
                rho_request=cfg.rho_request,
            )
    except ValueError as exc:
        parser.error(str(exc))
    except MemoryError:
        n, degree = cfg.dimension, cfg.truncation_degree
        parser.error(OUT_OF_MEMORY.format(degree, math.comb(degree + n, n) - 1, n))


def _first_difference(ours, theirs, path=""):
    """The path of the first value, in sorted key order, at which two
    parsed JSON values differ, or None when they are equal.  Numbers
    compare by value; a bool is not a number."""
    if isinstance(ours, dict) and isinstance(theirs, dict):
        for key in sorted(ours.keys() | theirs.keys()):
            where = f"{path}.{key}" if path else key
            if key not in ours or key not in theirs:
                return where
            found = _first_difference(ours[key], theirs[key], where)
            if found is not None:
                return found
        return None
    if isinstance(ours, list) and isinstance(theirs, list) and len(ours) == len(theirs):
        for i, (mine, other) in enumerate(zip(ours, theirs)):
            found = _first_difference(mine, other, f"{path}[{i}]")
            if found is not None:
                return found
        return None
    same = isinstance(ours, bool) == isinstance(theirs, bool) and ours == theirs
    return None if same else path


def cmd_analyze(parser, args):
    cfg = _config(parser, _read_json(parser, args.config, "config"))
    overrides = {"truncation_degree": args.degree, "scheme_kind": args.scheme,
                 "xi": args.xi, "kappa": args.kappa, "rho_request": args.rho}
    cfg = cfg._replace(
        **{key: value for key, value in overrides.items() if value is not None}
    )
    report = _analysis(parser, cfg)
    if args.format == "json":
        # the config that ran: simulate re-derives the report from it
        text = strict_json({**report.to_json_dict(), "config": cfg.to_json_dict()})
        _write_text(parser, args.out, text)
    elif report.epsilon is not None:  # else the analysis stopped before them
        prefix = args.out if args.out not in (None, "-") else "report"
        _write_text(parser, prefix + ".epsilon.csv",
                    _csv_text(export_epsilon_csv, report))
        _write_text(parser, prefix + ".ratios.csv",
                    _csv_text(export_ratios_csv, report))
    if report.certified:
        sys.stderr.write(
            f"certified: rho={report.rho_certified!r} "
            f"scheme={report.scheme_kind}\n"
        )
    else:
        sys.stderr.write(f"not certified: {report.failure['message']}\n")
    return report.exit_code


def cmd_simulate(parser, args):
    # the audit layer loads here only, so no other command compiles it
    from .switchsim import NonFiniteStateError, audit_certificate, export_run_csv

    data = _read_json(parser, args.report, "report")
    if not isinstance(data, dict) or "config" not in data:
        parser.error("report has no config block: write it with "
                     "'koopman-clf analyze'")
    cfg = _config(parser, data.pop("config"))
    # the certificate audited is the config's own analysis, never the file's
    report = _analysis(parser, cfg)
    where = _first_difference(json.loads(report.to_json()), data)
    if where is not None:
        parser.error("report does not match the analysis of its config: "
                     f"first difference at {where}")
    for path in (args.out, args.trace):  # before the audit, not after it
        _check_writable(parser, path)
    sim = cfg.simulation
    try:
        summary = audit_certificate(
            cfg.family,
            report,
            signals=args.trials if args.trials is not None else sim.trials,
            points=args.points if args.points is not None else sim.points,
            seed=args.seed if args.seed is not None else sim.seed,
            dt=args.dt if args.dt is not None else sim.dt,
            horizon=sim.horizon,
            min_dwell=sim.min_dwell,
            max_dwell=sim.max_dwell,
        )
    except ValueError as exc:
        parser.error(str(exc))
    except MemoryError:
        parser.error(OUT_OF_MEMORY.format(
            report.truncation_degree, report.basis_size, report.dimension
        ))
    except NonFiniteStateError as exc:
        sys.stderr.write(f"audit failed: {exc}\n")
        return 5
    _write_text(
        parser,
        args.out,
        json.dumps(summary.to_json_dict(), sort_keys=True, indent=2, allow_nan=False)
        + "\n",
    )
    if args.trace is not None:
        _write_text(parser, args.trace, _csv_text(export_run_csv, summary.run))
    return 0 if summary.passed else 5


def cmd_figure_rho(parser, args):
    if args.steps < 2 or args.degree < 2:
        parser.error("need steps >= 2 and degree >= 2")
    if not (math.isfinite(args.mu_max) and 0 < args.mu_min <= args.mu_max):
        parser.error("need finite mu with 0 < mu-min <= mu-max")
    rows = []
    c_plus = (math.cosh(2.0) + 1.0) / 2.0
    for s in range(args.steps):
        mu = args.mu_min + (args.mu_max - args.mu_min) * s / (args.steps - 1)
        closed = 1.0 / (1.0 + c_plus / mu)
        row = [repr(mu), repr(closed)]
        if args.certify:
            report = _analysis(parser, example2_config(mu=mu, degree=args.degree))
            row.append(repr(report.rho_certified) if report.certified else "")
        rows.append(",".join(row))
    header = "mu,rho_closed_form" + (",rho_certified" if args.certify else "")
    _write_text(parser, args.out, header + "\n" + "\n".join(rows) + "\n")
    return 0


def cmd_example(parser, args, which):
    # the written config is read back as analyze would read it
    try:
        if which == 1:
            cfg = example1_config(a=args.a, b=args.b, degree=args.degree)
        else:
            cfg = example2_config(mu=args.mu, degree=args.degree)
        SystemConfig.from_json_dict(cfg.to_json_dict())
    except ValueError as exc:
        parser.error(f"invalid config: {exc}")
    _write_text(parser, args.out, cfg.to_json())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="koopman-clf",
        description=(
            "Certify global uniform asymptotic stability of switched "
            "systems on the complex polydisk via a common Lyapunov "
            "function built from truncated Koopman generator matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the certificate pipeline")
    p.add_argument("--config", required=True, help="system config JSON")
    p.add_argument(
        "--out",
        default="-",
        help="report destination ('-' = stdout); with --format csv, the "
        "PREFIX of PREFIX.epsilon.csv and PREFIX.ratios.csv, './report' "
        "when omitted or '-'",
    )
    p.add_argument("--degree", type=int, help="override truncation degree")
    p.add_argument(
        "--scheme", choices=["poly", "dd", "polynomial", "diagonal_dominance"]
    )
    p.add_argument("--xi", type=float, help="override scheme parameter xi")
    p.add_argument("--kappa", type=float, help="override scheme parameter kappa")
    p.add_argument("--rho", type=float, help="request a radius <= the certified one")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("simulate", help="audit a certificate by simulation")
    p.add_argument("--report", required=True,
                   help="report JSON from analyze; its config block is re-analyzed")
    p.add_argument("--out", default="-")
    p.add_argument("--trials", type=int, help="number of switching signals")
    p.add_argument("--points", type=int, help="initial states per signal")
    p.add_argument("--seed", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--trace", help="write the audit's first trajectory "
                   "(signal 0 from point 0) as CSV here")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser(
        "figure-rho", help="certified-radius curve of the analytic example"
    )
    p.add_argument("--mu-min", type=float, required=True)
    p.add_argument("--mu-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--degree", type=int, default=20)
    p.add_argument("--certify", action="store_true",
                   help="also run the pipeline at each mu")
    p.add_argument("--out", default="-")
    p.set_defaults(run=cmd_figure_rho)

    p = sub.add_parser("example1", help="write the polynomial pair config")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.3)
    p.add_argument("--degree", type=int, default=12)
    p.add_argument("--out", default="-")
    p.set_defaults(run=partial(cmd_example, which=1))

    p = sub.add_parser("example2", help="write the analytic pair config")
    p.add_argument("--mu", type=float, default=3.0)
    p.add_argument("--degree", type=int, default=20)
    p.add_argument("--out", default="-")
    p.set_defaults(run=partial(cmd_example, which=2))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.run(parser, args)


if __name__ == "__main__":
    sys.exit(main())
