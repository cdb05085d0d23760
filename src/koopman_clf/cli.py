"""Command-line interface.

Subcommands: ``analyze`` (run the certificate pipeline on a config),
``simulate`` (audit a certificate by seeded switched simulation),
``figure-rho`` (certified-radius curve of the built-in analytic family),
``example1``/``example2`` (write ready-made configs).

Exit codes: analyze returns 0 on a certificate, 2 when the Jacobian
algebra is unsolvable or its linear algebra fails, 3 when the scheme
condition (or the stability assumption) fails, 4 when the weight series
diverges.  analyze, simulate and figure-rho exit 2 when memory runs out,
naming the truncation degree and the basis size.  simulate returns 5
when the audit flags a violation, including a value of V, or of its
rate, that stops being finite, as V does wherever a state does (one
line on stderr, no summary).  Reports and summaries are strict JSON; a
non-finite number in a failed report is written as null.  Usage and
config errors exit with 2 via the argument parser; these include
non-finite coefficients, tail norms or simulation parameters, repeated
coefficients, exponents past 2**63 - 1, values of the wrong JSON type, a
report whose P and P_inv are not inverses, and an output path that
cannot be written.
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
    load_report,
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


def _load_config(parser, path):
    try:
        with open(path) as fh:
            return SystemConfig.from_json(fh.read())
    except OSError as exc:
        parser.error(f"cannot read config: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        parser.error(f"invalid config: {exc}")


def cmd_analyze(parser, args):
    cfg = _load_config(parser, args.config)
    degree = args.degree if args.degree is not None else cfg.truncation_degree
    scheme = args.scheme if args.scheme is not None else cfg.scheme_kind
    xi = args.xi if args.xi is not None else cfg.xi
    kappa = args.kappa if args.kappa is not None else cfg.kappa
    rho_request = args.rho if args.rho is not None else cfg.rho_request
    # an overflowing ratio ends as inf and fails the scheme; numpy's
    # warnings would only repeat it
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            report = analyze_family(
                cfg.build_family(),
                degree,
                scheme_kind=scheme,
                xi=xi,
                kappa=kappa,
                eta=cfg.eta,
                rho_request=rho_request,
            )
    except ValueError as exc:
        parser.error(str(exc))
    except MemoryError:
        n = cfg.dimension
        parser.error(OUT_OF_MEMORY.format(degree, math.comb(degree + n, n) - 1, n))
    if args.format == "json":
        _write_text(parser, args.out, report.to_json())
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

    cfg = _load_config(parser, args.config)
    try:
        with open(args.report) as fh:
            report = load_report(json.load(fh))
    except OSError as exc:
        parser.error(f"cannot read report: {exc}")
    except (KeyError, ValueError, TypeError) as exc:
        parser.error(f"invalid report: {exc}")
    for path in (args.out, args.trace):  # before the audit, not after it
        _check_writable(parser, path)
    sim = cfg.simulation
    try:
        summary = audit_certificate(
            cfg.build_family(),
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
            try:
                cfg = example2_config(mu=mu, degree=args.degree)
                report = analyze_family(
                    cfg.build_family(),
                    cfg.truncation_degree,
                    scheme_kind="diagonal_dominance",
                )
            except ValueError as exc:
                parser.error(str(exc))
            except MemoryError:
                size = math.comb(args.degree + 2, 2) - 1
                parser.error(OUT_OF_MEMORY.format(args.degree, size, 2))
            row.append(
                repr(report.rho_certified) if report.certified else ""
            )
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
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True, help="report JSON from analyze")
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
