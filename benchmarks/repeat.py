"""Repeat the benchmark over seeds and report each metric's spread.

    python3 benchmarks/repeat.py --workloads audit --seeds 1 2 3 4 5
    python3 benchmarks/repeat.py --runs 10 --out benchmarks/baseline.json

Runs ``benchmarks/run.py`` once per (workload, seed), one run at a time,
and prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, set against a third of
the metric's bound in BENCHMARK.json.  With ``--out`` it also writes the
runs and their summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmarks" / "run.py"


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    for bulky in ("times_us", "probe_us"):
        detail.pop(bulky, None)
    return result, detail


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=None)
    p.add_argument("--runs", type=int, default=5,
                   help="seeds 1..runs when --seeds is not given")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    seeds = args.seeds or list(range(1, args.runs + 1))
    key = "end_to_end" if args.trace == 0 else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    report = {"seconds": args.seconds, "seeds": seeds, "trace": args.trace,
              "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result, detail = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "result": result, "detail": detail})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = summarize(values) if len(values) > 1 else {
                "median": values[0]}
            bound = bounds[name]
            s = summary[name]
            flag = ""
            if bound is not None and "spread" in s and name != "setup_s":
                ok = s["spread"] < bound / 3.0
                steady &= ok
                flag = "ok" if ok else f"SPREAD >= bound/3 ({bound / 3.0:.3f})"
            print(f"  {name:36s} median {s['median']:.6g}"
                  + (f"  spread {s['spread']:.4f} {flag}" if "spread" in s else ""))
        report["workloads"][workload] = {
            "summary": summary,
            "correct": all(r["result"]["correct"] for r in runs),
            "runs": runs,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
