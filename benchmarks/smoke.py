"""Smoke test of the benchmark itself (not collected by the test suite).

    python3 benchmarks/smoke.py

Checks, on tiny inputs and without any timing bound:

* every workload prints every metric of BENCHMARK.json with its unit, both
  untraced (end-to-end metrics) and traced (per-layer metrics), and its
  gate passes;
* the traced replay gives the same outputs as the untraced run, and the
  per-layer times account for the traced operations within 5%;
* criterion 8's tampered-weight certificate counts as failed operations,
  so the gate can fail;
* in a directory holding only the benchmark, the runner exits non-zero
  without printing a result.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("benchmarks") / "run.py"
BARE = ROOT / "benchmarks" / "out" / "bare"


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"], lines[:-2]


def check_metrics(problems, label, result, table, spec):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    printed = {line.split()[0]: line.split()[2] for line in table if line.strip()}
    for name, unit in want.items():
        if printed.get(name) != unit:
            problems.append(f"{label}: table line for {name} lacks unit {unit}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{name} trace {trace}"
            proc = run(name, trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result, detail, table = parse(proc)
            check_metrics(problems, label, result, table, spec[key])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: gate failed\n{proc.stderr}")
            digests[trace] = detail["output_sha256"]
            if trace:
                frac = result["metrics"]["trace.accounted_frac"]["value"]
                if abs(frac - 1.0) > 0.05:
                    problems.append(f"{label}: layers account for {frac:.3f} "
                                    "of the traced time")
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{name}: traced outputs differ from untraced ones")
        print(f"{name}: checked", flush=True)

    proc = run("audit-tampered", 0)
    result, _, _ = parse(proc)
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"tampered control not caught: {result}")
    print("audit-tampered: checked", flush=True)

    shutil.rmtree(BARE, ignore_errors=True)
    try:
        (BARE / "benchmarks").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        for path in (ROOT / "benchmarks").glob("*.py"):
            shutil.copy(path, BARE / "benchmarks")
        proc = run(spec["workloads"][0]["name"], 0, cwd=BARE)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("runner did not fail without the library")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    print("bare directory: checked", flush=True)

    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
