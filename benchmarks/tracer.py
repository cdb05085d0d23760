"""Span recorder that wraps library functions from the outside.

The benchmark never edits the library.  In a traced run it replaces the
names each layer's callers look up (module attributes and two methods of
``CommonLyapunovFunction``) with wrappers that record a span -- name,
start, end, parent -- and restores the originals afterwards.  Spans and
counts stay in memory; ``layer_metrics`` turns them into per-layer busy
and self times, and ``dump`` writes the raw spans out at the end.
"""

import gzip
import json
import time

# (owner path from the package, "" for the package itself; attribute; span
#  name; index of the batch argument or None; keep the result for counting).
# The benchmark calls analyze_family and audit_certificate as the package
# exports them, so those two are wrapped on the package.
LIBRARY_SPANS = (
    ("analysis", "build_basis", "multiindex.build_basis", None, True),
    ("analysis", "close_under_bracket", "liealg.close_under_bracket", None, True),
    ("analysis", "is_solvable", "liealg.is_solvable", None, False),
    ("analysis", "simultaneous_triangularize", "liealg.simultaneous_triangularize",
     None, False),
    ("analysis", "build_operator", "certificate.build_operator", None, True),
    ("analysis", "check_poly_condition", "certificate.check_poly_condition",
     None, False),
    ("analysis", "dominance_xi_min", "certificate.dominance_xi_min", None, False),
    ("analysis", "certified_radius_dd", "certificate.certified_radius_dd",
     None, False),
    ("analysis", "epsilon_sequence", "certificate.epsilon_sequence", None, False),
    ("analysis", "convergence_check", "certificate.convergence_check", None, False),
    ("analysis", "boundary_invariance_check", "vectorfield.boundary_invariance_check",
     None, False),
    ("", "analyze_family", "analysis.analyze_family", None, False),
    ("analysis.CertificateReport", "to_json", "analysis.to_json", None, False),
    ("certificate", "build_matrix", "koopman.build_matrix", None, True),
    ("certificate", "check_dd_condition", "certificate.check_dd_condition",
     None, False),
    ("", "audit_certificate", "switchsim.audit_certificate", None, False),
    ("switchsim", "build_basis", "multiindex.build_basis", None, True),
    ("switchsim", "random_signal", "switchsim.random_signal", None, False),
    ("switchsim", "sample_initial_points", "switchsim.sample_initial_points",
     None, False),
    ("switchsim", "flow_step", "vectorfield.flow_step", 1, False),
    ("certificate.CommonLyapunovFunction", "value_batch",
     "certificate.clf_value_batch", 1, False),
    ("certificate.CommonLyapunovFunction", "hat", "certificate.clf_hat", 1, False),
)

SETUP_SPANS = (("config.SystemConfig", "build_family", "config.build_family",
                None, False),)

ROOT = "bench.op"

# Per-layer time metrics: each is a sum of span totals ("total") or span
# self times ("self").  Together they partition the time of the root
# spans, which ``accounted_frac`` checks.
LAYER_TIMES = {
    "multiindex.build_basis_s": (("total", "multiindex.build_basis"),),
    "liealg.busy_s": (
        ("total", "liealg.close_under_bracket"),
        ("total", "liealg.is_solvable"),
        ("total", "liealg.simultaneous_triangularize"),
    ),
    "koopman.build_matrix_s": (("total", "koopman.build_matrix"),),
    "certificate.build_operator_self_s": (("self", "certificate.build_operator"),),
    "certificate.scheme_s": (
        ("total", "certificate.check_poly_condition"),
        ("total", "certificate.dominance_xi_min"),
        ("total", "certificate.certified_radius_dd"),
    ),
    "certificate.weights_s": (("total", "certificate.epsilon_sequence"),),
    "certificate.convergence_s": (("total", "certificate.convergence_check"),),
    "vectorfield.invariance_s": (("total", "vectorfield.boundary_invariance_check"),),
    "analysis.self_s": (("self", "analysis.analyze_family"),),
    "analysis.to_json_s": (("total", "analysis.to_json"),),
    "vectorfield.flow_step_s": (("total", "vectorfield.flow_step"),),
    "certificate.clf_value_s": (("self", "certificate.clf_value_batch"),),
    "certificate.clf_hat_s": (("total", "certificate.clf_hat"),),
    "switchsim.self_s": (("self", "switchsim.audit_certificate"),),
    "switchsim.inputs_s": (
        ("total", "switchsim.random_signal"),
        ("total", "switchsim.sample_initial_points"),
    ),
}


def _resolve(lib, path):
    obj = lib
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Spans as ``[name, start, end, parent]`` lists plus layer counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.rows = {}
        self.kept = []
        self.counts = {
            "basis_size": 0,
            "closure_dim": 0,
            "stored_entries": 0,
            "coupled_pairs": 0,
        }
        self._patched = []

    def _wrap(self, name, fn, rows_arg, keep):
        spans, stack, kept, rows = self.spans, self.stack, self.kept, self.rows
        clock = time.perf_counter
        rows.setdefault(name, 0)

        def wrapped(*args, **kwargs):
            if rows_arg is not None:
                rows[name] += len(args[rows_arg])
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if keep:
                kept.append((name, out))
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self, lib, table=LIBRARY_SPANS):
        """Replace each listed attribute of the library by a recording wrapper."""
        for owner_path, attr, name, rows_arg, keep in table:
            owner = _resolve(lib, owner_path)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, original, rows_arg, keep))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def op(self, fn):
        """Run ``fn`` under a root span; returns its result."""
        return self._wrap(ROOT, fn, None, False)()

    def flush_counts(self):
        """Fold results kept during the last operation into the counts.

        Runs between operations, outside every span, so its cost lands in
        no layer.
        """
        c = self.counts
        for name, out in self.kept:
            if name == "multiindex.build_basis":
                c["basis_size"] += out.size
            elif name == "liealg.close_under_bracket":
                c["closure_dim"] = max(c["closure_dim"], int(out.dim))
            elif name == "koopman.build_matrix":
                c["stored_entries"] += sum(len(cols) for cols, _ in out.rows)
            elif name == "certificate.build_operator":
                for k, (cols, vals) in enumerate(out.kmat.rows, start=1):
                    c["coupled_pairs"] += int(((cols > k) & (vals != 0)).sum())
        self.kept.clear()

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, self_time = out.get(name, (0, 0.0, 0.0))
            dur = end - start
            out[name] = (calls + 1, total + dur, self_time + dur - child[i])
        return out

    def dump(self, path, meta):
        """Write spans (names interned, times in ns from the first span)."""
        names = sorted({s[0] for s in self.spans})
        index = {nm: i for i, nm in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[nm], round((s - t0) * 1e9), round((e - t0) * 1e9), p]
            for nm, s, e, p in self.spans
        ]
        doc = {
            "meta": meta,
            "names": names,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": rows,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer, rounds):
    """Per-layer metrics per round (one operation at each size)."""
    totals = tracer.totals()

    def get(kind, name):
        calls, total, self_time = totals.get(name, (0, 0.0, 0.0))
        return total if kind == "total" else self_time

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    out = {}
    busy = 0.0
    for metric, parts in LAYER_TIMES.items():
        value = sum(get(kind, name) for kind, name in parts)
        busy += value
        out[metric] = (value / rounds, "s")
    root = get("total", ROOT)
    c = tracer.counts
    steps = calls("vectorfield.flow_step")
    clf_calls = calls("certificate.clf_value_batch")
    checks = calls("certificate.check_dd_condition")
    out.update(
        {
            "multiindex.basis_size": (c["basis_size"] / rounds, "count"),
            "liealg.closure_dim": (c["closure_dim"], "count"),
            "koopman.stored_entries": (c["stored_entries"] / rounds, "count"),
            "certificate.coupled_pairs": (c["coupled_pairs"] / rounds, "count"),
            "certificate.dd_checks": (checks / rounds, "count"),
            "certificate.radii_per_check": (
                calls("certificate.certified_radius_dd") / checks if checks else 0.0,
                "ratio",
            ),
            "vectorfield.flow_step_calls": (steps / rounds, "count"),
            "vectorfield.rows_per_step": (
                tracer.rows.get("vectorfield.flow_step", 0) / steps if steps else 0.0,
                "rows",
            ),
            "certificate.clf_rows_per_call": (
                tracer.rows.get("certificate.clf_value_batch", 0) / clf_calls
                if clf_calls
                else 0.0,
                "rows",
            ),
            "trace.accounted_frac": (busy / root if root else 0.0, "ratio"),
        }
    )
    return out
