"""The names the benchmark's span recorder wraps exist in the library.

``benchmarks/tracer.py`` replaces library functions by name in a traced
run; a renamed or deleted one would only show there.  These tests read its
span tables as they are and resolve every entry, and run a tiny traced
analysis and audit through its recorder, whose counts read attributes of
what the wrapped calls return.
"""

import importlib.util
from pathlib import Path

import pytest

import koopman_clf

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "owner,attr",
    [(span[0], span[1]) for span in tracer.LIBRARY_SPANS + tracer.SETUP_SPANS],
)
def test_every_traced_name_is_a_callable_of_its_owner(owner, attr):
    obj = tracer._resolve(koopman_clf, owner)
    assert callable(vars(obj).get(attr)), f"{owner or 'koopman_clf'}.{attr}"


def test_a_traced_analysis_and_audit_count_every_layer():
    # ``flush_counts`` reads what the wrapped calls return: the closure's
    # ``dim``, the generator matrix's ``rows`` and the operator's
    # ``kmat.rows``
    recorder = tracer.Tracer()
    recorder.install(koopman_clf)
    try:
        family = koopman_clf.example1_config().build_family()
        report = recorder.op(lambda: koopman_clf.analyze_family(family, 4))
        recorder.flush_counts()
        assert report.certified
        recorder.op(lambda: koopman_clf.audit_certificate(
            family, report, signals=1, points=2, seed=1, dt=0.01, horizon=0.1
        ))
        recorder.flush_counts()
        metrics = tracer.layer_metrics(recorder, 1)
    finally:
        recorder.uninstall()
    assert koopman_clf.analyze_family is vars(koopman_clf.analysis)["analyze_family"]
    for name in ("multiindex.basis_size", "liealg.closure_dim",
                 "koopman.stored_entries", "certificate.coupled_pairs",
                 "vectorfield.flow_step_calls"):
        assert metrics[name][0] > 0, name
    # analysis calls the face bound through its module attribute, which the
    # tracer wraps; a direct reference would leave this metric at 0
    assert metrics["vectorfield.invariance_s"][0] > 0
    # the tracer wraps V's methods on certificate.CommonLyapunovFunction,
    # which must be the class the audit makes, from kernels
    assert metrics["certificate.clf_value_s"][0] > 0
    assert metrics["certificate.clf_hat_s"][0] > 0
