"""The names the benchmark's span recorder wraps exist in the library.

``benchmarks/tracer.py`` replaces library functions by name in a traced
run; a renamed or deleted one would only show there.  This test reads its
span tables as they are and resolves every entry.
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
