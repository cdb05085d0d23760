"""No output depends on the order in which a caller lists a component's
terms: a field keeps them in exponent order, so the report, the face
bounds and the audit of a family are the same for every listing."""

import json
import random

import pytest

from koopman_clf.analysis import analyze_family
from koopman_clf.config import example1_config, example2_config
from koopman_clf.switchsim import audit_certificate
from koopman_clf.vectorfield import (
    PolyVectorField,
    SwitchedFamily,
    boundary_invariance_check,
)
import zoo

# (family, truncation degree, scheme)
FAMILIES = {
    "example1": (lambda: example1_config().build_family(), 12, "polynomial"),
    "example2": (lambda: example2_config().build_family(), 20, "diagonal_dominance"),
    "example1-conjugated": (
        lambda: zoo.conjugate(example1_config().build_family()), 12,
        "diagonal_dominance",
    ),
    "three-dimensional-pair": (zoo.three_dimensional_pair, 12, "polynomial"),
}


def _reversed(items, _):
    return items[::-1]


def _shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def permuted(family, order):
    """``family`` rebuilt from each component's terms listed by ``order``."""
    return SwitchedFamily(
        PolyVectorField(
            [dict(order(list(c.items()), 100 * i + l))
             for l, c in enumerate(f.components)],
            tail_l1=f.tail_l1, truncated=f.truncated,
        )
        for i, f in enumerate(family)
    )


def _outputs(family, degree, scheme_kind):
    report = analyze_family(family, degree, scheme_kind=scheme_kind)
    summary = audit_certificate(family, report, signals=2, points=10, seed=2026,
                                dt=0.01, horizon=2.0)
    faces = [boundary_invariance_check(family, rho)
             for rho in (1.0, report.rho_certified)]
    return report.to_json(), faces, json.dumps(summary.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("order", [_reversed, _shuffled], ids=["reversed", "shuffled"])
@pytest.mark.parametrize("case", FAMILIES)
def test_the_order_of_a_components_terms_changes_no_output(case, order):
    make, degree, scheme_kind = FAMILIES[case]
    family = make()
    other = permuted(family, order)
    assert any(
        list(c.items()) != order(list(c.items()), 100 * i + l)
        for i, f in enumerate(family) for l, c in enumerate(f.components)
    ), "the permutation moves no term"
    for f, g in zip(family, other):
        assert [list(c.items()) for c in g.components] == [
            list(c.items()) for c in f.components
        ]
        assert all(list(c) == sorted(c) for c in g.components)
    report, faces, summary = _outputs(family, degree, scheme_kind)
    assert json.loads(report)["certified"]
    assert _outputs(other, degree, scheme_kind) == (report, faces, summary)
