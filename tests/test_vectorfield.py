import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from koopman_clf.analysis import analyze_family
from koopman_clf.config import example1_config, example2_config
from koopman_clf.multiindex import order_key
from koopman_clf.switchsim import sample_initial_points
from koopman_clf.vectorfield import (
    FieldScratch,
    NonFiniteStateError,
    PolyVectorField,
    SwitchedFamily,
    boundary_invariance_check,
    flow_step,
    halton,
    lie_bracket,
    poly_mul,
)
from oracles import (
    coefficient,
    evaluate_batch,
    field_from_linear,
    field_step,
    reference_rk4,
)


def random_int_field(rng, n=2, degree=3, span=3):
    comps = []
    for _ in range(n):
        table = {}
        for _ in range(4):
            alpha = tuple(int(a) for a in rng.integers(0, degree + 1, n))
            if 0 < sum(alpha) <= degree:
                table[alpha] = float(rng.integers(-span, span + 1))
        if not table:
            table = {tuple(1 if c == 0 else 0 for c in range(n)): 1.0}
        comps.append(table)
    return PolyVectorField(comps)


def jacobian_fd(field, z, h=1e-5):
    # central differences; valid for polynomial fields with a real step
    n = field.dimension
    J = np.zeros((n, n), dtype=complex)
    for s in range(n):
        e = np.zeros(n, dtype=complex)
        e[s] = h
        J[:, s] = (field.evaluate(z + e) - field.evaluate(z - e)) / (2 * h)
    return J


# construction ---------------------------------------------------------------


def test_constant_terms_rejected():
    with pytest.raises(ValueError):
        PolyVectorField([{(0, 0): 1.0}, {(0, 1): -1.0}])


def test_zero_coefficients_dropped_and_merged():
    f = PolyVectorField([{(1, 0): 0.0, (2, 0): 1.0}, {(0, 1): 2.0, (0, 1): 2.0}])
    assert f.components[0] == {(2, 0): 1.0}
    assert coefficient(f, 1, (0, 1)) == 2.0
    assert coefficient(f, 0, (1, 0)) == 0j


def test_tail_l1_must_dominate_stored_sum():
    with pytest.raises(ValueError):
        PolyVectorField([{(1,): -1.0, (3,): 0.5}], tail_l1=[1.0])
    f = PolyVectorField([{(1,): -1.0, (3,): 0.5}], tail_l1=[1.5])
    assert f.l1_norm(0) == 1.5
    assert f.truncated


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, complex(0.0, math.nan), complex(-math.inf, 1.0)]
)
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(ValueError, match="not finite"):
        PolyVectorField([{(1, 0): -1.0, (2, 0): bad}, {(0, 1): -1.0}])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_tail_l1_is_rejected(bad):
    with pytest.raises(ValueError, match="not finite"):
        PolyVectorField([{(1,): -1.0, (3,): 0.5}], tail_l1=[bad])


def test_truncated_without_tail_warns_on_l1_query():
    f = PolyVectorField([{(1,): -1.0}], truncated=True)
    with pytest.warns(UserWarning):
        assert f.l1_norm(0) == 1.0


def test_from_linear_and_jacobian_roundtrip():
    A = np.array([[-1.0, 0.5 + 0.25j], [0.0, -2.0]])
    f = field_from_linear(A)
    assert np.allclose(f.jacobian_at_origin(), A)
    z = np.array([0.3, -0.2 + 0.1j])
    assert np.allclose(f.evaluate(z), A @ z)


def test_term_count_excluding_linear_diagonal():
    f = PolyVectorField(
        [{(1, 0): -1.0, (2, 0): 0.3, (1, 2): -0.3}, {(0, 1): -1.0, (1, 1): 0.15}]
    )
    assert f.term_count() == 5
    assert f.term_count(exclude_linear_diag=True) == 3


# evaluation -----------------------------------------------------------------


def test_evaluate_polynomial_pair_literal_point():
    a, b = 1.0, 0.3
    f = PolyVectorField(
        [
            {(1, 0): -a, (2, 0): b, (1, 2): -b},
            {(0, 1): -a, (1, 1): b / 2},
        ]
    )
    got = f.evaluate(np.array([0.2, 0.1]))
    assert abs(got[0] - (-0.1886)) < 1e-15
    assert abs(got[1] - (-0.097)) < 1e-15


def test_evaluate_batch_matches_single_points():
    rng = np.random.default_rng(5)
    f = random_int_field(rng, n=3)
    Z = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    assert_matches_reference(f, Z, 1e-13)
    for i in range(7):
        assert_matches_reference(f, Z[i : i + 1], 1e-13)
        assert np.array_equal(f.evaluate(Z[i]), f.evaluate(Z[i : i + 1])[0])


def test_evaluate_rejects_wrong_dimension():
    f = PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.0}])
    with pytest.raises(ValueError):
        f.evaluate(np.zeros(3))


# compiled evaluator against the per-component reference ---------------------


def _power_tables(zb, max_pow):
    """Per-coordinate tables zb[:, c] ** p for p = 0..max_pow."""
    B, n = zb.shape
    tables = []
    for c in range(n):
        t = np.empty((B, max_pow + 1), dtype=complex)
        t[:, 0] = 1
        for p in range(1, max_pow + 1):
            t[:, p] = t[:, p - 1] * zb[:, c]
        tables.append(t)
    return tables


def reference_evaluate(field, zb):
    """F at a (B, n) batch, one component at a time: per-coordinate power
    tables, each component's monomials gathered and contracted alone."""
    B, n = zb.shape
    keys = [sorted(c, key=order_key) for c in field.components]
    exps_l = [np.array(k, dtype=np.int64).reshape(len(k), n) for k in keys]
    coeffs_l = [
        np.array([c[a] for a in k], dtype=complex)
        for c, k in zip(field.components, keys)
    ]
    max_pow = max((int(e.max()) for e in exps_l if e.size), default=0)
    pows = _power_tables(zb, max_pow)
    out = np.empty((B, n), dtype=complex)
    for l in range(n):
        exps, coeffs = exps_l[l], coeffs_l[l]
        if coeffs.size == 0:
            out[:, l] = 0
            continue
        mono = pows[0][:, exps[:, 0]]
        for c in range(1, n):
            mono = mono * pows[c][:, exps[:, c]]
        out[:, l] = mono @ coeffs
    return out


def random_complex_field(rng, n, degree, linear_only=False):
    """Seeded complex field; components may be empty."""
    comps = []
    for _ in range(n):
        table = {}
        for _ in range(int(rng.integers(0, 13))):
            d = 1 if linear_only else int(rng.integers(1, degree + 1))
            alpha = tuple(int(a) for a in rng.multinomial(d, np.ones(n) / n))
            table[alpha] = complex(rng.normal(), rng.normal())
        comps.append(table)
    return PolyVectorField(comps)


def assert_matches_reference(f, Z, rtol):
    """Compiled and reference values agree to ``rtol`` times the sum of the
    absolute terms, so cancellation in a component can neither hide nor
    fake a difference."""
    got, want = f.evaluate(Z), reference_evaluate(f, Z)
    assert got.shape == want.shape == Z.shape
    absf = PolyVectorField([{a: abs(v) for a, v in c.items()} for c in f.components])
    scale = reference_evaluate(absf, np.abs(Z).astype(complex)).real
    assert np.all(np.abs(got - want) <= rtol * scale)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compiled_evaluator_matches_reference_on_random_fields(n):
    rng = np.random.default_rng(1000 + n)
    fields = [PolyVectorField([{}] * n), random_complex_field(rng, n, 1, True)]
    for degree in (1, 2, 3, 5, 8, 12, 16, 20):
        fields += [random_complex_field(rng, n, degree) for _ in range(4)]

    def points(B):
        return (rng.normal(size=(B, n)) + 1j * rng.normal(size=(B, n))) / np.sqrt(n)

    # 512 rows is one face of the boundary check, 2500 one subsystem's
    # share of a criterion-8 audit
    for f in fields:
        for B in (1, 2, 3, 7, 512, 2500, int(rng.integers(1, 160))):
            assert_matches_reference(f, points(B), 1e-13)
        Z = points(int(rng.integers(2, 160)))
        for view in (Z[::2], np.asfortranarray(Z), Z[:, ::-1]):
            assert_matches_reference(f, view, 1e-13)


@pytest.mark.parametrize("seed", [1, 2026, 7])
def test_compiled_evaluator_matches_reference_on_the_example_fields(seed):
    # batches like the audit's: up to 3 signals x 50 points, states
    # decaying.  Bitwise equality does not hold: BLAS rounds the one
    # (n, K) @ (K, B) product differently from per-component dot products,
    # in about 1% of the values for example1 and 13% for example2.  1e-14
    # covers the rounding of both sides' dot products of up to 21 terms.
    pts = sample_initial_points(2, 0.95, 150, seed)
    fields = [
        *example1_config(degree=12).build_family(),
        *example2_config(degree=20).build_family(),
        *example2_config(degree=40).build_family(),
    ]
    for f in fields:
        for radius in (1.0, 0.3, 1e-3):
            for B in (1, 50, 100, 150):
                assert_matches_reference(f, radius * pts[:B], 1e-14)


def reference_boundary_check(field, rho):
    """(holds, worst value, worst point) of the boundary check of one field:
    the check's 512 samples per face, built here one face at a time, and
    evaluated with ``reference_evaluate``."""
    n, count = field.dimension, 512
    index = np.arange(1, count + 1)
    primes = (2, 3, 5, 7, 11, 13)
    worst, worst_point = -np.inf, None
    for face in range(n):
        z = np.zeros((count, n), dtype=complex)
        z[:, face] = rho * np.exp(1j * (2.0 * np.pi * np.arange(count) / count))
        for slot, c in enumerate(c for c in range(n) if c != face):
            h_mod = halton(index, primes[2 * slot])
            h_arg = halton(index, primes[2 * slot + 1])
            z[:, c] = rho * np.sqrt(h_mod) * np.exp(2j * np.pi * h_arg)
        vals = np.real(reference_evaluate(field, z)[:, face] * np.conj(z[:, face]))
        i = int(np.argmax(vals))
        if vals[i] > worst:
            worst, worst_point = float(vals[i]), z[i]
    return worst < 0.0, worst, worst_point


def three_dimensional_pair():
    return SwitchedFamily([
        PolyVectorField([
            {(1, 0, 0): -1.0, (0, 1, 1): 0.2},
            {(0, 1, 0): -1.2, (0, 0, 2): 0.1 - 0.2j},
            {(0, 0, 1): -1.3},
        ]),
        PolyVectorField([
            {(1, 0, 0): -1.1, (0, 2, 0): 0.3},
            {(0, 1, 0): -1.0, (1, 0, 1): 0.2j},
            {(0, 0, 1): -1.25, (0, 0, 3): 0.3},
        ]),
    ])


@pytest.mark.parametrize(
    "case,rel",
    [("example1", 0.0), ("example2", 1e-14), ("three-dimensional", 1e-14)],
)
def test_boundary_check_matches_the_reference_evaluator(case, rel):
    if case == "three-dimensional":
        family, rho = three_dimensional_pair(), 0.8
    else:
        config, kind = {
            "example1": (example1_config(degree=12), "polynomial"),
            "example2": (example2_config(degree=20), "diagonal_dominance"),
        }[case]
        family = config.build_family()
        rho = analyze_family(family, config.truncation_degree, kind).rho_certified
    got = boundary_invariance_check(family, rho)
    assert len(got) == len(family)
    for g, f in zip(got, family):
        holds, worst, worst_point = reference_boundary_check(f, rho)
        assert (g.holds, g.samples, g.rho) == (holds, f.dimension * 512, rho)
        assert np.array_equal(g.worst_point, worst_point)
        assert g.worst_value == pytest.approx(worst, rel=rel, abs=0.0)


# points-last kernel against the evaluator it replaced ----------------------


def polydisk_points(rng, n, B, radius):
    """B seeded points with moduli up to ``radius`` and arbitrary phases."""
    mod = radius * np.sqrt(rng.uniform(size=(B, n)))
    return mod * np.exp(2j * np.pi * rng.uniform(size=(B, n)))


def example_fields():
    return [
        *example1_config(degree=20).build_family(),
        *example2_config(degree=20).build_family(),
        *example2_config(degree=40).build_family(),
    ]


def random_fields(n):
    """The fields of test_compiled_evaluator_matches_reference_on_random_fields."""
    rng = np.random.default_rng(1000 + n)
    fields = [PolyVectorField([{}] * n), random_complex_field(rng, n, 1, True)]
    for degree in (1, 2, 3, 5, 8, 12, 16, 20):
        fields += [random_complex_field(rng, n, degree) for _ in range(4)]
    return fields


def layouts(Z):
    """Strided, Fortran-ordered and column-reversed views of a batch."""
    return Z[::2], np.asfortranarray(Z), Z[:, ::-1]


@pytest.mark.parametrize("seed", [1, 2026])
def test_kernel_matches_the_old_evaluator_bitwise_on_the_example_fields(seed):
    rng = np.random.default_rng(seed)
    for f in example_fields():
        for radius in (1.0, 0.3, 1e-3):
            Z = polydisk_points(rng, 2, 2500, radius)
            for B in (2, 3, 7, 50, 150, 512, 2500):
                assert np.array_equal(f.evaluate(Z[:B]), evaluate_batch(f, Z[:B]))
            for view in layouts(Z[:150]):
                assert np.array_equal(f.evaluate(view), evaluate_batch(f, view))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_matches_the_old_evaluator_on_random_fields(n):
    # The power table and the monomials are the old evaluator's, operation
    # for operation; only the contraction differs, (n, K) @ (K, B) against
    # (B, K) @ (K, n).  BLAS sums both in the same order when the
    # coefficients are real, n >= 2 and B >= 2, so those values are equal
    # bit for bit.  Complex coefficients change the order in which it adds
    # the real and imaginary partial products, and n = 1 or B = 1 is a
    # matrix-vector product in another orientation; those agree within
    # the rounding of a K-term sum.
    rng = np.random.default_rng(2000 + n)
    for f in random_fields(n):
        real = PolyVectorField(
            [{a: v.real for a, v in c.items()} for c in f.components]
        )
        absf = PolyVectorField(
            [{a: abs(v) for a, v in c.items()} for c in f.components]
        )
        for B in (1, 2, 3, 7, 512, 2500, int(rng.integers(2, 160))):
            Z = polydisk_points(rng, n, B, 1.0)
            scale = evaluate_batch(absf, np.abs(Z).astype(complex)).real
            assert np.all(np.abs(f.evaluate(Z) - evaluate_batch(f, Z)) <= 1e-13 * scale)
            if n >= 2 and B >= 2:
                assert np.array_equal(real.evaluate(Z), evaluate_batch(real, Z))
        Z = polydisk_points(rng, n, 150, 1.0)
        for g in (f, real):
            for view in layouts(Z):
                assert np.array_equal(g.evaluate(view), g.evaluate(view.copy()))
                assert np.array_equal(
                    field_step(g, view, 0.01), field_step(g, view.copy(), 0.01)
                )


def test_flow_step_on_one_point_is_the_batch_of_one():
    rng = np.random.default_rng(9)
    fields = example_fields() + random_fields(2)[::5] + random_fields(3)[::5]
    for f in fields:
        z = polydisk_points(rng, f.dimension, 1, 0.9)[0]
        assert np.array_equal(field_step(f, z, 0.01), field_step(f, z[None], 0.01)[0])
        assert np.array_equal(f.evaluate(z), f.evaluate(z[None])[0])


# scratch ownership ----------------------------------------------------------


def test_flow_step_results_do_not_alias_the_scratch():
    rng = np.random.default_rng(13)
    f = example2_config(degree=20).build_family()[1]
    Z1, Z2 = polydisk_points(rng, 2, 64, 0.5), polydisk_points(rng, 2, 40, 0.5)
    scratch, other = FieldScratch(f, 64), FieldScratch(f, 40)
    first = flow_step(scratch, Z1, 0.01)
    kept = first.copy()
    second = flow_step(other, Z2, 0.02)
    flow_step(scratch, Z1[::-1], 0.03)  # the next step overwrites the scratch
    assert np.array_equal(first, kept)
    for out, owner in ((first, scratch), (second, other)):
        arrays = [a for a in vars(owner).values() if isinstance(a, np.ndarray)]
        assert not any(np.shares_memory(out, a) for a in arrays)
    assert np.array_equal(first, field_step(f, Z1, 0.01))
    assert np.array_equal(second, field_step(f, Z2, 0.02))


def test_flow_step_never_writes_its_input():
    rng = np.random.default_rng(17)
    f = example1_config().build_family()[1]
    ZT = np.ascontiguousarray(polydisk_points(rng, 2, 50, 0.9).T)
    for Z in (ZT.T, np.ascontiguousarray(ZT.T), ZT.T[::3]):
        before = Z.copy()
        scratch = FieldScratch(f, len(Z))
        flow_step(scratch, Z, 0.01)
        flow_step(scratch, Z, np.full((len(Z), 1), 0.01))
        assert np.array_equal(Z, before)


def test_flow_step_writes_out_in_place_and_keeps_it_on_blowup():
    rng = np.random.default_rng(19)
    f = example1_config().build_family()[1]
    ZT = np.ascontiguousarray(polydisk_points(rng, 2, 30, 0.9).T)
    want = field_step(f, ZT.T, 0.01)
    got = flow_step(FieldScratch(f, 30), ZT.T, 0.01, out=ZT.T)
    assert np.shares_memory(got, ZT) and np.array_equal(ZT.T, want)
    grow = PolyVectorField([{(3,): 1.0}])
    z = np.array([[0.5 + 0j], [1e160 + 0j]])
    before = z.copy()
    with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError):
        flow_step(FieldScratch(grow, 2), z, 1.0, out=z)
    assert np.array_equal(z, before)


def test_flow_step_and_evaluate_take_an_empty_batch():
    f = example1_config().build_family()[1]
    empty = np.zeros((0, 2), dtype=complex)
    assert f.evaluate(empty).shape == (0, 2)
    assert flow_step(FieldScratch(f, 0), empty, 0.01).shape == (0, 2)


def test_flow_step_with_a_scratch_allocates_no_batch_sized_array():
    rng = np.random.default_rng(23)
    f = example1_config().build_family()[1]
    B = 2500
    ZT = np.ascontiguousarray(polydisk_points(rng, 2, B, 0.9).T)
    scratch = FieldScratch(f, B)
    flow_step(scratch, ZT.T, 0.01, out=ZT.T)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            flow_step(scratch, ZT.T, 0.01, out=ZT.T)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < ZT.nbytes / 4  # the finiteness mask is an eighth of the batch


# one family step against per-subsystem steps -------------------------------


def random_family(rng, S, n, degree, real):
    fields = [random_complex_field(rng, n, degree) for _ in range(S)]
    if real:
        fields = [
            PolyVectorField([{a: v.real for a, v in c.items()} for c in f.components])
            for f in fields
        ]
    return SwitchedFamily(fields)


def assert_family_step_is_per_subsystem_steps(family, rng, sizes, gathered_exact,
                                              radius=0.9):
    """One step over the whole family, for rows of mixed, lone and
    one-row-per-subsystem selections, against ``flow_step`` of each
    subsystem's own field, with one step for all rows and with per-row
    steps; each batch size has its own scratch, which serves every
    selection.

    On the whole batch, the subsystem's own step agrees bit for bit on
    its rows.  On its rows alone it agrees bit for bit where
    ``gathered_exact(rows)`` holds.  Elsewhere, with complex coefficients,
    it agrees only to 1e-13 of the step's sum of absolute terms,
    |z| + h |F|(|z|) with |F| the field of absolute coefficients, and the
    family step misses exact agreement with the subsystem's step on its
    rows alone: BLAS rounds a complex K-term product by the point's
    position in the batch.
    """
    S, n = len(family), family.dimension
    absf = [
        PolyVectorField([{a: abs(v) for a, v in c.items()} for c in f.components])
        for f in family
    ]
    for B in sizes:
        scratch = FieldScratch(family, B)
        Z = polydisk_points(rng, n, B, radius)
        per_row = rng.uniform(0.001, 0.02, (B, 1))
        for sub in (rng.integers(0, S, B), np.full(B, S - 1), np.arange(B) % S):
            scratch.select(sub)
            for dt in (0.01, per_row):
                got = flow_step(scratch, Z, dt)
                for i in range(S):
                    rows = np.flatnonzero(sub == i)
                    if not len(rows):
                        continue
                    whole = field_step(family[i], Z, dt)[rows]
                    assert np.array_equal(got[rows], whole)
                    h = dt if np.ndim(dt) == 0 else dt[rows]
                    alone = field_step(family[i], Z[rows], h)
                    if gathered_exact(rows):
                        assert np.array_equal(got[rows], alone)
                    else:
                        modulus = np.abs(Z[rows])
                        size = absf[i].evaluate(modulus.astype(complex)).real
                        scale = modulus + np.abs(h) * size
                        assert np.all(np.abs(got[rows] - alone) <= 1e-13 * scale)


@pytest.mark.parametrize("seed", [1, 2026])
def test_family_step_is_the_per_subsystem_step_on_the_examples(seed):
    rng = np.random.default_rng(seed)
    sizes = (1, 2, 3, 7, 50, 150, 512, 2500)
    for family in (example1_config().build_family(),
                   example2_config(degree=20).build_family()):
        for radius in (0.9, 1e-3):
            assert_family_step_is_per_subsystem_steps(
                family, rng, sizes, lambda rows: True, radius
            )


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("n", [2, 3])
def test_family_step_is_the_per_subsystem_step_on_random_families(n, real):
    rng = np.random.default_rng(3000 + 10 * n + real)
    for S in (2, 3, 2, 3):
        family = random_family(rng, S, n, int(rng.integers(1, 9)), real)
        sizes = (1, 2, 5, int(rng.integers(8, 160)), 2500)
        assert_family_step_is_per_subsystem_steps(
            family, rng, sizes, lambda rows: real
        )


def assert_steps_are_the_reference_rk4(family, rng, B, radius):
    """Steps of one scratch of B rows equal ``reference_rk4`` bit for bit:
    under one field for every row, given as an index and as an array,
    and under mixed selections that change on the same scratch; each with
    a scalar step, per-row steps and another scalar step."""
    S, n = len(family), family.dimension
    scratch = FieldScratch(family, B)
    Z = polydisk_points(rng, n, B, radius)
    per_row = rng.uniform(0.001, 0.02, (B, 1))
    selections = [*range(S), np.full(B, S - 1), np.arange(B) % S,
                  *(rng.integers(0, S, B) for _ in range(3))]
    for sub in selections:
        scratch.select(sub)
        for dt in (0.01, per_row, 0.013):
            want = reference_rk4(family, sub, Z, dt)
            assert np.array_equal(flow_step(scratch, Z, dt), want)


@pytest.mark.parametrize("seed", [1, 2026])
def test_the_planned_step_is_the_reference_rk4_on_the_examples(seed):
    rng = np.random.default_rng(seed)
    for family in (example1_config().build_family(),
                   example2_config(degree=20).build_family()):
        for B in (2, 7, 150):
            for radius in (0.9, 1e-3):
                assert_steps_are_the_reference_rk4(family, rng, B, radius)


@pytest.mark.parametrize("n", [2, 3])
def test_the_planned_step_is_the_reference_rk4_on_random_real_families(n):
    # real coefficients: BLAS rounds the scratch's (n, K) @ (K, B) product
    # and the reference's (B, K) @ (K, n) one alike
    rng = np.random.default_rng(4000 + n)
    for S in (1, 2, 3):
        family = random_family(rng, S, n, int(rng.integers(1, 9)), real=True)
        for B in (2, 5, int(rng.integers(8, 160))):
            assert_steps_are_the_reference_rk4(family, rng, B, 0.9)


def test_a_lone_row_steps_as_it_does_inside_a_batch():
    # a one-row scratch contracts over a padding column at the origin, so
    # its coefficient product is not numpy's matrix-vector one, which
    # rounds otherwise; each of 7 rows is stepped alone for 100 steps
    f = PolyVectorField([{(1, 0): 0.6, (0, 1): 0.2}, {(0, 1): 1.1}])
    rng = np.random.default_rng(29)
    Z = polydisk_points(rng, 2, 7, 0.9)
    for dt in (0.01, rng.uniform(0.001, 0.02, (7, 1))):
        batch, alone = Z.copy(), Z.copy()
        for _ in range(100):
            batch = field_step(f, batch, dt)
            for i in range(7):
                h = dt if np.ndim(dt) == 0 else dt[i:i + 1]
                alone[i:i + 1] = field_step(f, alone[i:i + 1], h)
            assert np.array_equal(alone.view(np.uint64), batch.view(np.uint64))
        assert np.array_equal(f.evaluate(Z[0]).view(np.uint64),
                              f.evaluate(Z)[0].view(np.uint64))


def test_select_refuses_what_is_not_a_subsystem_index():
    family = example1_config().build_family()
    Z = np.full((3, 2), 0.1 + 0j)
    scratch = FieldScratch(family, 3).select(np.array([0, 1, 1]))
    want = flow_step(scratch, Z, 0.01)
    for sub, name in ((2, "2"), (-1, "-1"), (0.5, "0.5"), (True, "True"),
                      (np.array([0, 2, 1]), "2"), (np.array([1, 0, -1]), "-1"),
                      (np.array([1.0, 0.5, 0.0]), "1.0")):
        with pytest.raises(ValueError, match=(
            rf"^subsystem index {name} is not an integer in \[0, 2\)$"
        )):
            scratch.select(sub)
    # the refusals leave the selection as it was
    assert np.array_equal(flow_step(scratch, Z, 0.01), want)


def test_family_scratch_needs_a_selection_for_every_batch_size():
    family = example1_config().build_family()
    Z = np.full((4, 2), 0.1 + 0j)
    with pytest.raises(ValueError, match="no field is selected"):
        flow_step(FieldScratch(family, 4), Z, 0.01)  # a new scratch has none
    scratch = FieldScratch(family, 4).select(np.array([0, 1, 1, 0]))
    flow_step(scratch, Z, 0.01)
    small = FieldScratch(family, 3)
    with pytest.raises(ValueError, match="no field is selected"):
        flow_step(small, Z[:3], 0.01)
    small.select(1)  # one field for every row
    assert np.array_equal(flow_step(small, Z[:3], 0.01),
                          field_step(family[1], Z[:3], 0.01))


def test_scratch_refuses_a_batch_of_another_size():
    family = example1_config().build_family()
    Z = np.full((4, 2), 0.1 + 0j)
    scratch = FieldScratch(family, 4).select(np.array([0, 1, 1, 0]))
    want = flow_step(scratch, Z, 0.01)
    with pytest.raises(ValueError, match=r"^scratch holds 4 rows, not 3$"):
        flow_step(scratch, Z[:3], 0.01)
    with pytest.raises(ValueError, match=r"^scratch holds 4 rows, not 5$"):
        scratch.select(np.array([0, 1, 1, 0, 1]))
    with pytest.raises(ValueError, match=r"^scratch holds 4 rows, not 1$"):
        flow_step(FieldScratch(family[0], 4), Z[0], 0.01)
    # the refusals leave the selection as it was
    assert np.array_equal(flow_step(scratch, Z, 0.01), want)


# bracket --------------------------------------------------------------------


def test_poly_mul_drops_terms_that_cancel_exactly():
    # (x + y)(x - y) = x^2 - y^2: the two xy products cancel
    got = poly_mul({(1, 0): 1.0, (0, 1): 1.0}, {(1, 0): 1.0, (0, 1): -1.0})
    assert got == {(2, 0): 1.0, (0, 2): -1.0}
    assert list(got) == [(2, 0), (0, 2)]


def test_bracket_of_scaling_and_quadratic_pair():
    # F = (-0.7 x1, -0.7 x2), G = (-b x1 + 1.3 (x1^2 - x2^2), -b x2 + 2.6 x1 x2)
    # [F, G] = (-0.91 (x1^2 - x2^2), -1.82 x1 x2); the linear part cancels.
    alpha, gamma = 0.7, 1.3
    beta = 0.4
    F = PolyVectorField([{(1, 0): -alpha}, {(0, 1): -alpha}])
    G = PolyVectorField(
        [
            {(1, 0): -beta, (2, 0): gamma, (0, 2): -gamma},
            {(0, 1): -beta, (1, 1): 2 * gamma},
        ]
    )
    br = lie_bracket(F, G)
    assert br.components[0] == {(2, 0): -alpha * gamma, (0, 2): alpha * gamma}
    assert br.components[1] == {(1, 1): -2 * alpha * gamma}


def test_bracket_matches_finite_difference_jacobians():
    rng = np.random.default_rng(17)
    for _ in range(5):
        F = random_int_field(rng)
        G = random_int_field(rng)
        br = lie_bracket(F, G)
        for _ in range(3):
            z = 0.4 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            want = jacobian_fd(G, z) @ F.evaluate(z) - jacobian_fd(F, z) @ G.evaluate(z)
            got = br.evaluate(z)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) < 1e-6 * scale


def test_bracket_is_antisymmetric_and_bilinear():
    rng = np.random.default_rng(23)
    for _ in range(10):
        F = random_int_field(rng)
        G = random_int_field(rng)
        H = random_int_field(rng)
        fg = lie_bracket(F, G)
        gf = lie_bracket(G, F)
        for l in range(2):
            assert fg.components[l] == {k: -v for k, v in gf.components[l].items()}
        # [F+H, G] = [F, G] + [H, G] checked pointwise
        FplusH = PolyVectorField(
            [
                {
                    k: F.components[l].get(k, 0) + H.components[l].get(k, 0)
                    for k in set(F.components[l]) | set(H.components[l])
                }
                for l in range(2)
            ]
        )
        left = lie_bracket(FplusH, G)
        right_h = lie_bracket(H, G)
        z = 0.3 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        assert np.allclose(
            left.evaluate(z), fg.evaluate(z) + right_h.evaluate(z), atol=1e-12
        )


def test_bracket_jacobi_identity():
    rng = np.random.default_rng(31)
    for _ in range(5):
        F = random_int_field(rng, degree=2)
        G = random_int_field(rng, degree=2)
        H = random_int_field(rng, degree=2)
        t1 = lie_bracket(F, lie_bracket(G, H))
        t2 = lie_bracket(G, lie_bracket(H, F))
        t3 = lie_bracket(H, lie_bracket(F, G))
        for _ in range(3):
            z = 0.3 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            s = t1.evaluate(z) + t2.evaluate(z) + t3.evaluate(z)
            assert np.max(np.abs(s)) < 1e-9


def test_bracket_of_linear_fields_is_matrix_commutator():
    rng = np.random.default_rng(41)
    for _ in range(10):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        br = lie_bracket(field_from_linear(A), field_from_linear(B))
        assert np.allclose(br.jacobian_at_origin(), B @ A - A @ B, atol=1e-12)


# integration ----------------------------------------------------------------


def integrate_flow(field, z0, t_final, dt=1e-3):
    """Integrate a single field to t_final; the last step is shortened."""
    if t_final < 0 or dt <= 0:
        raise ValueError("need t_final >= 0 and dt > 0")
    z = np.asarray(z0, dtype=complex)
    t = 0.0
    while t < t_final - 1e-15:
        h = min(dt, t_final - t)
        z = field_step(field, z, h)
        t += h
    return z


def test_rk4_matches_exponential_decay():
    f = PolyVectorField([{(1,): -1.0}])
    z = integrate_flow(f, np.array([1.0 + 0j]), 1.0, dt=1e-3)
    assert abs(z[0] - np.exp(-1.0)) < 1e-9


def test_rk4_order_via_step_halving():
    f = PolyVectorField([{(1,): -1.0, (3,): 0.25}])
    exact = integrate_flow(f, np.array([0.8 + 0j]), 1.0, dt=1e-4)
    e1 = abs(integrate_flow(f, np.array([0.8 + 0j]), 1.0, dt=0.05)[0] - exact[0])
    e2 = abs(integrate_flow(f, np.array([0.8 + 0j]), 1.0, dt=0.025)[0] - exact[0])
    assert 10.0 < e1 / e2 < 22.0  # fourth order: factor ~16


def test_flow_matches_matrix_exponential():
    rng = np.random.default_rng(3)
    A = -np.eye(2) + 0.4 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    f = field_from_linear(A)
    z0 = np.array([0.5, -0.3 + 0.2j])
    got = integrate_flow(f, z0, 2.0, dt=1e-3)
    want = expm(2.0 * A) @ z0
    assert np.max(np.abs(got - want)) < 1e-8


def test_integrate_flow_zero_horizon_returns_start():
    f = PolyVectorField([{(1,): -1.0}])
    z0 = np.array([0.3 + 0.1j])
    assert np.array_equal(integrate_flow(f, z0, 0.0), z0)


def test_integrate_flow_validates_arguments():
    f = PolyVectorField([{(1,): -1.0}])
    with pytest.raises(ValueError):
        integrate_flow(f, np.array([1.0]), -1.0)
    with pytest.raises(ValueError):
        integrate_flow(f, np.array([1.0]), 1.0, dt=0.0)


def test_flow_step_per_row_steps_match_scalar_steps():
    rng = np.random.default_rng(5)
    f = random_int_field(rng)
    Z = 0.3 * (rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2)))
    h = rng.uniform(0.001, 0.1, size=7)
    got = field_step(f, Z, h[:, None])
    for i in range(7):
        assert np.array_equal(got[i], field_step(f, Z, float(h[i]))[i])


def test_flow_step_does_not_depend_on_the_memory_layout():
    rng = np.random.default_rng(11)
    f = random_complex_field(rng, 3, 5)
    Z = 0.3 * (rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3)))
    h = rng.uniform(0.001, 0.1, size=(40, 1))
    F = np.asfortranarray(Z)
    assert not F.flags.c_contiguous
    for dt in (0.01, h):
        assert np.array_equal(field_step(f, F, dt), field_step(f, Z, dt))


def test_flow_step_checks_the_point_dimension():
    f = PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.0, (1, 1): 0.5}])
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), np.zeros(())):
        with pytest.raises(ValueError, match="dimension"):
            field_step(f, bad, 0.01)
    z = np.array([0.3 + 0.1j, -0.2j])
    one = field_step(f, z, 0.01)
    assert one.shape == (2,)
    assert np.array_equal(one, field_step(f, z[None, :], 0.01)[0])


def test_flow_step_raises_on_blowup():
    f = PolyVectorField([{(3,): 1.0}])
    with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError):
        field_step(f, np.array([1e160 + 0j]), 1.0)


# halton ---------------------------------------------------------------------


def test_halton_base2_and_base3_prefixes():
    assert [halton(i, 2) for i in (1, 2, 3, 4)] == [0.5, 0.25, 0.75, 0.125]
    assert np.allclose(
        [halton(i, 3) for i in (1, 2, 3)], [1 / 3, 2 / 3, 1 / 9]
    )


def scalar_halton(index, base):
    result, f = 0.0, 1.0
    i = index
    while i > 0:
        f /= base
        result += f * (i % base)
        i //= base
    return result


@pytest.mark.parametrize("base", [2, 3, 5, 7, 37])
def test_halton_batch_matches_the_scalar_recursion(base):
    index = np.arange(0, 3000)
    want = [scalar_halton(int(i), base) for i in index]
    assert halton(index, base).tolist() == want
    assert halton(index[::-7], base).tolist() == want[::-7]


# boundary test --------------------------------------------------------------


def test_boundary_inward_for_diagonal_contraction():
    f = PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.0}])
    [rep] = boundary_invariance_check([f], 0.9)
    assert rep.holds
    # Re(-z conj(z)) = -rho^2 on every sample of the tested face
    assert abs(rep.worst_value - (-0.81)) < 1e-14
    assert rep.samples == 2 * 512


def test_boundary_detects_outward_component():
    f = PolyVectorField([{(1, 0): 1.0}, {(0, 1): -1.0}])
    [rep] = boundary_invariance_check([f], 0.5)
    assert not rep.holds
    assert abs(rep.worst_value - 0.25) < 1e-14
    assert abs(abs(rep.worst_point[0]) - 0.5) < 1e-14


def test_boundary_rejects_bad_arguments():
    f = PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.0}])
    with pytest.raises(ValueError):
        boundary_invariance_check([f], 1.5)
    with pytest.raises(ValueError):
        boundary_invariance_check([f], 0.0)


# family ---------------------------------------------------------------------


def test_family_checks_dimensions_and_iterates():
    f1 = PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.0}])
    f2 = PolyVectorField([{(1, 0): -2.0}, {(0, 1): -2.0}])
    fam = SwitchedFamily([f1, f2])
    assert len(fam) == 2 and fam[1] is f2
    assert [f.dimension for f in fam] == [2, 2]
    with pytest.raises(ValueError):
        SwitchedFamily([f1, PolyVectorField([{(1,): -1.0}])])
    with pytest.raises(ValueError):
        SwitchedFamily([])
