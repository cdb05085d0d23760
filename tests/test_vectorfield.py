import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from koopman_clf.analysis import _region, analyze_family, substitute_linear
from koopman_clf.config import example1_config, example2_config
from koopman_clf.kernels import FieldScratch, flow_step
from koopman_clf.multiindex import order_key
from koopman_clf.switchsim import (
    NonFiniteStateError,
    SwitchingSignal,
    halton,
    integrate_switched,
    sample_initial_points,
)
from koopman_clf.vectorfield import (
    PolyVectorField,
    SwitchedFamily,
    boundary_invariance_check,
    poly_mul,
)
from oracles import (
    coefficient,
    evaluate_batch,
    field_from_linear,
    field_scratch,
    field_step,
    field_values,
    lie_bracket,
    reference_rk4,
    unit_clf,
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
        J[:, s] = (field_values(field, z + e) - field_values(field, z - e)) / (2 * h)
    return J


# construction ---------------------------------------------------------------


def test_constant_terms_rejected():
    with pytest.raises(ValueError):
        PolyVectorField([{(0, 0): 1.0}, {(0, 1): -1.0}])


@pytest.mark.parametrize("component", [0, 1])
def test_exponents_past_int64_are_rejected(component):
    # the generator matrix holds its index shifts in int64
    comps = [{(1, 0): -1.0}, {(0, 1): -1.0}]
    comps[component][(2**63 - 1, 0)] = 0.1
    assert len(PolyVectorField(comps).components[component]) == 2
    comps[component][(2**63, 0)] = 0.1
    with pytest.raises(ValueError, match=r"^exponent in \(9223372036854775808, 0\) "
                       r"is above 2\*\*63 - 1$"):
        PolyVectorField(comps)


@pytest.mark.parametrize("exponent", [2.9, True, 2.0])
def test_exponents_that_are_not_integers_are_rejected(exponent):
    # int() would store 2.9 and 2.0 as 2, True as 1, each summed into any
    # term already there; numpy integers are accepted
    comps = [{(1, 0): -1.0, (np.int64(2), 1): 0.5}, {(0, 1): -1.0}]
    assert PolyVectorField(comps).components[0] == {(1, 0): -1.0, (2, 1): 0.5}
    comps[0][(1, exponent)] = 0.25
    with pytest.raises(ValueError, match=re.escape(
            f"exponent (1, {exponent!r}) must hold integers, got {exponent!r}")):
        PolyVectorField(comps)


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
    assert np.allclose(field_values(f, z), A @ z)


def test_coupling_count_excludes_the_linear_diagonal():
    f = PolyVectorField(
        [{(1, 0): -1.0, (0, 1): 0.4, (2, 0): 0.3, (1, 2): -0.3},
         {(0, 1): -1.0, (1, 1): 0.15}]
    )
    assert sum(len(c) for c in f.components) == 6
    assert f.coupling_count() == 4


# evaluation -----------------------------------------------------------------


def test_evaluate_polynomial_pair_literal_point():
    a, b = 1.0, 0.3
    f = PolyVectorField(
        [
            {(1, 0): -a, (2, 0): b, (1, 2): -b},
            {(0, 1): -a, (1, 1): b / 2},
        ]
    )
    got = field_values(f, np.array([0.2, 0.1]))
    assert abs(got[0] - (-0.1886)) < 1e-15
    assert abs(got[1] - (-0.097)) < 1e-15


def test_evaluate_batch_matches_single_points():
    rng = np.random.default_rng(5)
    f = random_int_field(rng, n=3)
    Z = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    assert_matches_reference(f, Z, 1e-13)
    for i in range(7):
        assert_matches_reference(f, Z[i : i + 1], 1e-13)
        assert np.array_equal(field_values(f, Z[i]), field_values(f, Z[i : i + 1])[0])


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
    got, want = field_values(f, Z), reference_evaluate(f, Z)
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

    # 2500 rows is one subsystem's share of a criterion-8 audit
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


def reference_boundary_check(field, rho, count=512):
    """The largest sampled Re(conj(z_l) F_l(z)) on each face |z_l| = rho,
    evaluated with ``reference_evaluate``: ``count`` points on a uniform
    phase grid in z_l, paired with a Halton fill of the other coordinates
    inside the polydisk, and the same points with those coordinates moved
    out to modulus rho, where a sum of moduli is reached."""
    n = field.dimension
    index = np.arange(1, count + 1)
    primes = (2, 3, 5, 7, 11, 13)
    worst = []
    for face in range(n):
        z = np.zeros((2 * count, n), dtype=complex)
        z[:, face] = rho * np.exp(1j * (2.0 * np.pi * np.arange(2 * count) / count))
        for slot, c in enumerate(c for c in range(n) if c != face):
            h_mod = halton(index, primes[2 * slot])
            phase = np.exp(2j * np.pi * halton(index, primes[2 * slot + 1]))
            z[:count, c] = rho * np.sqrt(h_mod) * phase
            z[count:, c] = rho * phase
        vals = np.real(reference_evaluate(field, z)[:, face] * np.conj(z[:, face]))
        worst.append(float(vals.max()))
    return worst


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


@pytest.mark.parametrize("case", ["example1", "example2", "three-dimensional"])
def test_face_bounds_are_never_below_the_reference_samples(case):
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
    for bounds, f in zip(got, family):
        samples = reference_boundary_check(f, rho)
        assert len(bounds) == f.dimension
        assert all(b >= v for b, v in zip(bounds, samples)), (bounds, samples)
        # and never far above them: every face here is within 10 %
        assert all(b <= 0.9 * v for b, v in zip(bounds, samples)), (bounds, samples)


@st.composite
def triangular_fields(draw):
    """A field with an upper-triangular linear part, up to three more terms
    per component of degree >= 2 and at most 3 in each coordinate, and
    sometimes a tail_l1 above the stored sums."""
    n = draw(st.sampled_from([2, 3]))
    coeff = st.complex_numbers(
        max_magnitude=2.0, allow_nan=False, allow_infinity=False
    )
    exponents = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
        lambda a: sum(a) >= 2
    )
    comps = []
    for l in range(n):
        table = {tuple(int(c == r) for c in range(n)): draw(coeff)
                 for r in range(l, n)}
        for alpha in draw(st.lists(exponents, max_size=3)):
            table[tuple(alpha)] = draw(coeff)
        comps.append(table)
    field = PolyVectorField(comps)
    extra = draw(st.none() | st.lists(
        st.floats(0.0, 1.0), min_size=n, max_size=n
    ))
    if extra is None:
        return field
    tail = [field.stored_l1[l] + e for l, e in enumerate(extra)]
    return PolyVectorField(comps, tail_l1=tail)


@settings(max_examples=40, deadline=None)
@given(field=triangular_fields(), rho=st.floats(0.05, 1.0))
# an imaginary c_l, whose face value 0 evaluates to about +-1e-17, and a
# coefficient whose bound underflows
@example(field=PolyVectorField([{(1, 0): 0.7j}, {(0, 1): -1.3j}]), rho=1.0)
@example(field=PolyVectorField([{}, {(0, 1): 2.2250738585072014e-308}]), rho=0.25)
def test_face_bounds_dominate_dense_face_samples(field, rho):
    [bounds] = boundary_invariance_check([field], rho)
    samples = reference_boundary_check(field, rho, count=2048)
    assert all(b >= v for b, v in zip(bounds, samples)), (bounds, samples)
    # and does not depend on the order in which the terms are stored
    reordered = PolyVectorField(
        [dict(reversed(c.items())) for c in field.components], field.tail_l1
    )
    assert boundary_invariance_check([reordered], rho) == [bounds]


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


def one_field_rk4(field_, Z, dt):
    """``reference_rk4`` of the batch Z under the one field."""
    return reference_rk4([field_], np.zeros(len(Z), dtype=int), Z, dt)


@pytest.mark.parametrize("seed", [1, 2026])
def test_kernel_matches_the_old_evaluator_bitwise_on_the_example_fields(seed):
    # the step's four evaluations are the old evaluator's, bit for bit, on
    # batches of every size and on views of any layout
    rng = np.random.default_rng(seed)
    for f in example_fields():
        for radius in (1.0, 0.3, 1e-3):
            Z = polydisk_points(rng, 2, 2500, radius)
            for B in (2, 3, 7, 50, 150, 512, 2500):
                assert np.array_equal(field_step(f, Z[:B], 0.01),
                                      one_field_rk4(f, Z[:B], 0.01))
            for view in layouts(Z[:150]):
                assert np.array_equal(field_step(f, view, 0.01),
                                      one_field_rk4(f, view, 0.01))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_matches_the_old_evaluator_on_random_fields(n):
    # The power table and the monomials are the old evaluator's, operation
    # for operation; only the contraction differs, (n, K) @ (K, B) against
    # (B, K) @ (K, n).  BLAS sums both in the same order when the
    # coefficients are real, n >= 2 and B >= 2, so those steps are equal
    # bit for bit.  Complex coefficients change the order in which it adds
    # the real and imaginary partial products, and n = 1 is a
    # matrix-vector product in another orientation; those agree within
    # the rounding of the step's sum of absolute terms, |z| + h |F|(|z|).
    # A step reads its batch as it is given: strided, Fortran-ordered and
    # column-reversed views step as their contiguous copies do.
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
            modulus = np.abs(Z)
            scale = modulus + 0.01 * evaluate_batch(absf, modulus.astype(complex)).real
            diff = field_step(f, Z, 0.01) - one_field_rk4(f, Z, 0.01)
            assert np.all(np.abs(diff) <= 1e-13 * scale)
            if n >= 2 and B >= 2:
                assert np.array_equal(field_step(real, Z, 0.01),
                                      one_field_rk4(real, Z, 0.01))
        Z = polydisk_points(rng, n, 150, 1.0)
        for g in (f, real):
            for view in layouts(Z):
                assert np.array_equal(
                    field_step(g, view, 0.01), field_step(g, view.copy(), 0.01)
                )


# scratch ownership ----------------------------------------------------------


def test_flow_step_results_do_not_alias_the_scratch():
    rng = np.random.default_rng(13)
    f = example2_config(degree=20).build_family()[1]
    Z1, Z2 = polydisk_points(rng, 2, 64, 0.5), polydisk_points(rng, 2, 40, 0.5)
    scratch, other = field_scratch(f, 64), field_scratch(f, 40)
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
        scratch = field_scratch(f, len(Z))
        flow_step(scratch, Z, 0.01)
        flow_step(scratch, Z, np.full((len(Z), 1), 0.01))
        assert np.array_equal(Z, before)


def test_flow_step_writes_out_in_place_on_a_blowup_too():
    rng = np.random.default_rng(19)
    f = example1_config().build_family()[1]
    ZT = np.ascontiguousarray(polydisk_points(rng, 2, 30, 0.9).T)
    want = field_step(f, ZT.T, 0.01)
    got = flow_step(field_scratch(f, 30), ZT.T, 0.01, out=ZT.T)
    assert np.shares_memory(got, ZT) and np.array_equal(ZT.T, want)
    # a row that blows up is written as it comes out, beside a finite one;
    # the scratch then holds inf and NaN, and its next step none of them
    grow = PolyVectorField([{(3,): 1.0}])
    scratch = field_scratch(grow, 2)
    z = np.array([[0.5 + 0j], [1e160 + 0j]])
    with np.errstate(all="ignore"):
        assert flow_step(scratch, z, 1.0, out=z) is z
    assert np.array_equal(bits(z[:1]), bits(field_step(grow, [[0.5]], 1.0)))
    assert not np.isfinite(z[1]).any() and not np.isfinite(scratch.pows).all()
    w = np.array([[0.5 + 0j], [-0.25j]])
    assert np.array_equal(bits(flow_step(scratch, w, 1.0)),
                          bits(reference_rk4([grow], np.zeros(2, int), w, 1.0)))


def test_flow_step_and_evaluate_take_an_empty_batch():
    f = example1_config().build_family()[1]
    empty = np.zeros((0, 2), dtype=complex)
    assert field_values(f, empty).shape == (0, 2)
    assert flow_step(field_scratch(f, 0), empty, 0.01).shape == (0, 2)
    scratch = FieldScratch(example1_config().build_family(), 0).select([])
    assert flow_step(scratch, empty, 0.01).shape == (0, 2)


def test_flow_step_with_a_scratch_allocates_no_batch_sized_array():
    rng = np.random.default_rng(23)
    f = example1_config().build_family()[1]
    B = 2500
    ZT = np.ascontiguousarray(polydisk_points(rng, 2, B, 0.9).T)
    scratch = field_scratch(f, B)
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
                        size = field_values(absf[i], modulus.astype(complex)).real
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
    under one field for every row and under mixed selections that change
    on the same scratch; each with a scalar step, per-row steps and
    another scalar step."""
    S, n = len(family), family.dimension
    scratch = FieldScratch(family, B)
    Z = polydisk_points(rng, n, B, radius)
    per_row = rng.uniform(0.001, 0.02, (B, 1))
    selections = [*(np.full(B, i) for i in range(S)), np.arange(B) % S,
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


def test_each_power_is_filled_only_over_the_components_raised_to_it():
    # the largest exponent of each component, per field: power p is one
    # product over the range of components that an active field raises to
    # p or more, so a fresh scratch leaves the rest of its table at zero
    tops = [(4, 1, 2), (1, 3, 5), (1, 1, 1)]
    family = SwitchedFamily([
        PolyVectorField([{(1, 0, 0): -1.0, (4, 1, 0): 0.2},
                         {(0, 1, 0): -1.0, (2, 0, 0): 0.1},
                         {(0, 0, 1): -1.0, (1, 0, 2): 0.3}]),
        PolyVectorField([{(1, 0, 0): -0.8, (0, 3, 0): 0.1},
                         {(0, 1, 0): -1.0},
                         {(0, 0, 1): -1.5, (0, 0, 5): 0.05}]),
        PolyVectorField([{(1, 0, 0): -1.0}, {(0, 1, 0): -0.5}, {(0, 0, 1): -2.0}]),
    ])
    rng = np.random.default_rng(43)
    B = 7
    Z = polydisk_points(rng, 3, B, 0.9)
    per_row = rng.uniform(0.001, 0.02, (B, 1))
    selections = [np.full(B, 0), np.full(B, 1), np.full(B, 2), np.arange(B) % 2,
                  np.arange(B) % 2 * 2, np.arange(B) % 2 + 1, np.arange(B) % 3]
    shared = FieldScratch(family, B)
    for sub in selections * 2:
        fresh = FieldScratch(family, B).select(sub)
        want = bits(reference_rk4(family, sub, Z, 0.01))
        assert np.array_equal(bits(flow_step(fresh, Z, 0.01)), want)
        need = np.max([tops[i] for i in set(sub.tolist())], axis=0)
        for p in range(2, 6):
            raised = np.flatnonzero(need >= p)
            filled = np.zeros(3, dtype=bool)
            if len(raised):
                filled[raised[0]:raised[-1] + 1] = True
            assert (fresh.pows[p - 2] != 0).any(axis=1).tolist() == filled.tolist()
        shared.select(sub)
        for dt in (0.01, per_row):
            want = bits(reference_rk4(family, sub, Z, dt))
            assert np.array_equal(bits(flow_step(shared, Z, dt)), want)


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


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_the_field_slices_step_as_the_reference_after_an_overflow():
    # three fields, the middle one zero: selections {0, 2} (an inactive
    # slice inside the stacked product), {1, 2} and all three, each stepped
    # right after a selection under which an inactive field overflowed in
    # its monomials, and again on its cached plan; under pytest a warning
    # from the stale slices is an error too
    family = SwitchedFamily([
        PolyVectorField([{(1, 0): -1.0, (7, 0): 0.1, (1, 1): 0.2},
                         {(0, 1): -0.5, (2, 0): 0.3, (1, 1): -0.4}]),
        PolyVectorField([{}, {}]),
        PolyVectorField([{(1, 0): -0.7, (1, 1): 0.3}, {(0, 1): -1.2, (2, 0): -0.1}]),
    ])
    rng = np.random.default_rng(37)
    B = 12
    Z = polydisk_points(rng, 2, B, 0.9)
    per_row = rng.uniform(0.001, 0.02, (B, 1))
    huge = np.full((B, 2), 1e45 + 1e45j)
    huge[0] = 0.1
    # field 0's z^7 overflows on field 2's rows, whose own step is finite
    quiet = np.r_[0, np.full(B - 1, 2)]
    with np.errstate(all="ignore"):
        unused = FieldScratch(family, B).select(quiet)
        assert np.isfinite(flow_step(unused, huge, 1e-50)).all()
        assert not np.isfinite(unused.mono[0]).all()
    targets = [np.arange(B) % 2 * 2, np.arange(B) % 2 + 1, np.arange(B) % 3]
    for target in targets:
        for prior in ("quiet", "blowup"):
            scratch = FieldScratch(family, B)
            with np.errstate(all="ignore"):
                if prior == "quiet":
                    flow_step(scratch.select(quiet), huge, 1e-50)
                else:  # every slice, the zero field's stage rows too
                    blown = flow_step(scratch.select(np.arange(B) % 3), huge, 1.0)
                    # the zero field's rows 1, 4, .. keep their state, and
                    # every other row but row 0, at 0.1, blows up
                    assert np.array_equal(blown[1::3], huge[1::3])
                    assert (np.isfinite(blown).all(axis=1).tolist()
                            == [i % 3 == 1 or i == 0 for i in range(B)])
                    assert np.isnan(scratch.mono[1, :2]).any()
            scratch.select(target)
            for dt in (0.01, per_row):
                want = bits(reference_rk4(family, target, Z, dt))
                assert np.array_equal(bits(flow_step(scratch, Z, dt)), want)
                # the stacked product met no stale value: the zero field's
                # stage rows held NaN, which multiplies its zeros silently
                span = target.max() - target.min() + 1
                assert np.isfinite(scratch.out[:span]).all()
            for other in targets:  # the other plans, then this one again
                flow_step(scratch.select(other), Z, 0.01)
            scratch.select(target)
            assert np.array_equal(bits(flow_step(scratch, Z, per_row)),
                                  bits(reference_rk4(family, target, Z, per_row)))


def test_the_doubled_stages_step_as_the_reference():
    # zero-length rows, the padding of an ended plan, keep their state bit
    # for bit under every selection, beside rows that step
    rng = np.random.default_rng(41)
    family = example1_config().build_family()
    B = 9
    Z = polydisk_points(rng, 2, B, 0.9)
    h = rng.uniform(0.001, 0.02, (B, 1))
    h[[1, 4, 5]] = 0.0
    scratch = FieldScratch(family, B)
    for sub in (np.zeros(B, int), np.ones(B, int), np.arange(B) % 2):
        scratch.select(sub)
        got = flow_step(scratch, Z, h)
        assert np.array_equal(bits(got), bits(reference_rk4(family, sub, Z, h)))
        assert np.array_equal(bits(got[[1, 4, 5]]), bits(Z[[1, 4, 5]]))
    # row 1's k2 is finite, but 2 k2 is not: the doubled stage gives a
    # non-finite row where the reference's sum with 2 k2 does
    f = PolyVectorField([{(1,): 1.0}])
    z = np.array([[0.5 + 0j], [1e308 + 0j]])
    with np.errstate(all="ignore"):
        k2 = field_values(f, z + 0.0005 * field_values(f, z))
        assert np.isfinite(k2).all() and not np.isfinite(2.0 * k2).all()
        got = field_step(f, z, 0.001)
        want = reference_rk4([f], np.zeros(2, int), z, 0.001)
    assert np.isfinite(got).tolist() == np.isfinite(want).tolist() == [[True], [False]]
    assert np.array_equal(bits(got[:1]), bits(want[:1]))


def test_select_refuses_what_is_not_a_subsystem_index():
    family = example1_config().build_family()
    Z = np.full((3, 2), 0.1 + 0j)
    scratch = FieldScratch(family, 3).select(np.array([0, 1, 1]))
    want = flow_step(scratch, Z, 0.01)
    for sub, name in ((np.array([0, 2, 1]), "2"), (np.array([1, 0, -1]), "-1"),
                      (np.array([0.5, 0, 1]), "0.5"),
                      (np.array([True, False, True]), "True"),
                      (np.array([1.0, 0.5, 0.0]), "1.0")):
        with pytest.raises(ValueError, match=(
            rf"^subsystem index {name} is not an integer in \[0, 2\)$"
        )):
            scratch.select(sub)
    # one index per row: not a scalar, not another number of them
    for sub in (1, np.int64(0), np.ones((3, 1), dtype=int)):
        with pytest.raises(ValueError, match=(
            r"^select takes a 1-d array of subsystem indices, one per row"
        )):
            scratch.select(sub)
    for sub in (np.array([0, 1]), np.array([0, 1, 1, 0])):
        with pytest.raises(ValueError, match=f"^scratch holds 3 rows, not {len(sub)}$"):
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
    small.select(np.full(3, 1))  # one field for every row
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
        flow_step(field_scratch(family[0], 4), Z[:1], 0.01)
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
            want = (jacobian_fd(G, z) @ field_values(F, z)
                    - jacobian_fd(F, z) @ field_values(G, z))
            got = field_values(br, z)
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
            field_values(left, z),
            field_values(fg, z) + field_values(right_h, z),
            atol=1e-12,
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
            s = field_values(t1, z) + field_values(t2, z) + field_values(t3, z)
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
    """Integrate a single field from the point z0 to t_final; the last
    step is shortened."""
    if t_final < 0 or dt <= 0:
        raise ValueError("need t_final >= 0 and dt > 0")
    z = np.asarray(z0, dtype=complex)[None]
    t = 0.0
    while t < t_final - 1e-15:
        h = min(dt, t_final - t)
        z = field_step(field, z, h)
        t += h
    return z[0]


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
    z = np.array([0.3 + 0.1j, -0.2j])
    # a lone point (n,) is no batch: it is stepped as the batch z[None]
    for bad in (np.zeros((4, 3)), np.zeros((2, 2, 2)), z, np.zeros(3)):
        with pytest.raises(ValueError, match=re.escape(
            f"flow_step takes a (B, 2) batch of points, not an array of shape "
            f"{bad.shape}"
        )):
            flow_step(field_scratch(f, len(bad)), bad, 0.01)
    with pytest.raises(ValueError, match=re.escape("not an array of shape ()")):
        flow_step(field_scratch(f, 1), np.zeros(()), 0.01)
    assert field_step(f, z[None, :], 0.01).shape == (1, 2)


def test_flow_step_returns_a_blowup_and_the_integration_raises_it():
    # z' = z^3 from 1e100: V = |z|^2 is finite at t = 0, the state after
    # one step of 1 is not, and neither is its V
    f = PolyVectorField([{(3,): 1.0}])
    z = np.array([[1e100 + 0j]])
    with np.errstate(all="ignore"):
        assert not np.isfinite(field_step(f, z, 1.0)).any()
    with pytest.raises(NonFiniteStateError, match=r"^non-finite V at t=1\.0$"):
        integrate_switched(SwitchedFamily([f]), SwitchingSignal((1.0,), (0,), 1.0),
                           z[0], unit_clf(1), dt=1.0)


# boundary test --------------------------------------------------------------


def test_diagonal_contraction_reads_minus_rho_squared_on_every_face():
    f = PolyVectorField([{(1, 0, 0): -1.0}, {(0, 1, 0): -1.0}, {(0, 0, 1): -1.0}])
    for rho in (0.3, 0.9, 1.0):
        [bounds] = boundary_invariance_check([f], rho)
        # one stored term: the rounding term is (1 + 4) 2^-52 rho^2
        for b in bounds:
            assert 0 < b + rho * rho <= 6 * 2**-52 * rho * rho


def test_an_outward_component_is_not_proved_and_named():
    f = PolyVectorField([{(1, 0): 1.0}, {(0, 1): -1.0}])
    bounds = boundary_invariance_check([f], 0.5)
    assert bounds[0][0] == pytest.approx(0.25, abs=1e-14)
    region = _region(bounds)
    assert not region["proved"]
    assert region["worst"] == {"subsystem": 0, "face": 0, "bound": bounds[0][0]}
    assert region["reason"].startswith("subsystem 0, face 0: bound 0.25")


def test_a_truncated_field_without_tail_has_no_bound():
    f = PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.0}], truncated=True)
    g = PolyVectorField([{(1, 0): -2.0}, {(0, 1): -1.0}])
    bounds = boundary_invariance_check([g, f], 0.5)
    assert bounds[1] is None and len(bounds[0]) == 2
    region = _region(bounds)
    assert region["face_bounds"] == bounds and not region["proved"]
    assert region["worst"] == {"subsystem": 0, "face": 1, "bound": bounds[0][1]}
    assert "subsystem 1 is a truncated series with no tail_l1" in region["reason"]
    tailed = PolyVectorField(f.components, tail_l1=[1.5, 1.0])
    assert boundary_invariance_check([tailed], 0.5)[0][0] == pytest.approx(
        -0.25 + 0.5 * 0.25, abs=1e-14
    )


def test_a_tail_equal_to_the_stored_sum_still_counts_its_rounding():
    # the float stored sum may exceed the exact one, so a declared tail
    # equal to it still leaves an unstored mass of a few ulps
    comps = [{(1, 0): -1.0, (0, 1): 0.1 + 0.2j, (2, 1): 0.3 - 0.7j},
             {(0, 1): -1.0, (1, 1): 0.1j}]
    plain = PolyVectorField(comps)
    tailed = PolyVectorField(comps, tail_l1=[plain.stored_l1[l] for l in (0, 1)])
    rho = 0.7
    [got], [base] = (boundary_invariance_check([f], rho) for f in (tailed, plain))
    for l in (0, 1):
        assert got[l] - base[l] >= 2**-53 * plain.stored_l1[l] * rho * rho


@pytest.mark.parametrize(
    "config,want",
    [(example1_config(degree=12), [[-1.0, -1.0], [-0.40, -0.85]]),
     (example2_config(degree=20), [[-0.967, -1.0], [-0.868, -1.0]])],
)
def test_both_examples_prove_their_certified_polydisk(config, want):
    report = analyze_family(
        config.build_family(), config.truncation_degree, config.scheme_kind
    )
    rho, region = report.rho_certified, report.to_json_dict()["region"]
    assert region["proved"] and region["reason"] is None
    bounds = region["face_bounds"]
    assert np.allclose(np.array(bounds) / rho**2, want, rtol=0.0, atol=5e-4)
    assert region["worst"] == {"subsystem": 1, "face": 0, "bound": bounds[1][0]}
    assert not any("forward invariant" in w for w in report.warnings)


def test_a_family_whose_flag_change_drops_its_tails_has_no_proved_region():
    # a triangular pair with distinct eigenvalues, conjugated by S: its
    # flag change is not the identity, and drops the declared tails
    S = np.array([[1.0, 0.4], [-0.3, 1.0]])
    conjugated = [
        substitute_linear(PolyVectorField(comps), np.linalg.inv(S), S)
        for comps in ([{(1, 0): -1.0, (2, 1): 0.2}, {(0, 1): -2.0}],
                      [{(1, 0): -1.5}, {(0, 1): -2.0, (1, 1): 0.1}])
    ]
    family = [
        PolyVectorField(f.components, tail_l1=[
            f.stored_l1[l] for l in range(f.dimension)
        ])
        for f in conjugated
    ]
    with pytest.warns(UserWarning, match="tail_l1 missing"):
        report = analyze_family(family, 8, "diagonal_dominance")
    assert not np.allclose(report.P, np.eye(2))
    assert report.warnings[0].startswith("tail_l1 norms dropped")
    reason = "subsystem 0 is a truncated series with no tail_l1"
    assert report.region == {
        "face_bounds": [None, None], "worst": None, "proved": False,
        "reason": reason,
    }
    # with no proved region there is no certificate
    assert not report.certified and report.exit_code == 3
    assert report.rho_certified is None
    assert report.failure["stage"] == "region"
    assert re.fullmatch(
        rf"polydisk of radius 0\.[0-9]+ is not proved forward invariant: {reason}",
        report.failure["message"],
    )


@pytest.mark.parametrize("rho", [1.5, 1.0 + 1e-15, 0.0, -0.5, math.nan, math.inf])
def test_boundary_rejects_a_radius_outside_zero_one(rho):
    f = PolyVectorField([{(1, 0): -1.0}, {(0, 1): -1.0}])
    with pytest.raises(ValueError, match="rho must lie in"):
        boundary_invariance_check([f], rho)


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
