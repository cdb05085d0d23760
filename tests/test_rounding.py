import math
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from koopman_clf.rounding import lower, upper

TINY = 2.2250738585072014e-308  # the least normal float
floats = st.floats(allow_nan=False, allow_infinity=False)
small = st.floats(-1.0, 1.0)
subnormal = st.floats(-TINY, TINY)
any_float = st.one_of(floats, small, subnormal)


def ops_for(j):
    """The ``ops`` that the error model asks for j roundings on a path."""
    return 1 if j == 1 else math.ceil(j / 2) + 1


def encloses(value, magnitude, ops, exact):
    """upper and lower of ``value`` bracket the exact value; an infinite
    end, from an increment that overflows, brackets it too."""
    hi, lo = upper(value, magnitude, ops), lower(value, magnitude, ops)
    return ((hi == math.inf or Fraction(hi) >= exact)
            and (lo == -math.inf or Fraction(lo) <= exact))


@settings(max_examples=400, deadline=None)
@given(terms=st.lists(any_float, min_size=2, max_size=6))
@example(terms=[1.0, 2.0**-53])
@example(terms=[TINY, -2.0**-1074, 5e-324])
@example(terms=[1.0, 2.0**-53, 2.0**-53, -1.0])
def test_upper_and_lower_enclose_a_float_sum(terms):
    # a left-to-right sum: one rounding per addition on any path, and a
    # magnitude of the moduli summed
    value = 0.0
    for t in terms:
        value += t
    assume(math.isfinite(value))
    # a float sum of the moduli may round below the exact one; the model's
    # margin covers that
    magnitude = sum(abs(t) for t in terms)
    assume(math.isfinite(magnitude))
    exact = sum(map(Fraction, terms))
    assert encloses(value, magnitude, ops_for(len(terms) - 1), exact)


@settings(max_examples=400, deadline=None)
@given(first=any_float,
       rest=st.lists(st.one_of(small, subnormal), min_size=1, max_size=5))
@example(first=3.3500242069799673, rest=[0.5463563907358674] * 2)
@example(first=TINY * 3, rest=[0.3, 0.7])
@example(first=1e300, rest=[1e-300, 0.9])
def test_upper_and_lower_enclose_a_float_product(first, rest):
    # a left-to-right product whose later factors are at most one in
    # modulus, as the radius and the tail terms are; the magnitude is the
    # float product itself
    value = first
    for f in rest:
        value *= f
    exact = Fraction(first)
    for f in rest:
        exact *= Fraction(f)
    assert encloses(value, abs(value), ops_for(len(rest)), exact)


def test_a_zero_magnitude_still_covers_an_underflow():
    # 2^-1075 is half the least subnormal: 2^-1074 * 0.5 rounds to an even
    # 0.0, off by 2^-1075, which the 2^-1020 term covers
    value = 5e-324 * 0.5
    assert value == 0.0
    assert Fraction(upper(value, 0.0, 1)) >= Fraction(5e-324) / 2
