"""The stored form of a Gaussian value, against a Fraction-pair reference.

A Gaussian value that is a real integer is the ``int`` itself, as an
integral rational is in ``RationalRing``; any other value is a reduced
``GaussianRational`` triple.  Every operation takes either form, or a triple
built directly such as ``GaussianRational(3)``, on either side, returns the
stored form, and ``GaussianRational(n) == n`` with ``hash(n)``.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from superalg.landi import make_uosp_ring
from superalg.scalars import GaussianRational, GaussianRationalRing, RadicalGaussianRing

RING = GaussianRationalRing()
derandomized = settings(max_examples=300, deadline=None, derandomize=True)

# Integers often, so that both operands of many draws are real integers.
parts = st.one_of(
    st.integers(-(10**9), 10**9),
    st.sampled_from([0, 1, -1, 2]),
    st.fractions(max_denominator=12),
)
values = st.tuples(parts, st.one_of(st.just(0), parts))  # (re, im); real often


def stored(pair):
    """The stored form of ``re + im*i``, written out from the rule."""
    re, im = map(Fraction, pair)
    return re.numerator if not im and re.denominator == 1 else GaussianRational(re, im)


def forms(pair):
    """Every way an operand may arrive: the stored form, and a triple built directly."""
    return (stored(pair), GaussianRational(*pair))


def stored_form_of(value, ref) -> bool:
    """``value`` is the stored form of the reference pair ``ref``: exactly an ``int``, or a reduced triple."""
    re, im = ref
    if not im and re.denominator == 1:
        return type(value) is int and value == re
    return (
        type(value) is GaussianRational
        and value.d > 0
        and math.gcd(value.a, value.b, value.d) == 1
        and (value.b, value.d) != (0, 1)
        and (value.re, value.im) == (re, im)
    )


def ref(pair):
    return tuple(map(Fraction, pair))


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_neg(x):
    return (-x[0], -x[1])


@derandomized
@given(values, values)
@example(x=(Fraction(1, 2), 0), y=(3, 0))  # a triple plus an int: the int is scaled by d
@example(x=(3, 0), y=(Fraction(-7, 4), Fraction(1, 3)))
@example(x=(Fraction(1, 2), 0), y=(Fraction(1, 2), 0))  # two triples summing to an int
def test_sums_and_differences_match_fraction_pairs(x, y):
    rx, ry = ref(x), ref(y)
    for u in forms(x):
        for v in forms(y):
            assert stored_form_of(u + v, ref_add(rx, ry))
            assert stored_form_of(u - v, ref_add(rx, ref_neg(ry)))


@derandomized
@given(values, values)
@example(x=(1, 1), y=(1, -1))  # (1 + i)(1 - i) = 2: two triples whose product is an int
@example(x=(Fraction(1, 2), Fraction(1, 2)), y=(1, -1))
@example(x=(Fraction(2, 3), 0), y=(3, 0))
def test_products_match_fraction_pairs(x, y):
    rx, ry = ref(x), ref(y)
    for u in forms(x):
        for v in forms(y):
            assert stored_form_of(u * v, ref_mul(rx, ry))


@derandomized
@given(values, st.integers(-50, 50))
def test_negation_scale_conjugate_and_inverse_are_stored(x, n):
    rx = ref(x)
    for u in forms(x):
        assert stored_form_of(-u, ref_neg(rx))
        assert stored_form_of(RING.conj(u), (rx[0], -rx[1]))
        if type(u) is GaussianRational:
            assert stored_form_of(u.scale(n), ref_mul(rx, (Fraction(n), Fraction(0))))
        if any(rx):
            inverse = RING.div(1, u)
            norm = rx[0] * rx[0] + rx[1] * rx[1]
            assert stored_form_of(inverse, (rx[0] / norm, -rx[1] / norm))


@derandomized
@given(values, values)
@example(x=(3, 0), y=(3, 0))
@example(x=(-1, 0), y=(-2, 0))  # hash(-1) == hash(-2) in CPython: equal hashes, unequal values
def test_equality_and_hash_match_fraction_pairs(x, y):
    same = ref(x) == ref(y)
    for u in forms(x):
        for v in forms(y):
            assert (u == v) is same and (v == u) is same and (u != v) is not same
            if same:
                assert hash(u) == hash(v)


@derandomized
@given(st.integers(-(10**30), 10**30))
def test_a_directly_built_integer_equals_and_hashes_as_the_int(n):
    z = GaussianRational(n)
    assert z == n and n == z and hash(z) == hash(n)
    assert {n: "n"}[z] == "n" and {z: "z"}[n] == "z"
    assert GaussianRational(n, 1) != n and GaussianRational(Fraction(2 * n + 1, 2)) != n


def test_a_real_value_is_its_own_conjugate():
    half = GaussianRational(Fraction(1, 2))
    assert half.conj() is half
    assert RING.conj(5) == 5 and type(RING.conj(5)) is int


class TestRingsReturnTheStoredForm:
    def test_zero_is_the_int_zero(self):
        zero = RING.zero()
        assert type(zero) is int and zero == 0

    def test_from_fraction_of_an_integral_fraction_is_an_int(self):
        three = RING.from_fraction(Fraction(6, 2))
        assert type(three) is int and three == 3
        half = RING.from_fraction(Fraction(1, 2))
        assert type(half) is GaussianRational and half == GaussianRational(Fraction(1, 2))

    def test_sqrt_int_has_an_int_coefficient(self):
        root = RadicalGaussianRing().sqrt_int(12)
        assert root == {3: 2} and type(root[3]) is int

    def test_value_from_json_of_an_integral_value_is_an_int(self):
        two = RING.value_from_json({"re": "4/2", "im": "0"})
        assert type(two) is int and two == 2
        assert RING.value_to_json(two) == {"re": "2", "im": "0"}

    def test_radical_values_keep_int_coefficients(self):
        radical = RadicalGaussianRing()
        loaded = radical.value_from_json([{"rad": 8, "re": "3/3", "im": "0"}])
        assert loaded == {2: 2} and type(loaded[2]) is int
        product = radical.mul(radical.sqrt_int(6), radical.sqrt_int(6))
        assert product == {1: 6} and type(product[1]) is int
        assert radical.value_to_json(product) == [{"rad": 1, "re": "6", "im": "0"}]

    def test_uosp_constants_are_ints(self):
        one = make_uosp_ring().coeff.from_fraction(1)
        assert one == {(0, 1): 1} and type(one[0, 1]) is int
