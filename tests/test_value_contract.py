"""One contract for every coefficient value: falsy exactly at zero, equal values
hash alike, and the term order inside a value never reaches the text or the JSON.
Every coefficient kind obeys the commutative ring laws, and the uosp ring's
graded involution obeys its sign rules."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superalg.landi import make_uosp_ring
from superalg.scalars import (
    GaussianRationalRing,
    IntegerModRing,
    RadicalGaussianRing,
    RationalRing,
)
from superalg.spheres import sphere_coeff_ring
from superalg.superanalysis import trig_coeff_ring
from superalg.superring import SuperRing

UOSP = make_uosp_ring()
RINGS = {
    "rational": RationalRing(),
    "gaussian_rational": GaussianRationalRing(),
    "integer_mod": IntegerModRing(6),
    "gaussian_radical": RadicalGaussianRing(),
    "uosp": UOSP.coeff,
    "sphere": sphere_coeff_ring(2),
    "trig": trig_coeff_ring(),
}

# A value is a sum of terms (numerator, denominator, variable indices, radicand).
# Denominators are units mod 6, and small numerators make cancellation to zero likely.
recipes = st.lists(
    st.tuples(
        st.integers(-2, 2),
        st.sampled_from([1, 5]),
        st.lists(st.integers(0, 3), max_size=3),
        st.sampled_from([1, 2, 8]),
    ),
    max_size=4,
)


def build(ring, recipe):
    value = ring.zero()
    for num, den, var_indices, radicand in recipe:
        term = ring.from_fraction(Fraction(num, den))
        if isinstance(ring.base, RadicalGaussianRing):
            term = ring.mul(term, ring.monomial((0,) * len(ring.variables), ring.base.sqrt_int(radicand)))
        for i in var_indices:
            if ring.variables:
                term = ring.mul(term, ring.var(ring.variables[i % len(ring.variables)]))
        value = ring.add(value, term)
    return value


def assert_same_output(ring, u, v):
    assert ring.monomials(u) == ring.monomials(v)
    assert ring.to_str(u) == ring.to_str(v)
    assert json.dumps(ring.value_to_json(u)) == json.dumps(ring.value_to_json(v))


@pytest.mark.parametrize("kind", sorted(RINGS))
@settings(max_examples=30, deadline=None)
@given(first=recipes, second=recipes)
def test_values_are_falsy_at_zero_and_equal_values_hash_alike(kind, first, second):
    ring = RINGS[kind]
    u, w = build(ring, first), build(ring, second)
    for v in (u, w, ring.add(u, w), ring.sub(u, u), ring.mul(u, w), ring.sub(ring.mul(u, w), ring.mul(w, u))):
        assert bool(v) == (v != ring.zero())
    left, right = ring.add(u, w), ring.add(w, u)  # equal values, terms met in two orders
    assert left == right
    if not isinstance(left, dict):  # a radical value is a plain dict, hashed only inside an element
        assert hash(left) == hash(right)
    elements = SuperRing(ring, ("b1",))
    assert hash(elements.from_coeff(left)) == hash(elements.from_coeff(right))
    assert_same_output(ring, left, right)


@pytest.mark.parametrize("kind", ["sphere", "trig", "uosp"])
def test_one_polynomial_in_two_term_orders_prints_alike(kind):
    ring = RINGS[kind]
    x, y = (ring.var(v) for v in ring.variables[-2:])
    u = ring.add(ring.mul(x, ring.from_fraction(Fraction(1, 5))), ring.mul(y, y))
    w = ring.add(ring.mul(y, y), ring.mul(x, ring.from_fraction(Fraction(1, 5))))
    assert list(u) != list(w)  # the dicts hold the terms in different orders
    assert u == w
    assert_same_output(ring, u, w)
    elements = SuperRing(ring, ("b1",))
    eu, ew = elements.from_coeff(u), elements.from_coeff(w)
    assert hash(eu) == hash(ew)  # a quotient value is a dict: its element hashes
    assert eu.to_text() == ew.to_text()
    assert json.dumps(eu.to_json()) == json.dumps(ew.to_json())


def value(ring, real, imaginary):
    """``build(real) + i*build(imaginary)`` where the ring has an ``i``, else ``build(real)``."""
    u = build(ring, real)
    i = ring.imaginary_unit()
    return u if i is None else ring.add(u, ring.mul(i, build(ring, imaginary)))


@pytest.mark.parametrize("kind", sorted(RINGS))
@settings(max_examples=25, deadline=None)
@given(parts=st.lists(recipes, min_size=6, max_size=6))
def test_ring_laws(kind, parts):
    ring = RINGS[kind]
    u, v, w = (value(ring, parts[k], parts[k + 1]) for k in (0, 2, 4))
    add, mul, conj = ring.add, ring.mul, ring.conj
    assert add(add(u, v), w) == add(u, add(v, w))
    assert add(u, v) == add(v, u)
    assert mul(mul(u, v), w) == mul(u, mul(v, w))
    assert mul(u, v) == mul(v, u)
    assert mul(u, add(v, w)) == add(mul(u, v), mul(u, w))
    assert conj(add(u, v)) == add(conj(u), conj(v))
    assert conj(mul(u, v)) == mul(conj(u), conj(v))
    assert conj(conj(u)) == u


def homogeneous(parity, parts):
    """A uosp element of ``parity`` with a coefficient on each of its two odd monomials of that parity."""
    masks = (0b00, 0b11) if parity == 0 else (0b01, 0b10)
    return UOSP.element({mask: value(UOSP.coeff, parts[2 * k], parts[2 * k + 1]) for k, mask in enumerate(masks)})


@settings(max_examples=25, deadline=None)
@given(px=st.integers(0, 1), py=st.integers(0, 1), parts=st.lists(recipes, min_size=8, max_size=8))
def test_uosp_involution_reverses_products_and_squares_to_the_parity_sign(px, py, parts):
    x, y = homogeneous(px, parts[:4]), homogeneous(py, parts[4:])
    assert (x * y).involute() == (y.involute() * x.involute()).scale(-1 if px & py else 1)
    assert x.involute().involute() == (-x if px else x)
