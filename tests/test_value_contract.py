"""One contract for every coefficient value: falsy exactly at zero, equal values
hash alike, and the term order inside a value never reaches the text or the JSON."""

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

RINGS = {
    "rational": RationalRing(),
    "gaussian_rational": GaussianRationalRing(),
    "integer_mod": IntegerModRing(6),
    "gaussian_radical": RadicalGaussianRing(),
    "uosp": make_uosp_ring().coeff,
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
    assert list(u.terms) != list(w.terms)  # the dicts hold the terms in different orders
    assert u == w and hash(u) == hash(w)
    assert_same_output(ring, u, w)
    elements = SuperRing(ring, ("b1",))
    eu, ew = elements.from_coeff(u), elements.from_coeff(w)
    assert eu.to_text() == ew.to_text()
    assert json.dumps(eu.to_json()) == json.dumps(ew.to_json())
