"""One coefficient-ring interface: scalar rings read as polynomial rings in no variables."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superalg.errors import DomainError
from superalg.expressions import parse_element
from superalg.scalars import (
    GaussianRationalRing,
    IntegerModRing,
    PolyQuotientRing,
    RadicalGaussianRing,
    RationalRing,
)
from superalg.spheres import sphere_ring
from superalg.suites import featured_rings, random_element
from superalg.superanalysis import trig_super_ring
from superalg.superring import SuperElement, SuperRing, grassmann_ring

SCALAR_RINGS = [RationalRing(), GaussianRationalRing(), IntegerModRing(6), RadicalGaussianRing()]


@pytest.mark.parametrize("coeff", SCALAR_RINGS, ids=lambda c: c.kind)
def test_scalar_ring_is_a_polynomial_ring_in_no_variables(coeff):
    assert coeff.variables == ()
    assert coeff.base is coeff
    assert coeff.relation is None
    with pytest.raises(DomainError, match="'x' is not a variable"):
        coeff.var("x")
    three = coeff.from_int(3)
    assert coeff.monomials(three) == (((), three),)
    assert coeff.monomials(coeff.zero()) == ()
    assert coeff.monomial((), three) == three
    # The (radicand, scalar) view by which a quotient ring over this ring keys its terms.
    ((radicand, scalar),) = coeff.radicals(three)
    assert radicand == 1 and scalar == coeff.term_scalars.from_int(3)
    assert coeff.from_radicals({1: scalar}) == three
    assert not coeff.radicals(coeff.zero()) and coeff.from_radicals({}) == coeff.zero()


def test_quotient_ring_var_names_an_unknown_variable():
    ring = PolyQuotientRing(RationalRing(), ("x", "y"))
    assert ring.monomials(ring.var("y")) == (((0, 1), Fraction(1)),)
    assert ring.var("y") == ring.monomial((0, 1), 1)
    with pytest.raises(DomainError, match="'z' is not a variable"):
        ring.var("z")


def test_even_generator_of_a_scalar_ring_is_a_domain_error():
    with pytest.raises(DomainError):
        grassmann_ring(2).even_gen("x")


GAUSSIAN_RINGS = [
    ("gaussian_rational", grassmann_ring(1, GaussianRationalRing())),
    ("gaussian_radical", grassmann_ring(1, RadicalGaussianRing())),
    ("sphere-over-gaussian_rational", sphere_ring(1, GaussianRationalRing(), ("b1",))),
    ("sphere-over-gaussian_radical", sphere_ring(1, RadicalGaussianRing(), ("b1",))),
]


@pytest.mark.parametrize("label, ring", GAUSSIAN_RINGS, ids=[label for label, _ in GAUSSIAN_RINGS])
def test_i_squared_is_minus_one(label, ring):
    i = parse_element("i", ring)
    assert i == ring.from_coeff(ring.coeff.imaginary_unit())
    assert parse_element("i*i", ring) == -ring.one()


@pytest.mark.parametrize("coeff", [RationalRing(), IntegerModRing(5)], ids=lambda c: c.kind)
def test_i_stays_a_generator_name_where_the_coefficients_have_no_i(coeff):
    assert coeff.imaginary_unit() is None
    odd = SuperRing(coeff, ("i", "j"))
    assert parse_element("i", odd) == odd.odd_gen("i")
    assert parse_element("i*i", odd).is_zero()
    even = SuperRing(PolyQuotientRing(coeff, ("i",)))
    assert parse_element("i*i", even).to_text() == "i^2"


def _radical_unit(coeff):
    """``sqrt(2) + i`` in a coefficient ring over the radical scalars."""
    base = coeff.base
    return coeff.monomial([0] * len(coeff.variables), base.add(base.sqrt_int(2), base.imaginary_unit()))


ROUND_TRIP_RINGS = featured_rings() + (
    ("trig-3", trig_super_ring(3)),
    ("grassmann-3-radical", grassmann_ring(3, RadicalGaussianRing())),
)


@pytest.mark.parametrize("label, ring", ROUND_TRIP_RINGS, ids=[label for label, _ in ROUND_TRIP_RINGS])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_terms_json_round_trip(label, ring, seed):
    x = random_element(random.Random(seed), ring)
    if ring.coeff.base.kind == "gaussian_radical":
        x = x + x * ring.from_coeff(_radical_unit(ring.coeff))
    assert SuperElement.terms_from_json(ring, x.terms_to_json()) == x
    assert SuperElement.from_json(x.to_json()) == x
