"""Term products that cancel, at one key or over the whole product, against the per-pair reference.

``SuperElement.__mul__`` over a scalar ring, and ``PolyQuotientRing._products``
under a quotient ring, add each term product into the output as it is formed
and drop zeros once, at the end.  Each case here makes two or more term
products meet at one key and cancel there: only at that key, or at every key
of the product.  Under a quotient ring a relation rewrite also cancels terms
that needed no rewrite.  Every result must equal
``test_flat_products.reference_product``, which multiplies one pair of terms at
a time and sums the products with ``SuperRing.sum``, and must store no zero.
The scalar kinds are those of ``tests/test_grassmann_squares.py``: the
rationals with every product cleared and with none, ``gaussian_rational``,
``integer_mod`` 2 and 6, and ``gaussian_radical``.
"""

from copy import copy
from fractions import Fraction

import pytest

import superalg.superring as superring
from superalg.landi import make_uosp_ring
from superalg.scalars import GaussianRational, GaussianRationalRing, IntegerModRing, RadicalGaussianRing, RationalRing
from superalg.spheres import sphere_ring
from superalg.superring import grassmann_ring
from test_flat_products import ODD, assert_stored_form, reference_product

KINDS = {
    "rational-per-pair": RationalRing(),
    "rational-cleared": RationalRing(),
    "gaussian_rational": GaussianRationalRing(),
    "integer_mod-2": IntegerModRing(2),
    "integer_mod-6": IntegerModRing(6),
    "gaussian_radical": RadicalGaussianRing(),
}
CLEAR_MIN_PAIRS = {"rational-per-pair": 10**9, "rational-cleared": 0}
QUOTIENT_RINGS = {
    "uosp": make_uosp_ring(),
    "sphere-rational": sphere_ring(2, RationalRing(), ODD),
    "sphere-mod6": sphere_ring(2, IntegerModRing(6), ODD),
}


@pytest.fixture(params=KINDS)
def kind(request, monkeypatch):
    if request.param in CLEAR_MIN_PAIRS:
        monkeypatch.setattr(RationalRing, "CLEAR_MIN_PAIRS", CLEAR_MIN_PAIRS[request.param])
    return request.param


def two_values(coeff):
    """Two nonzero coefficients of ``coeff``'s kind, unequal where the ring allows it."""
    if isinstance(coeff, IntegerModRing):
        return coeff.from_int(1), coeff.from_int(coeff.n - 1)
    if isinstance(coeff, GaussianRationalRing):
        return GaussianRational(Fraction(1, 2), Fraction(-2, 3)), GaussianRational(Fraction(3, 5), 1)
    if isinstance(coeff, RadicalGaussianRing):
        a = coeff.mul(coeff.from_fraction(Fraction(1, 2)), coeff.sqrt_int(2))
        return a, coeff.add(coeff.from_fraction(Fraction(-2, 3)), coeff.sqrt_int(3))
    return coeff.from_fraction(Fraction(1, 2)), coeff.from_fraction(Fraction(-7, 3))


def check(x, y):
    """``x * y`` equals the per-pair reference and stores no zero; the product is returned."""
    product = x * y
    assert product == reference_product(x, y)
    assert_stored_form(product)
    return product


def test_products_that_cancel_at_one_key(kind):
    ring = grassmann_ring(4, KINDS[kind])
    a, b = two_values(ring.coeff)
    # x * y = a*a*(b1*b2 + b2*b1) + b*a*(b3*b1 + b3*b2): the b1*b2 pair cancels.
    x = ring.element({0b0001: a, 0b0010: a, 0b0100: b})
    y = ring.element({0b0001: a, 0b0010: a})
    assert set(check(x, y).terms) == {0b0101, 0b0110}
    # The same with a body and a b4: a*a*(b1*b3 + b3*b1) cancels, the rest stays.
    x = ring.element({0: b, 0b0001: a, 0b0100: a})
    y = ring.element({0b0100: a, 0b0001: a, 0b1000: b})
    assert set(check(x, y).terms) == {0b0001, 0b0100, 0b1000, 0b1001, 0b1100}


def test_products_that_cancel_everywhere(kind):
    ring = grassmann_ring(4, KINDS[kind])
    a, b = two_values(ring.coeff)
    # An odd x times a copy of itself: a*b*(b1*b2 + b2*b1) = 0 at the one key.
    x = ring.element({0b0001: a, 0b0010: b})
    assert check(x, copy(x)).terms == {}
    # Two keys, b1*b2 and b1*b2*b3*b4, each of two products that cancel.
    y = x * ring.element({0: b, 0b1100: a})
    assert len(y.terms) == 4
    assert check(x, y).terms == {}


@pytest.mark.parametrize("path", ["square", "general"])
def test_squares_that_cancel(kind, path, monkeypatch):
    # Every square takes the square rule, however few its terms.
    monkeypatch.setattr(superring, "_SQUARE_MIN_TERMS", 0)
    ring = grassmann_ring(4, KINDS[kind])
    coeff = ring.coeff
    a, b = two_values(coeff)

    def square(x):
        return check(x, x if path == "square" else copy(x))

    # (a + a*b12 + b*b34 - b*b1234)^2: at b1234, 2*a*(-b) from the body meets 2*a*b.
    x = ring.element({0: a, 0b0011: a, 0b1100: b, 0b1111: coeff.neg(b)})
    assert 0b1111 not in square(x).terms
    # (a*b12 + b*b34 + a*b13 + b*b24)^2 = 2*a*b*(b1234 + b13*b24) = 0.
    assert square(ring.element({0b0011: a, 0b1100: b, 0b0101: a, 0b1010: b})).terms == {}


def test_zero_divisors_leave_no_term():
    ring = grassmann_ring(3, IntegerModRing(6))
    two, three = ring.coeff.from_int(2), ring.coeff.from_int(3)
    # Each term product is 0 on its own: 3*2 = 0 mod 6.
    assert check(ring.element({0: three, 0b001: three}), ring.element({0: two, 0b010: two})).terms == {}


def _heads_and_rhs(ring):
    coeff = ring.coeff
    u, v = (ring.even_gen(h) for h in coeff.relation.heads)
    return u, v, ring.from_coeff(coeff.relation.rhs)


@pytest.mark.parametrize("label", QUOTIENT_RINGS)
def test_quotient_products_that_cancel_at_one_key(label):
    ring = QUOTIENT_RINGS[label]
    u, v, _ = _heads_and_rhs(ring)
    e1 = ring.odd_gen_at(1)
    # (u + e1) * (u - e1) = u*u - u*e1 + e1*u: the two products at e1 cancel, and over
    # the sphere u*u = x0^2 is rewritten.  Over uosp (u, v) = (a, ad), so with v for the
    # second u the products at e1 stay and u*v is rewritten.
    product = check(u + e1, u - e1)
    assert 1 not in product.terms
    assert check(u + e1, v - e1).terms


@pytest.mark.parametrize("label", QUOTIENT_RINGS)
def test_quotient_rewrite_that_cancels_a_kept_term(label):
    ring = QUOTIENT_RINGS[label]
    u, v, rhs = _heads_and_rhs(ring)
    e1, e2 = ring.odd_gen_at(1), ring.odd_gen_at(2)
    one = ring.one()
    # (u*e1 + e2) * (v*e2 + c*e1) = (u*v - c)*e1*e2, and u*v rewrites to rhs.
    # With c = rhs + 1 every term of rhs but its constant is cancelled by a kept term.
    product = check(u * e1 + e2, v * e2 + (rhs + one) * e1)
    assert product == -one * e1 * e2
    # With c = rhs the rewrite cancels every kept term: the product is zero.
    assert check(u * e1 + e2, v * e2 + rhs * e1).terms == {}


@pytest.mark.parametrize("label", QUOTIENT_RINGS)
def test_quotient_sum_of_products_that_cancels_everywhere(label):
    ring = QUOTIENT_RINGS[label]
    u, v, rhs = _heads_and_rhs(ring)
    e1, e2 = ring.odd_gen_at(1), ring.odd_gen_at(2)
    # u*v - rhs = 0 in the ring: the rewrite of u*v cancels every term of -rhs.
    pairs = [(u, v), (-rhs, ring.one()), (e1 + e2, e1 + e2)]
    total = ring.sum_of_products(pairs)
    assert total == ring.sum(reference_product(x, y) for x, y in pairs)
    assert total.terms == {}
    assert check(e1 + u * e2, e1 + u * e2).terms == {}
