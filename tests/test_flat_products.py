"""Sums of products of elements against a reference that multiplies term pair by term pair.

``SuperRing.sum_of_products`` forms every term product of every pair in one
loop and, over a quotient coefficient ring, collects, rewrites and collects
the whole sum once; ``x * y`` is its one-pair case there, and
``SuperRing.sums_of_products`` forms the sums of several groups of pairs in
one such pass.  The reference
below multiplies one pair of terms at a time: ``coeff.mul(c1, c2)`` at
``b1 | b2``, negated when moving the odd generators of ``b2`` past those of
``b1`` takes an odd number of transpositions; each ``coeff.mul`` is checked
against a product formed one pair of monomials at a time.  The rings are the supersphere
ring and sphere rings over every scalar kind; two scalar-coefficient rings
take the other path of ``sum_of_products``.
"""

import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from superalg.errors import RingMismatchError
from superalg.landi import make_uosp_ring
from superalg.scalars import GaussianRationalRing, IntegerModRing, RadicalGaussianRing, RationalRing
from superalg.spheres import sphere_ring, z6_ring
from superalg.superring import grassmann_ring

ODD = ("e1", "e2", "e3")
QUOTIENT_RINGS = {
    "uosp": make_uosp_ring(),
    "sphere-rational": sphere_ring(2, RationalRing(), ODD),
    "sphere-gaussian": sphere_ring(2, GaussianRationalRing(), ODD),
    "sphere-radical": sphere_ring(1, RadicalGaussianRing(), ODD),
    "sphere-mod6": sphere_ring(2, IntegerModRing(6), ODD),
}
RINGS = {**QUOTIENT_RINGS, "grassmann-3": grassmann_ring(3), "z6": z6_ring()}
# A quotient ring with no odd generators: its group tags are the group numbers, shifted by 0.
GROUP_RINGS = {**RINGS, "sphere-even": sphere_ring(2)}

# A term is (odd bitmask, numerator, denominator, exponents, radicand, times i).
# Denominators are units mod 6, and small numerators make cancellation likely.
# Few odd monomials and small exponents make a rewritten term likely to meet a
# term that needed no rewrite, so the sum after the rewrite is exercised.
terms = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 1, 2, 3, 4, 6]),
        st.integers(-2, 2),
        st.sampled_from([1, 5]),
        st.lists(st.sampled_from([0, 0, 1, 2]), min_size=4, max_size=4),
        st.sampled_from([1, 2, 3, 8]),
        st.booleans(),
    ),
    max_size=4,
)


def build(ring, recipe):
    """The sum of the recipe's terms; exponents past the ring's variables are ignored."""
    coeff, base = ring.coeff, ring.coeff.base
    parts = []
    for bits, num, den, exps, radicand, imaginary in recipe:
        c = base.from_fraction(Fraction(num, den))
        if imaginary and base.imaginary_unit() is not None:
            c = base.mul(c, base.imaginary_unit())
        if base.kind == "gaussian_radical":
            c = base.mul(c, base.sqrt_int(radicand))
        value = coeff.monomial(tuple(exps[: len(coeff.variables)]), c)
        parts.append(ring.element({bits % (1 << ring.odd_count): value}))
    return ring.sum(parts)


def ones(bits):
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def inversions(b1, b2):
    """Pairs ``i > j`` with generator ``i`` in ``b1`` and ``j`` in ``b2``."""
    return sum(1 for i in ones(b1) for j in ones(b2) if i > j)


def monomial_product(coeff, u, v):
    """``u * v`` one pair of monomials at a time, each product put in normal form on its own."""
    products = (
        coeff.monomial(tuple(map(operator.add, e1, e2)), coeff.base.mul(s1, s2))
        for e1, s1 in coeff.monomials(u)
        for e2, s2 in coeff.monomials(v)
    )
    return reduce(coeff.add, products, coeff.zero())


def reference_product(x, y):
    ring, coeff = x.ring, x.ring.coeff
    products = []
    for b1, c1 in x.terms.items():
        for b2, c2 in y.terms.items():
            if not b1 & b2:
                c = coeff.mul(c1, c2)
                assert c == monomial_product(coeff, c1, c2)
                products.append(ring.element({b1 | b2: coeff.neg(c) if inversions(b1, b2) % 2 else c}))
    return ring.sum(products)


def assert_stored_form(z):
    """No zero and no empty value is stored, and no stored term holds the relation's lead product."""
    coeff = z.ring.coeff
    assert all(z.terms.values())
    if coeff.relation is None:
        return
    i, j = (coeff.variables.index(h) for h in coeff.relation.heads)
    for value in z.terms.values():
        assert all(value.values())
        for exps, _ in coeff.monomials(value):
            assert (exps[i] < 2) if i == j else not (exps[i] and exps[j])


ONE, FIRST, SECOND, FIRST_SQUARED, SECOND_SQUARED = (
    (0, 1, 1, exps, 1, False) for exps in ([0] * 4, [1, 0, 0, 0], [0, 1, 0, 0], [2, 0, 0, 0], [0, 2, 0, 0])
)


@pytest.mark.parametrize("label", QUOTIENT_RINGS)
@settings(max_examples=40, deadline=None)
@given(x_terms=terms, y_terms=terms)
@example(x_terms=[ONE, FIRST], y_terms=[ONE, FIRST, SECOND])  # the rewritten lead product meets the 1
@example(x_terms=[FIRST_SQUARED], y_terms=[ONE, SECOND_SQUARED])  # uosp: a^2*ad^2 is rewritten twice
def test_product_matches_the_term_by_term_reference(label, x_terms, y_terms):
    ring = QUOTIENT_RINGS[label]
    x, y = build(ring, x_terms), build(ring, y_terms)
    product = x * y
    assert product == reference_product(x, y)
    assert product == ring.sum_of_products([(x, y)])
    assert_stored_form(product)


@pytest.mark.parametrize("label", RINGS)
@settings(max_examples=30, deadline=None)
@given(recipes=st.lists(st.tuples(terms, terms), max_size=4), cancel=st.booleans())
def test_sum_of_products_is_the_sum_of_the_products(label, recipes, cancel):
    ring = RINGS[label]
    pairs = [(build(ring, a), build(ring, b)) for a, b in recipes]
    if cancel and pairs:
        pairs.append((-pairs[0][0], pairs[0][1]))  # cancels the first pair's product
    total = ring.sum_of_products(pairs)
    assert total == ring.sum(x * y for x, y in pairs)
    assert total == ring.sum_of_products(iter(pairs))  # a one-pass iterable will do
    assert_stored_form(total)
    if cancel and len(pairs) == 2:
        assert total.is_zero() and total.terms == {}


@pytest.mark.parametrize("label", RINGS)
def test_operands_of_another_ring_or_kind_are_refused(label):
    ring = RINGS[label]
    x = ring.one() + ring.generator(ring.odd_names[0])
    other = grassmann_ring(5).one()
    for pairs in ([(x, other)], [(other, x)], [(x, x), (x, other)]):
        with pytest.raises(RingMismatchError):
            ring.sum_of_products(pairs)
    with pytest.raises(RingMismatchError):
        x * other
    with pytest.raises(RingMismatchError):
        ring.sum([x, other])
    for pairs in ([(x, 3)], [("x", x)], [(x, x), (x, None)]):
        with pytest.raises(TypeError):
            ring.sum_of_products(pairs)
    with pytest.raises(TypeError):
        x * "x"
    assert ring.sum_of_products([]) == ring.zero()


groups = st.lists(st.lists(st.tuples(terms, terms), max_size=3), max_size=4)
# Three groups, the middle one empty and the last one cancelling to zero.
THREE_GROUPS = [[([ONE, FIRST], [SECOND])], [], [([ONE], [FIRST]), ([(0, -1, 1, [0] * 4, 1, False)], [FIRST])]]


@pytest.mark.parametrize("label", GROUP_RINGS)
@settings(max_examples=30, deadline=None)
@given(recipes=groups)
@example(recipes=THREE_GROUPS)
@example(recipes=[[([ONE], [ONE])], [([FIRST], [FIRST])], [([SECOND], [ONE, SECOND])]])
def test_sums_of_products_are_the_sums_of_each_group(label, recipes):
    ring = GROUP_RINGS[label]
    built = [[(build(ring, a), build(ring, b)) for a, b in group] for group in recipes]
    sums = ring.sums_of_products(built)
    assert sums == [ring.sum_of_products(pairs) for pairs in built]
    assert sums == [ring.sum(x * y for x, y in pairs) for pairs in built]
    # A one-pass iterator of one-pass iterators will do.
    assert ring.sums_of_products(iter(pairs) for pairs in built) == sums
    for total in sums:
        assert_stored_form(total)


@pytest.mark.parametrize("label", GROUP_RINGS)
def test_sums_of_products_keep_empty_and_cancelling_groups(label):
    ring = GROUP_RINGS[label]
    x, y = build(ring, [ONE, FIRST]), build(ring, [SECOND, ONE])
    assert ring.sums_of_products([]) == []
    assert ring.sums_of_products([[]]) == [ring.zero()]
    sums = ring.sums_of_products([[(x, y)], [], [(x, y), (-x, y)], [(y, x)]])
    assert sums == [x * y, ring.zero(), ring.zero(), y * x]
    assert sums[1].terms == {} and sums[2].terms == {}


@pytest.mark.parametrize("label", GROUP_RINGS)
def test_sums_of_products_refuse_a_foreign_operand_in_the_last_group(label):
    ring = GROUP_RINGS[label]
    x = build(ring, [ONE, FIRST])
    other = grassmann_ring(5).one()
    for last in ([(x, other)], [(other, x)]):
        with pytest.raises(RingMismatchError):
            ring.sums_of_products([[(x, x)], [], last])
    with pytest.raises(TypeError):
        ring.sums_of_products([[(x, x)], [(x, 3)]])
