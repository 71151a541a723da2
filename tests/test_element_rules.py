"""The element layer's rules: the n-ary sum, the scalar multiple, the involution sign and its table."""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from superalg.errors import DomainError, RingMismatchError
from superalg.scalars import GaussianRationalRing, IntegerModRing, PolyQuotientRing, RationalRing, Relation
from superalg.spheres import sphere_coeff_ring, z6_ring
from superalg.suites import featured_rings, random_element, random_homogeneous
from superalg.superanalysis import trig_super_ring
from superalg.superring import Involution, SuperRing, grassmann_ring

RINGS = featured_rings() + (("trig-3", trig_super_ring(3)),)
IDS = [label for label, _ in RINGS]
seeds = st.integers(min_value=0, max_value=10_000)


def stores_no_zero(x):
    coeff = x.ring.coeff
    for c in x.terms.values():
        if not c:
            return False
        if isinstance(coeff, PolyQuotientRing) and any(not s for _, s in coeff.monomials(c)):
            return False
    return True


@pytest.mark.parametrize("label, ring", RINGS, ids=IDS)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, count=st.integers(min_value=0, max_value=5))
def test_sum_is_the_left_fold_of_add(label, ring, seed, count):
    rng = random.Random(seed)
    xs = [random_element(rng, ring) for _ in range(count)]
    if xs and rng.random() < 0.5:
        xs.append(-xs[0])  # a cancellation inside one pass
    total = ring.sum(xs)
    assert total == reduce(lambda a, b: a + b, xs, ring.zero())
    assert stores_no_zero(total)


def test_sum_of_nothing_is_zero_and_accepts_a_generator():
    ring = grassmann_ring(3)
    assert ring.sum([]).terms == {}
    gens = (ring.odd_gen_at(i) for i in (1, 2, 3))
    assert ring.sum(gens) == ring.odd_gen_at(1) + ring.odd_gen_at(2) + ring.odd_gen_at(3)


def test_sum_rejects_an_element_of_another_ring():
    ring = grassmann_ring(2)
    with pytest.raises(RingMismatchError):
        ring.sum([ring.one(), grassmann_ring(3).one()])


@pytest.mark.parametrize("label, ring", RINGS, ids=IDS)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, num=st.integers(min_value=-6, max_value=6), den=st.sampled_from([1, 5, 7]))
def test_scale_matches_product_with_a_constant(label, ring, seed, num, den):
    x = random_element(random.Random(seed), ring)
    fr = Fraction(num, den)
    scaled = x.scale(fr)
    assert scaled == x * ring.from_fraction(fr)
    assert stores_no_zero(scaled)


def test_scale_drops_zero_products_over_z6():
    ring = z6_ring()
    xi1 = ring.odd_gen("xi1")
    assert (3 * xi1).scale(2).terms == {}
    assert (3 * xi1 + xi1).scale(3).terms == {}  # 4*3 = 0 in Z6
    assert ring.one().scale(0).terms == {}


# A rational ring on six odd generators whose involution pairs b1/b4, b2/b6 and
# b3/b5, so monomials of up to six factors cross the pairs in every order.
SIX = SuperRing(
    RationalRing(),
    tuple(f"b{i}" for i in range(1, 7)),
    Involution(odd_pairs=[("b1", "b4"), ("b2", "b6"), ("b3", "b5")]),
)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, px=st.integers(0, 1), py=st.integers(0, 1))
def test_involution_product_rule_on_six_generators(seed, px, py):
    rng = random.Random(seed)
    x, y = random_homogeneous(rng, SIX, px), random_homogeneous(rng, SIX, py)
    expected = y.involute() * x.involute()
    assert (x * y).involute() == (-expected if px * py else expected)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, parity=st.integers(0, 1))
def test_double_involution_sign_on_six_generators(seed, parity):
    x = random_homogeneous(random.Random(seed), SIX, parity)
    assert x.involute().involute() == (-x if parity else x)


def test_involution_of_a_long_monomial():
    b = [SIX.odd_gen_at(i) for i in range(1, 7)]
    # (b1 b2 b3)** = b1** b2** b3** = b4 b6 b5 = -b4 b5 b6
    assert (b[0] * b[1] * b[2]).involute() == -(b[3] * b[4] * b[5])
    top = reduce(lambda u, v: u * v, b)
    images = reduce(lambda u, v: u * v, (g.involute() for g in b))
    assert top.involute() == images


def test_involution_table_that_is_not_a_bijection_is_rejected():
    # b1 is paired twice, so b2 and b3 would both be sent to b1.
    with pytest.raises(DomainError, match="not a bijection"):
        SuperRing(
            IntegerModRing(7), ("b1", "b2", "b3"),
            Involution(odd_pairs=[("b1", "b2"), ("b1", "b3")]),
        )


def test_involution_table_that_leaves_an_odd_generator_unpaired_is_rejected():
    # An unpaired b3 would be fixed, so (b3**)** = b3 where the convention requires -b3.
    with pytest.raises(DomainError, match="involution table leaves odd generator 'b3' unpaired"):
        SuperRing(RationalRing(), ("b1", "b2", "b3"), Involution(odd_pairs=[("b1", "b2")]))
    with pytest.raises(DomainError, match="leaves odd generator 'b1' unpaired"):
        SuperRing(RationalRing(), ("b1",), Involution())


QUOTIENT = PolyQuotientRing(RationalRing(), ("a", "ad", "b"))


@pytest.mark.parametrize(
    "coeff, involution, message",
    [
        (QUOTIENT, Involution(even_pairs=[("a", "zz")]), "unknown even generator 'zz'"),
        (QUOTIENT, Involution(even_pairs=[("a", "ad"), ("a", "b")]), "'a' is paired twice"),
        (RationalRing(), Involution(even_pairs=[("x", "y")]), "unknown even generator 'x'"),
        (RationalRing(), Involution(odd_pairs=[("b1", "b1")]), "'b1' is paired twice"),
        (RationalRing(), Involution(odd_pairs=[("b1", "b9")]), "unknown odd generator 'b9'"),
    ],
    ids=["unknown-even", "even-twice", "even-on-scalar-ring", "odd-self-pair", "unknown-odd"],
)
def test_involution_table_names_each_ring_generator_once(coeff, involution, message):
    with pytest.raises(DomainError, match=message):
        SuperRing(coeff, ("b1", "b2"), involution)


@pytest.mark.parametrize(
    "pairs", [[("b1", "b2", "b3")], [("b1",)], ["b1"], ["ab"]], ids=["three-names", "one-name", "name", "string"]
)
def test_involution_refuses_a_pair_that_is_not_two_names(pairs):
    with pytest.raises(DomainError, match="'odd_pairs' must be a list of name pairs"):
        Involution(odd_pairs=pairs)


def _uosp_relation_ring(even_pairs):
    plain = PolyQuotientRing(RationalRing(), ("a", "ad", "b", "bd"))
    rhs = plain.sub(plain.one(), plain.mul(plain.var("b"), plain.var("bd")))
    coeff = PolyQuotientRing(RationalRing(), plain.variables, Relation(("a", "ad"), rhs))
    return SuperRing(coeff, ("eta", "etad"), Involution(even_pairs, [("eta", "etad")]))


def test_involution_must_preserve_the_relation():
    ring = _uosp_relation_ring([("a", "ad"), ("b", "bd")])
    a, ad = ring.generator("a"), ring.generator("ad")
    assert (a * ad).involute() == (a * ad)
    for swap in ([("x1", "x2")], [("x0", "x1")], [("x0", "x2"), ("x1", "x1")]):
        SuperRing(sphere_coeff_ring(2), (), Involution(swap))
    with pytest.raises(DomainError, match="does not preserve"):
        _uosp_relation_ring([("a", "b")])
    # x0^2 = i is sent to x0^2 = -i by conjugation alone.
    plain = PolyQuotientRing(GaussianRationalRing(), ("x0",))
    imaginary = PolyQuotientRing(plain.base, ("x0",), Relation(("x0", "x0"), plain.imaginary_unit()))
    SuperRing(imaginary)
    with pytest.raises(DomainError, match="does not preserve"):
        SuperRing(imaginary, (), Involution())
