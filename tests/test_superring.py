import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superalg.errors import DomainError
from superalg.scalars import IntegerModRing
from superalg.spheres import sphere_ring
from superalg.superring import Involution, SuperElement, SuperRing, grassmann_ring
from superalg.suites import random_element, random_homogeneous


def random_pair(seed, ring, parities):
    rng = random.Random(seed)
    return [random_homogeneous(rng, ring, p) for p in parities]


elements = st.integers(min_value=0, max_value=10_000)
parity_bits = st.integers(min_value=0, max_value=1)

G4 = grassmann_ring(4)


@settings(max_examples=60)
@given(elements, parity_bits, parity_bits)
def test_super_commutativity(seed, px, py):
    x, y = random_pair(seed, G4, (px, py))
    expected = y * x if px * py == 0 else -(y * x)
    assert x * y == expected


@settings(max_examples=60)
@given(elements)
def test_associativity_and_distributivity(seed):
    rng = random.Random(seed)
    x, y, z = (random_element(rng, G4) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@settings(max_examples=60)
@given(elements, parity_bits, parity_bits)
def test_grading_multiplicative(seed, px, py):
    x, y = random_pair(seed, G4, (px, py))
    xy = x * y
    assert xy.is_zero() or xy.parity() == (px + py) % 2


def test_generator_relations():
    b1, b2 = G4.odd_gen("b1"), G4.odd_gen("b2")
    assert (b1 * b1).is_zero()
    assert b2 * b1 == -(b1 * b2)
    assert (G4.one() + b1) * (G4.one() - b1) == G4.one()


def test_example_2_6_small_case():
    # x = sum of b_i b_j over i < j <= 4: coefficient of b1b2b3b4 in x^2 is 2
    ring = grassmann_ring(4)
    x = ring.zero()
    for i in range(4):
        for j in range(i + 1, 4):
            x = x + ring.element({(1 << i) | (1 << j): ring.coeff.one()})
    sq = x * x
    assert sq.terms[0b1111] == Fraction(2)


def test_powers_and_nilpotency():
    ring = grassmann_ring(2)
    x = ring.odd_gen_at(1) + ring.odd_gen_at(2)
    assert x.is_nilpotent()
    assert (x ** 3).is_zero()
    assert (ring.one() + ring.odd_gen_at(1)).is_nilpotent() is False
    # Over Z/n the body decides: 2 is nilpotent mod 4 and mod 8, not mod 6; 3 is not mod 6.
    for n, body, nilpotent in ((4, 2, True), (8, 2, True), (6, 2, False), (6, 3, False)):
        zn = grassmann_ring(1, IntegerModRing(n))
        y = zn.from_fraction(body) + zn.odd_gen_at(1)
        assert y.is_nilpotent() is nilpotent, (n, body)
        assert (y ** n).is_zero() is nilpotent, (n, body)
    assert x ** 0 == ring.one()
    with pytest.raises(DomainError):
        x ** -1


def test_power_squares_only_while_bits_remain(monkeypatch):
    """``x ** n`` makes one squaring per bit below the top and one product per set bit past the lowest.

    So no product with one: ``x**1``, ``x**2`` and ``x**5`` make 0, 1 and 3,
    over a Grassmann ring and over a sphere (quotient) ring alike.
    """
    ring = grassmann_ring(6)
    b = ring.odd_gen_at
    x = ring.from_fraction(2) + b(1) * b(2) - b(2) * b(3) + b(3) * b(4) * b(5) * b(6) + b(5)
    sphere = sphere_ring(2, odd_names=("b1", "b2"))
    y = sphere.even_gen("x1") + sphere.odd_gen_at(1) * sphere.odd_gen_at(2)
    multiply = SuperElement.__mul__
    calls = 0

    def counting(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    monkeypatch.setattr(SuperElement, "__mul__", counting)
    for z in (x, y):
        expected = z.ring.one()
        for n in range(1, 10):
            calls = 0
            power = z ** n
            assert calls == n.bit_count() + n.bit_length() - 2, n
            expected = multiply(expected, z)
            assert power == expected


@pytest.mark.parametrize("index", [0, 3])
def test_odd_gen_at_rejects_out_of_range_index(index):
    with pytest.raises(DomainError, match="outside 1..2"):
        grassmann_ring(2).odd_gen_at(index)


def test_body_soul():
    ring = grassmann_ring(3)
    x = ring.from_fraction(Fraction(3, 2)) + ring.odd_gen_at(1) * ring.odd_gen_at(2)
    assert x.body() == Fraction(3, 2)
    assert x.soul() == ring.odd_gen_at(1) * ring.odd_gen_at(2)
    assert x.soul() + ring.from_coeff(x.body()) == x
    # body is multiplicative and additive
    y = ring.one() + ring.odd_gen_at(3)
    assert (x * y).body() == x.body() * y.body()
    assert (x + y).body() == x.body() + y.body()


def test_grade_split():
    ring = grassmann_ring(2)
    x = ring.one() + ring.odd_gen_at(1) + ring.odd_gen_at(1) * ring.odd_gen_at(2)
    even, odd = x.grade_split()
    assert even + odd == x
    assert even.parity() == 0 and odd.parity() == 1
    assert x.parity() is None


def test_scale_and_int_multiples():
    ring = grassmann_ring(1)
    b = ring.odd_gen_at(1)
    assert b.scale(Fraction(1, 2)) + b.scale(Fraction(1, 2)) == b
    assert 2 * b == b + b == b * 2


class TestInvolution:
    def make_ring(self):
        inv = Involution(odd_pairs=[("eta", "etad")])
        return SuperRing(IntegerModRing(6), ("eta", "etad"), inv)  # any coeff works

    def make_rational_ring(self):
        inv = Involution(odd_pairs=[("eta", "etad")])
        from superalg.scalars import RationalRing

        return SuperRing(RationalRing(), ("eta", "etad"), inv)

    def test_pairs(self):
        ring = self.make_rational_ring()
        eta, etad = ring.odd_gen("eta"), ring.odd_gen("etad")
        assert eta.involute() == etad
        assert etad.involute() == -eta  # the sign realizing (x**)** = -x on odds

    def test_double_involution_sign(self):
        ring = self.make_rational_ring()
        eta, etad = ring.odd_gen("eta"), ring.odd_gen("etad")
        for odd in (eta, etad, eta + etad):
            assert odd.involute().involute() == -odd
        even = ring.one() + eta * etad
        assert even.involute().involute() == even

    def test_product_rule(self):
        # (xy)** = (-1)^(|x||y|) y** x**
        ring = self.make_rational_ring()
        eta, etad = ring.odd_gen("eta"), ring.odd_gen("etad")
        assert (eta * etad).involute() == -(etad.involute() * eta.involute())
        assert (eta * etad).involute() == eta * etad

    def test_requires_table(self):
        ring = grassmann_ring(2)
        with pytest.raises(DomainError):
            ring.one().involute()


def test_to_text_is_canonical():
    ring = grassmann_ring(3)
    x = ring.odd_gen_at(3) * ring.odd_gen_at(1) + ring.from_fraction(Fraction(-1, 2))
    assert x.to_text() == "-1/2 + -1*b1*b3"
    assert ring.zero().to_text() == "0"


@settings(max_examples=40)
@given(elements)
def test_element_json_round_trip(seed):
    rng = random.Random(seed)
    for ring in (grassmann_ring(3), SuperRing(IntegerModRing(6), ("xi1", "xi2"))):
        x = random_element(rng, ring)
        assert SuperElement.from_json(x.to_json()) == x


def test_ring_json_round_trip():
    inv = Involution(odd_pairs=[("eta", "etad")])
    ring = SuperRing(IntegerModRing(6), ("eta", "etad"), inv)
    rebuilt = SuperRing.from_json(ring.to_json())
    assert rebuilt == ring
    assert rebuilt.involution == inv


def test_involution_pairs_given_as_lists_build_the_same_ring():
    from superalg.landi import make_uosp_ring

    uosp = make_uosp_ring()
    inv = Involution(even_pairs=[["a", "ad"], ["b", "bd"]], odd_pairs=[["eta", "etad"]])
    listed = SuperRing(uosp.coeff, ("eta", "etad"), inv)
    assert inv == uosp.involution and hash(inv) == hash(uosp.involution)
    assert listed == uosp and listed.to_json() == uosp.to_json()
    eta = uosp.odd_gen("eta")
    assert listed.odd_gen("eta") + eta == eta + eta  # no RingMismatchError


def test_capacity_and_duplicates():
    from superalg.errors import CapacityError

    with pytest.raises(CapacityError):
        grassmann_ring(65)
    with pytest.raises(DomainError):
        SuperRing(IntegerModRing(6), ("a", "a"))
