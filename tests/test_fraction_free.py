"""Fraction-free products over Q against a per-pair ``Fraction`` oracle.

``SuperElement.__mul__`` clears each operand's denominators once, multiplies
and sums in ints and divides once per output term, when the operands have at
least ``RationalRing.CLEAR_MIN_PAIRS`` pairs; a smaller product stays in Q.
The oracle here multiplies every pair of terms as ``Fraction``s, with the
sign counted pair by pair.  The ``regime`` fixture runs each case as it
comes and again with every product cleared.  Every result must keep the
stored form: ``int`` exactly when integral, and no zero stored.  A pinned
count fails if a dense product falls back to per-pair rational arithmetic,
and another if a dense square forms more than one product per unordered pair.
"""

import random
from collections import Counter
from copy import copy
from fractions import Fraction

import pytest

from superalg.scalars import _INTEGERS, RationalRing
from superalg.superanalysis import sqrt_even, sqrt_even_binomial
from superalg.superring import grassmann_ring

L = 8
RING = grassmann_ring(L)


@pytest.fixture(params=["as-sized", "all-cleared"])
def regime(request, monkeypatch):
    if request.param == "all-cleared":
        monkeypatch.setattr(RationalRing, "CLEAR_MIN_PAIRS", 0)
    return request.param


def _sign(b1, b2, n):
    """``(-1)**k`` for ``k`` the pairs ``i`` in ``b1``, ``j`` in ``b2`` with ``i > j``: an inversion count."""
    inversions = sum(1 for i in range(n) for j in range(i) if b1 >> i & 1 and b2 >> j & 1)
    return -1 if inversions % 2 else 1


def reference_product(x, y):
    """The product of ``x`` and ``y`` as a dict of nonzero ``Fraction``s, one pair of terms at a time."""
    n = x.ring.odd_count
    out = {}
    for b1, c1 in x.terms.items():
        for b2, c2 in y.terms.items():
            if not b1 & b2:
                out[b1 | b2] = out.get(b1 | b2, Fraction(0)) + _sign(b1, b2, n) * Fraction(c1) * Fraction(c2)
    return {b: c for b, c in out.items() if c}


def assert_stored_form(x):
    for c in x.terms.values():
        assert c != 0
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), repr(c)


def _rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 1, 2, 3, 4, 6, 7, 12)))


def _element(rng, masks):
    return RING.element({b: _rational(rng) for b in masks})


def _dense(rng):
    return _element(rng, range(1 << L))


def _sparse(rng):
    return _element(rng, rng.sample(range(1 << L), rng.randint(1, 6)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("left, right", [(_dense, _dense), (_dense, _sparse), (_sparse, _dense), (_sparse, _sparse)])
def test_product_matches_the_pairwise_fraction_oracle(seed, left, right, regime):
    rng = random.Random(seed)
    x, y = left(rng), right(rng)
    xy = x * y
    assert xy.terms == reference_product(x, y)
    assert_stored_form(xy)


def test_integral_fractions_that_were_not_normalized(regime):
    # ``element`` keeps a value as given, as the benchmark's dense angle does with Fraction(c).
    x = RING.element({0b11: Fraction(3), 0b1100: Fraction(-2), 0b110000: Fraction(1, 2)})
    y = RING.element({0b1000000: Fraction(5), 0: Fraction(4, 1)})
    assert type(x.terms[0b11]) is Fraction
    for product in (x * y, y * x, x * x, y * y):
        assert_stored_form(product)
    assert (x * y).terms == reference_product(x, y)
    assert (x * y).terms[0b1000011] == 15 and type((x * y).terms[0b1000011]) is int


def test_products_that_cancel_to_zero(regime):
    b = [RING.odd_gen_at(i) for i in range(1, L + 1)]
    odd = b[0].scale(Fraction(1, 2)) + b[1].scale(Fraction(1, 3)) + b[2].scale(Fraction(5, 7))
    assert (odd * odd).terms == {}
    # A partial cancellation: the odd-odd part of x*x vanishes, the rest stays.
    x = RING.from_fraction(Fraction(1, 5)) + odd
    assert (x * x).terms == reference_product(x, x)
    assert (x * x).terms[0] == Fraction(1, 25)
    assert_stored_form(x * x)
    # Terms that cancel across different pairs: (b1 b2 + b3 b4)(b1 b2 - b3 b4) = 0.
    u = (b[0] * b[1]).scale(Fraction(2, 3))
    v = (b[2] * b[3]).scale(Fraction(3, 4))
    assert ((u + v) * (u - v)).terms == {}


def test_denominators_that_divide_out_to_an_int(regime):
    b1, b2 = RING.odd_gen_at(1), RING.odd_gen_at(2)
    x = b1.scale(Fraction(1, 2)) + RING.from_fraction(Fraction(3, 4))
    y = b2.scale(2) + RING.from_fraction(Fraction(4, 3))
    xy = x * y
    assert xy.terms == reference_product(x, y)
    assert xy.terms[0] == 1 and type(xy.terms[0]) is int
    assert xy.terms[0b11] == 1 and type(xy.terms[0b11]) is int
    assert xy.terms[0b1] == Fraction(2, 3) and xy.terms[0b10] == Fraction(3, 2)
    assert_stored_form(xy)


def test_an_empty_operand_gives_zero(regime):
    x = _dense(random.Random(5))
    for product in (x * RING.zero(), RING.zero() * x, RING.zero() * RING.zero()):
        assert product.terms == {}


def test_one_integral_operand_and_one_not(regime):
    rng = random.Random(6)
    integral = RING.element({b: rng.randint(-9, 9) or 1 for b in range(0, 1 << L, 3)})
    x = _dense(rng)
    for left, right in ((integral, x), (x, integral)):
        product = left * right
        assert product.terms == reference_product(left, right)
        assert_stored_form(product)
    assert (integral * integral).terms == reference_product(integral, integral)
    assert all(type(c) is int for c in (integral * integral).terms.values())


def test_dense_square_root_with_a_non_integral_body(regime):
    rng = random.Random(7)
    root0 = Fraction(3, 7)
    soul = {b: _rational(rng) for b in range(1, 1 << L) if b.bit_count() % 2 == 0}
    z = RING.from_fraction(root0 * root0) + RING.element(soul)
    x = sqrt_even(z, root0)
    assert x == sqrt_even_binomial(z, root0)
    assert x * x == z
    assert_stored_form(x)
    assert len(x.terms) == 1 << (L - 1)  # this seed leaves no even mask of the root at zero


def test_dense_square_makes_no_rational_ring_call(monkeypatch):
    """A dense rational angle at L=10, built like the benchmark's: its square is computed in ints.

    A product with per-pair rational arithmetic made 1,260 ``RationalRing.mul`` and 1,050
    ``RationalRing.add`` calls here for 210 output terms, and a ``Fraction`` per call.
    """
    rng = random.Random(0)
    ring = grassmann_ring(10)
    theta = ring.element({
        (1 << i) | (1 << j): Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
        for i in range(10)
        for j in range(i + 1, 10)
    })
    calls = Counter()
    for name in ("mul", "add"):
        original = getattr(RationalRing, name)

        def counting(self, u, v, name=name, original=original):
            calls[name] += 1
            return original(self, u, v)

        monkeypatch.setattr(RationalRing, name, counting)
    constructed = Counter()
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        constructed["Fraction"] += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    square = theta * theta
    monkeypatch.undo()
    assert len(square.terms) == 210
    assert calls == Counter()
    assert constructed["Fraction"] <= len(square.terms)  # at most one per output term
    assert square.terms == reference_product(theta, theta)


def test_dense_square_forms_each_unordered_pair_once(monkeypatch):
    """``x * x`` on all 512 even masks at L=10 forms each of the 7,381 unordered disjoint pairs once, plus (0, 0).

    The general product, ``x * copy(x)``, forms all 14,763 ordered disjoint pairs.
    """
    rng = random.Random(1)
    ring = grassmann_ring(10)
    x = ring.element({
        b: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
        for b in range(1 << 10)
        if b.bit_count() % 2 == 0
    })
    calls = Counter()

    def counting(u, v):
        calls["mul"] += 1
        return u * v

    monkeypatch.setattr(_INTEGERS, "mul", counting)
    square = x * x
    assert calls["mul"] <= 7382
    calls.clear()
    general = x * copy(x)
    assert calls["mul"] == 14763
    monkeypatch.undo()
    assert square == general
