"""The element generators draw exactly what ``random.Random``'s own methods drew.

``superalg.suites`` draws every trial from ``rng.getrandbits``.  The reference
here is the earlier form of the generators, which called ``rng.randint``,
``choice``, ``randrange`` and ``sample``: for every ring and seed the two give
equal elements, consume the stream alike (the next ``rng.random()`` agrees),
and fail at the same draw when the ring cannot hold a drawn fraction.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest

from superalg.errors import DomainError
from superalg.scalars import GaussianRationalRing, IntegerModRing, PolyQuotientRing, collect
from superalg.spheres import sphere_ring
from superalg.suites import featured_rings, random_element, random_homogeneous
from superalg.superanalysis import trig_super_ring
from superalg.superring import SuperElement, SuperRing, grassmann_ring


# -- the reference: the generators as they were written on ``random.Random``'s methods --


def _reference_sampler(ring):
    coeff = ring.coeff
    if isinstance(coeff, IntegerModRing):
        return lambda rng: coeff.from_int(rng.randrange(coeff.n))
    if coeff.variables:

        def term(rng):
            c = coeff.base.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            exps = [0] * len(coeff.variables)
            for _ in range(rng.randint(0, 2)):
                exps[coeff.variables.index(rng.choice(coeff.variables))] += 1
            return coeff.monomial(exps, c)

        return lambda rng: reduce(coeff.add, [term(rng) for _ in range(rng.randint(1, 2))])
    return lambda rng: coeff.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


def reference_homogeneous(rng, ring, parity):
    sample = _reference_sampler(ring)
    L = ring.odd_count
    if parity == 1 and L == 0:
        return ring.zero()
    terms = []
    for _ in range(rng.randint(1, 3)):
        k = rng.choice([k for k in range(parity, L + 1, 2)])
        bits = 0
        for i in rng.sample(range(L), k):
            bits |= 1 << i
        terms.append((bits, sample(rng)))
    return SuperElement(ring, collect(ring.coeff, terms))


def reference_element(rng, ring):
    return reference_homogeneous(rng, ring, 0) + reference_homogeneous(rng, ring, 1)


# -- the rings: the featured four (grassmann-6 among them), the quotient factories, Gaussian scalars, no odd
# generator, and both of ``sample``'s branches --

RINGS = [
    *featured_rings(),
    ("sphere-2", sphere_ring(2)),
    ("trig-4", trig_super_ring(4)),
    ("grassmann-3-gaussian", grassmann_ring(3, GaussianRationalRing())),
    ("grassmann-0", grassmann_ring(0)),
    ("grassmann-22", grassmann_ring(22)),  # sample's set branch for k <= 5, its pool for k > 5
    ("grassmann-24", grassmann_ring(24)),
]
SEEDS = [0, 1, 7, 103]


def _draws(rng, ring, draw_homogeneous, draw_element):
    """Homogeneous elements of both parities, then whole elements, interleaved, then the next ``rng.random()``."""
    drawn = []
    for _ in range(12):
        drawn += [draw_homogeneous(rng, ring, 0), draw_homogeneous(rng, ring, 1), draw_element(rng, ring)]
    return drawn, rng.random()


@pytest.mark.parametrize("ring", [ring for _, ring in RINGS], ids=[label for label, _ in RINGS])
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_equal_the_reference_and_consume_the_stream_alike(ring, seed):
    expected, expected_next = _draws(random.Random(seed), ring, reference_homogeneous, reference_element)
    got, got_next = _draws(random.Random(seed), ring, random_homogeneous, random_element)
    assert [x.terms for x in got] == [x.terms for x in expected]
    assert got_next == expected_next


def test_a_seed_draws_the_same_elements_again_in_one_process():
    """The sampler shared per ring keeps values, never a draw: a seed drawn twice gives equal elements."""
    for _, ring in featured_rings():
        first, second = (_draws(random.Random(5), ring, random_homogeneous, random_element) for _ in range(2))
        assert [x.terms for x in first[0]] == [x.terms for x in second[0]] and first[1] == second[1]


def test_a_fraction_the_ring_cannot_hold_fails_only_when_drawn():
    """Over a quotient of Z/6 a drawn denominator 2 or 3 raises ``DomainError`` at that draw, every time."""
    ring = SuperRing(PolyQuotientRing(IntegerModRing(6), ("x",)), ("b1", "b2"))
    outcomes = set()
    for seed in range(40):
        results = []
        for homogeneous in (reference_homogeneous, random_homogeneous):
            rng, drawn = random.Random(seed), []
            try:
                for _ in range(3):
                    drawn.append(homogeneous(rng, ring, 0).terms)
                error = None
            except DomainError as exc:
                error = str(exc)
            results.append((drawn, error, rng.random()))
        assert results[0] == results[1]
        outcomes.add(results[0][1] is None)
    assert outcomes == {True, False}  # some seeds draw only denominator 1, others fail


def test_a_ring_with_no_descriptor_still_draws():
    """A modulus past the digit limit gives a ring that cannot be keyed: its sampler is built per call."""
    ring = SuperRing(IntegerModRing(10**5000 + 1), ("b1", "b2", "b3"))
    expected, expected_next = _draws(random.Random(2), ring, reference_homogeneous, reference_element)
    got, got_next = _draws(random.Random(2), ring, random_homogeneous, random_element)
    assert [x.terms for x in got] == [x.terms for x in expected] and got_next == expected_next
