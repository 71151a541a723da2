"""Maps that merge no two terms visit each term once: no ``collect``, and the ket is involuted once per bra."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import superalg.scalars as scalars
import superalg.superring as superring
from superalg.landi import inner, make_bra, make_uosp_ring, pi_apply, projector_p
from superalg.scalars import IntegerModRing, RationalRing
from superalg.spheres import z6_ring
from superalg.suites import featured_rings, random_element, random_homogeneous
from superalg.supermodule import FreeType, ModElement, SuperMorphism, _koszul
from superalg.superring import Involution, SuperElement, SuperRing

# The featured rings, and two more with an involution besides uosp's.
FOUR = ("b1", "b2", "b3", "b4")
RINGS = featured_rings() + (
    ("z6-paired", SuperRing(IntegerModRing(6), ("xi1", "xi2"), Involution([], [("xi1", "xi2")]))),
    ("rational-4", SuperRing(RationalRing(), FOUR, Involution([], [("b1", "b3"), ("b2", "b4")]))),
)


@pytest.fixture
def collect_calls(monkeypatch):
    """The list of ``collect`` calls made through ``superring`` or ``scalars`` while the test runs."""
    calls, original = [], scalars.collect

    def counted(ring, pairs):
        calls.append(ring)
        return original(ring, pairs)

    monkeypatch.setattr(scalars, "collect", counted)
    monkeypatch.setattr(superring, "collect", counted)
    return calls


@pytest.mark.parametrize("label, ring", RINGS, ids=[label for label, _ in RINGS])
def test_maps_that_merge_no_terms_make_no_collect_call(label, ring, collect_calls):
    rng = random.Random(5)
    xs = [random_element(rng, ring) for _ in range(6)]
    a = random_homogeneous(rng, ring, 1)
    phi = SuperMorphism(ring, FreeType(1, 1), FreeType(2, 1), [xs[:2], xs[2:4], xs[4:]])
    vector = ModElement(ring, FreeType(1, 1), xs[:2])
    del collect_calls[:]
    for x in xs:
        ring.element(x.terms)
        x.scale(3)
        _koszul(x, 1)
        if ring.involution is not None:
            x.involute()
    phi.degree()
    vector.left_mul(a)
    assert collect_calls == []


def test_sums_and_json_input_still_collect(collect_calls):
    ring = z6_ring()
    x = ring.odd_gen("xi1") + ring.one()
    ring.sum([x, x])
    SuperElement.terms_from_json(ring, x.terms_to_json())
    assert len(collect_calls) == 3


def degree_by_parts(phi):
    """The definition: the degree d whose homogeneous part is the whole morphism, or None."""
    for degree in (0, 1):
        if phi.homogeneous_part(degree) == phi:
            return degree
    return None


Z6 = z6_ring()
ranks = st.integers(min_value=0, max_value=2)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.tuples(ranks, ranks, ranks, ranks),
    kind=st.sampled_from(["zero", "even", "odd", "mixed"]),
)
@example(seed=0, shape=(0, 0, 1, 1), kind="mixed")
@example(seed=1, shape=(1, 0, 0, 1), kind="odd")
@example(seed=2, shape=(2, 1, 1, 2), kind="even")
@example(seed=3, shape=(1, 1, 1, 1), kind="zero")
def test_degree_is_the_homogeneous_part_definition(seed, shape, kind):
    rng = random.Random(seed)
    source, target = FreeType(*shape[:2]), FreeType(*shape[2:])

    def entry(i, j):
        if kind == "zero":
            return Z6.zero()
        if kind == "mixed":
            return random_element(rng, Z6)
        return random_homogeneous(rng, Z6, (kind == "odd") ^ target.parities[i] ^ source.parities[j])

    phi = SuperMorphism(Z6, source, target, [[entry(i, j) for j in range(source.size)] for i in range(target.size)])
    assert phi.degree() == degree_by_parts(phi)


def test_degree_reads_the_target_parities():
    xi1 = Z6.odd_gen("xi1")
    # An odd coefficient on an odd target vector from an even source vector: degree 0.
    phi = SuperMorphism(Z6, FreeType(1, 0), FreeType(0, 1), [[xi1]])
    assert phi.degree() == degree_by_parts(phi) == 0
    assert SuperMorphism(Z6, FreeType(0, 1), FreeType(1, 0), [[xi1]]).degree() == 0
    assert SuperMorphism(Z6, FreeType(1, 0), FreeType(1, 0), [[xi1]]).degree() == 1
    assert SuperMorphism(Z6, FreeType(0, 0), FreeType(0, 0), []).degree() == 0


def test_degree_of_the_projector_is_the_definition():
    p = projector_p(2)
    assert p.degree() == degree_by_parts(p) == 0
    mixed = p + SuperMorphism.scalar(p.ring, p.source, p.ring.odd_gen("eta"))
    assert mixed.degree() is degree_by_parts(mixed) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_bra_involutes_each_entry_once(n, monkeypatch, fresh_ring_table):  # so the bra is built here
    ring = make_uosp_ring()
    calls, original = [], SuperElement.involute
    monkeypatch.setattr(SuperElement, "involute", lambda x: calls.append(x) or original(x))
    bra = make_bra(n, ring)
    assert inner(bra) == bra.ring.one()
    p = bra.projector()
    v = ModElement(bra.ring, bra.ftype, bra.ket)
    assert pi_apply(bra, v) == v == p.apply(v)
    assert len(calls) == 2 * n + 1
