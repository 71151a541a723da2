"""Sparse sums store no zero coefficient at any level: the invariant ``collect`` owns."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from superalg.scalars import IntegerModRing, PolyQuotientRing, RadicalGaussianRing, collect
from superalg.spheres import z6_ring
from superalg.suites import featured_rings, random_element
from superalg.superanalysis import Jet, cos_jet, sin_jet, trig_coeff_ring, trig_super_ring
from superalg.superring import grassmann_ring

RINGS = featured_rings() + (
    ("trig-3", trig_super_ring(3)),
    ("grassmann-3-radical", grassmann_ring(3, RadicalGaussianRing())),
)


def assert_sparse_value(ring, value):
    """No zero scalar is stored inside a (possibly nested) coefficient value."""
    if isinstance(ring, PolyQuotientRing):
        for _, c in ring.monomials(value):
            assert c
            assert_sparse_value(ring.base, c)
    elif isinstance(ring, RadicalGaussianRing):
        assert all(value.values())


def assert_sparse(x):
    for c in x.terms.values():
        assert c
        assert_sparse_value(x.ring.coeff, c)


def test_collect_sums_per_key_and_drops_zero_sums():
    z6 = IntegerModRing(6)
    assert collect(z6, [(0, 2), (1, 3), (0, 4), (2, 0), (1, 1)]) == {1: 4}
    assert collect(z6, []) == {}


@pytest.mark.parametrize("label, ring", RINGS, ids=[label for label, _ in RINGS])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_element_operations_store_no_zero(label, ring, seed):
    rng = random.Random(seed)
    x, y = random_element(rng, ring), random_element(rng, ring)
    results = [x + y, x - y, x * y, y * x, x * y - y * x]
    if ring.involution is not None:
        results += [x.involute(), (x * y).involute()]
    for r in results:
        assert_sparse(r)
    assert (x - x).terms == {}


def test_z6_cancellation_leaves_no_terms():
    ring = z6_ring()
    two, three = ring.from_fraction(2), ring.from_fraction(3)
    xi1, xi2 = ring.odd_gen("xi1"), ring.odd_gen("xi2")
    assert (two * three).terms == {}
    assert ((two * xi1) * (three * xi2)).terms == {}
    assert (three * xi1 + three * xi1).terms == {}
    product = (two + xi1) * (three + xi1)  # 6 + 5*xi1 = 5*xi1 in Z6
    assert product.terms == {0b01: 5}


def test_radical_cancellation_leaves_no_terms():
    rad = RadicalGaussianRing()
    root2 = rad.sqrt_int(2)
    assert rad.add(rad.mul(root2, root2), rad.from_int(-2)) == {}
    ring = grassmann_ring(2, rad)
    x = ring.from_coeff(root2) * ring.odd_gen_at(1)
    assert (x * ring.from_coeff(root2) - ring.odd_gen_at(1).scale(2)).terms == {}


def test_jet_sums_and_products_store_no_zero():
    ring = trig_coeff_ring()
    s, c = sin_jet(4, ring), cos_jet(4, ring)
    minus_s = Jet(1, 4, ring, {k: ring.neg(v) for k, v in s.table.items()})
    assert (s + minus_s).is_zero()
    for jet in (s + c, s * c, s * s + c * c, s * minus_s):
        for v in jet.table.values():
            assert v
            assert_sparse_value(ring, v)


def test_z6_jet_product_cancels_to_zero():
    z6 = IntegerModRing(6)
    u = Jet(1, 1, z6, {(0,): 2, (1,): 2})
    v = Jet(1, 1, z6, {(0,): 3, (1,): 3})
    assert (u * v).is_zero()  # 6 + (2*3 + 2*3) t = 0 in Z6
    assert (u + u + u).is_zero()
