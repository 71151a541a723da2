import math
import random
from fractions import Fraction

import pytest

from superalg.errors import DomainError
from superalg.landi import (
    inner,
    ket_entries,
    make_bra,
    make_uosp_ring,
    pi_apply,
    projector_p,
)
from superalg.spheres import sphere_ring
from superalg.suites import random_element
from superalg.supermodule import FreeType, ModElement
from superalg.superring import SuperRing


RING = make_uosp_ring()


def sqrt_binomial(n, k):
    """The radical ``sqrt(binom(n, k))`` as an even element of ``RING``."""
    coeff = RING.coeff
    return RING.from_coeff(coeff.from_scalar(coeff.base.sqrt_int(math.comb(n, k))))


def test_ring_relations():
    a, ad = RING.even_gen("a"), RING.even_gen("ad")
    b, bd = RING.even_gen("b"), RING.even_gen("bd")
    eta, etad = RING.odd_gen("eta"), RING.odd_gen("etad")
    assert a * ad + b * bd == RING.one()
    assert (eta * eta).is_zero()
    assert (etad * etad).is_zero()
    assert eta * etad == -(etad * eta)


def test_involution_table():
    a, ad = RING.even_gen("a"), RING.even_gen("ad")
    eta, etad = RING.odd_gen("eta"), RING.odd_gen("etad")
    assert a.involute() == ad
    assert ad.involute() == a
    assert eta.involute() == etad
    assert (eta * etad).involute() == eta * etad


def test_bra_shape_and_parities():
    for n in (1, 2, 3):
        bra = make_bra(n, RING)
        assert bra.ftype == FreeType(n + 1, n)
        for entry in bra.entries[: n + 1]:
            assert entry.parity() == 0
        for entry in bra.entries[n + 1 :]:
            assert entry.parity() == 1


def test_bra_n1_displayed_entries():
    bra = make_bra(1, RING)
    ad, bd = RING.even_gen("ad"), RING.even_gen("bd")
    eta, etad = RING.odd_gen("eta"), RING.odd_gen("etad")
    correction = RING.one() - (eta * etad).scale(Fraction(1, 8))
    assert bra.entries[0] == correction * ad
    assert bra.entries[1] == correction * bd
    assert bra.entries[2] == etad.scale(Fraction(1, 2))


def test_bra_n2_carries_formal_radical():
    bra = make_bra(2, RING)
    root2 = sqrt_binomial(2, 1)
    ad, bd = RING.even_gen("ad"), RING.even_gen("bd")
    eta, etad = RING.odd_gen("eta"), RING.odd_gen("etad")
    correction = RING.one() - (eta * etad).scale(Fraction(1, 8))
    assert bra.entries[1] == correction * root2 * ad * bd
    assert root2 * root2 == RING.from_fraction(2)


def chained_bra(n):
    """The bra as chains of element products and powers, one factor at a time."""
    ad, bd = RING.even_gen("ad"), RING.even_gen("bd")
    eta, etad = RING.odd_gen("eta"), RING.odd_gen("etad")
    correction = RING.one() - (eta * etad).scale(Fraction(1, 8))
    even = [correction * sqrt_binomial(n, k) * ad ** (n - k) * bd**k for k in range(n + 1)]
    odd = [
        etad.scale(Fraction(1, 2)) * sqrt_binomial(n - 1, j) * ad ** (n - 1 - j) * bd**j
        for j in range(n)
    ]
    return even + odd


@pytest.mark.parametrize("n", range(1, 9))
def test_bra_entries_are_the_chained_products(n):
    entries = make_bra(n, RING).entries
    chained = chained_bra(n)
    assert list(entries) == chained
    assert [e.to_json() for e in entries] == [e.to_json() for e in chained]


def _refused_twice_storing_nothing(n, ring, message):
    """``make_bra(n, ring)`` raises ``DomainError`` on two calls, and keeps nothing on the ring (uosp's for ``None``)."""
    kept_on = (ring or make_uosp_ring())._shared
    before = dict(kept_on)
    for _ in range(2):
        with pytest.raises(DomainError, match=message):
            make_bra(n, ring)
    assert kept_on == before


def test_bra_over_a_ring_without_its_generators_is_refused():
    _refused_twice_storing_nothing(2, sphere_ring(2), "'ad' is not an even generator")


def test_level_bound():
    _refused_twice_storing_nothing(0, RING, "at least 1")
    _refused_twice_storing_nothing(0, None, "at least 1")


def test_one_bra_and_projector_per_level_and_ring():
    uosp = make_uosp_ring()
    bra = make_bra(2)
    assert make_bra(2, uosp) is bra and bra.ring is uosp
    assert projector_p(2) is bra.projector() is projector_p(2, uosp)
    plain = SuperRing(uosp.coeff, ("eta", "etad"))  # uosp's generators with no involution: another ring
    assert make_bra(2, plain).ring is plain
    assert make_bra(2, plain) is not bra and make_bra(2) is bra
    assert make_bra(1) is not bra


@pytest.mark.parametrize("n", [1, 2])
def test_a_shared_projector_is_still_checked_on_every_call(n):
    for _ in range(2):
        p = projector_p(n)
        assert p.compose(p) == p
        assert p.super_adjoint() == p
        assert p.is_idempotent()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inner_is_one(n):
    assert inner(make_bra(n, RING)) == RING.one()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projector_identities(n):
    p = projector_p(n, RING)
    assert p.source == FreeType(n + 1, n)
    assert p.is_idempotent()
    assert p.super_adjoint() == p
    assert p.degree() == 0


def test_projector_n1_top_left_entry():
    p = projector_p(1, RING)
    a, ad = RING.even_gen("a"), RING.even_gen("ad")
    eta, etad = RING.odd_gen("eta"), RING.odd_gen("etad")
    # (1 - 1/8 eta etad)^2 = 1 - 1/4 eta etad since (eta etad)^2 = 0
    expect = (RING.one() - (eta * etad).scale(Fraction(1, 4))) * a * ad
    assert p.matrix[0][0] == expect


def test_pi_is_rank_one_projection():
    rng = random.Random(0)
    for n in (1, 2):
        bra = make_bra(n, RING)
        p = projector_p(n, RING)
        ket = ModElement(RING, bra.ftype, ket_entries(bra))
        assert pi_apply(bra, ket) == ket
        zero = ModElement.zero(RING, bra.ftype)
        assert pi_apply(bra, zero).is_zero()
        for _ in range(5):
            v = ModElement(RING, bra.ftype, [random_element(rng, RING) for _ in range(bra.ftype.size)])
            pv = pi_apply(bra, v)
            assert pi_apply(bra, pv) == pv
            assert p.apply(v) == pv


def test_pi_shape_check():
    bra = make_bra(1, RING)
    wrong = ModElement.zero(RING, FreeType(2, 2))
    with pytest.raises(DomainError):
        pi_apply(bra, wrong)


def test_pi_apply_involutes_the_ket_once_per_bra(monkeypatch, fresh_ring_table):  # so the bra is built here
    import superalg.landi as landi

    ring = make_uosp_ring()
    calls = []
    original = landi.ket_entries
    monkeypatch.setattr(landi, "ket_entries", lambda bra: calls.append(bra) or original(bra))
    bra = make_bra(2, ring)
    rng = random.Random(3)
    v = ModElement(ring, bra.ftype, [random_element(rng, ring) for _ in range(bra.ftype.size)])
    for _ in range(4):
        v = pi_apply(bra, v)
    assert len(calls) == 1
    assert bra.ket == original(bra)
