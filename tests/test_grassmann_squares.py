"""Grassmann products that visit only pairs that can be nonzero, against a pair-by-pair reference.

Over a scalar coefficient ring ``SuperElement.__mul__`` finds the right terms
that a left term ``b1`` meets either by scanning the right operand or by
looking up the submasks of the bits ``b1`` leaves free, and a square ``x * x``
forms each unordered pair of terms once, doubled, with no pair of two odd
monomials.  The reference here multiplies every ordered pair of terms, with
the sign counted as inversions, and ``x * y`` for an equal copy ``y`` of ``x``
takes the general path.  Every scalar kind is covered, the rationals with
every product cleared and with none; ``integer_mod`` 2 is the case where
doubling gives 0.  The square rule is taken here for squares of any size,
while ``*`` itself takes it from ``_SQUARE_MIN_TERMS`` terms on.
"""

import random
from copy import copy
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import superalg.superring as superring
from superalg.scalars import GaussianRational, GaussianRationalRing, IntegerModRing, RadicalGaussianRing, RationalRing
from superalg.superring import SuperElement, grassmann_ring

KINDS = {
    "rational-per-pair": RationalRing(),
    "rational-cleared": RationalRing(),
    "gaussian_rational": GaussianRationalRing(),
    "integer_mod-2": IntegerModRing(2),
    "integer_mod-6": IntegerModRing(6),
    "gaussian_radical": RadicalGaussianRing(),
}
CLEAR_MIN_PAIRS = {"rational-per-pair": 10**9, "rational-cleared": 0}


def _value(coeff, rng):
    """A small random nonzero-or-zero coefficient of ``coeff``'s kind."""
    fr = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
    if isinstance(coeff, IntegerModRing):
        return coeff.from_int(rng.randint(0, coeff.n - 1))
    if isinstance(coeff, GaussianRationalRing):
        return GaussianRational(fr, Fraction(rng.randint(-2, 2), rng.choice((1, 3))))
    if isinstance(coeff, RadicalGaussianRing):
        return coeff.mul(coeff.from_fraction(fr), coeff.sqrt_int(rng.choice((1, 2, 3, 8))))
    return coeff.from_fraction(fr)


def element(ring, masks, seed):
    rng = random.Random(seed)
    return ring.element({b: _value(ring.coeff, rng) for b in masks})


def inversions(b1, b2):
    """Pairs ``i > j`` with generator ``i`` in ``b1`` and ``j`` in ``b2``."""
    return sum(1 for i in range(b1.bit_length()) for j in range(i) if b1 >> i & 1 and b2 >> j & 1)


def reference_product(x, y):
    """``x * y`` as a dict, one ordered pair of terms at a time."""
    coeff = x.ring.coeff
    out = {}
    for b1, c1 in x.terms.items():
        for b2, c2 in y.terms.items():
            if not b1 & b2:
                c = coeff.mul(c1, c2)
                if inversions(b1, b2) % 2:
                    c = coeff.neg(c)
                out[b1 | b2] = coeff.add(out[b1 | b2], c) if b1 | b2 in out else c
    return {b: c for b, c in out.items() if c}


@pytest.fixture(params=KINDS)
def kind(request, monkeypatch):
    # Every square here takes the square rule, however few its terms.
    monkeypatch.setattr(superring, "_SQUARE_MIN_TERMS", 0)
    if request.param in CLEAR_MIN_PAIRS:
        monkeypatch.setattr(RationalRing, "CLEAR_MIN_PAIRS", CLEAR_MIN_PAIRS[request.param])
    return request.param


def masks_of(L, parity, density, rng):
    """Masks of ``L`` bits: of one parity or both, all of them or a few."""
    masks = [b for b in range(1 << L) if parity is None or b.bit_count() % 2 == parity]
    if density == "sparse":
        masks = rng.sample(masks, min(len(masks), rng.randint(1, 6)))
    return masks


shapes = st.tuples(
    st.integers(0, 10),
    st.sampled_from([0, 1, None]),  # even, odd, mixed
    st.sampled_from(["sparse", "dense"]),
    st.integers(0, 2**32),
)


# ``kind`` patches the class once for the whole test, so every example runs in one regime.
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=shapes)
def test_square_matches_the_reference_and_the_general_product(kind, shape):
    L, parity, density, seed = shape
    coeff = KINDS[kind]
    if density == "dense" and L > (8 if isinstance(coeff, RadicalGaussianRing) else 9) and parity is None:
        L -= 2  # keep the reference's ordered pairs in the tens of thousands
    ring = grassmann_ring(L, coeff)
    x = element(ring, masks_of(L, parity, density, random.Random(seed)), seed)
    square = x * x
    assert square.terms == reference_product(x, x)
    assert square == x * SuperElement(ring, dict(x.terms))
    assert all(square.terms.values())
    if parity == 1:
        assert square.terms == {}  # an odd element squares to 0


@pytest.mark.parametrize("L", [0, 1, 2, 9, 10])
def test_squares_at_the_edges(kind, L):
    """The body alone, the body with one odd generator, a dense even element and a dense mixed one."""
    coeff = KINDS[kind]
    ring = grassmann_ring(L, coeff)
    cases = [[0], [0, 1] if L else [0], masks_of(L, 0, "dense", None)]
    if L <= 9 and not isinstance(coeff, RadicalGaussianRing):
        cases.append(masks_of(L, None, "dense", None))
    for seed, masks in enumerate(cases):
        x = element(ring, masks, seed)
        assert (x * x).terms == reference_product(x, x)
        assert x * x == x * copy(x)


def _count_walks(monkeypatch):
    calls = []
    walk = superring._submask_terms

    def counting(free, terms, lo):
        calls.append(free)
        return walk(free, terms, lo)

    monkeypatch.setattr(superring, "_submask_terms", counting)
    return calls


@pytest.mark.parametrize("L", [6, 10])
def test_high_grade_times_dense_looks_up_submasks(kind, L, monkeypatch):
    """A left term of grade L-1 leaves one bit free: two lookups beat a scan of the dense right operand."""
    coeff = KINDS[kind]
    ring = grassmann_ring(L, coeff)
    full = (1 << L) - 1
    x = element(ring, [full ^ (1 << i) for i in range(L)] + [full], 1)
    y = element(ring, masks_of(L, None, "dense", None) if L <= 6 else masks_of(L, 0, "dense", None), 2)
    expected = reference_product(x, y)
    walks = _count_walks(monkeypatch)
    assert (x * y).terms == expected
    assert len(walks) == len(x.terms)  # every left term looked its partners up


@pytest.mark.parametrize("L", [6, 10])
def test_dense_times_high_grade_scans(kind, L, monkeypatch):
    """A right operand of three terms is scanned whatever the left term leaves free."""
    coeff = KINDS[kind]
    ring = grassmann_ring(L, coeff)
    full = (1 << L) - 1
    x = element(ring, masks_of(L, None, "dense", None) if L <= 6 else masks_of(L, 0, "dense", None), 3)
    y = element(ring, [full ^ 1, full ^ 2, 0], 4)
    expected = reference_product(x, y)
    walks = _count_walks(monkeypatch)
    assert (x * y).terms == expected
    assert walks == []
