"""The integer-triple Gaussian type against a Fraction-pair oracle, radical
JSON normal form, ring identities that are built once, the
``(exponents, radicand)`` term keys of a quotient over radical scalars, and
pinned counts of product passes, element products and radicand products in
the supersphere bra and projector and of sparse sums on the ``certify`` path of the cli."""

import json
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from superalg.cli import main
from superalg.errors import DomainError
from superalg.landi import make_bra, make_uosp_ring, projector_p
import superalg.scalars as scalars
from superalg.scalars import (
    GaussianRational,
    GaussianRationalRing,
    PolyQuotientRing,
    RadicalGaussianRing,
    RationalRing,
)
from superalg.spheres import make_sphere_projector
from superalg.superring import SuperElement, SuperRing


class PairGaussian:
    """Reference Gaussian rational: two ``Fraction`` parts, plain formulas."""

    def __init__(self, re, im):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        return PairGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return PairGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return PairGaussian(-self.re, -self.im)

    def __mul__(self, other):
        return PairGaussian(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def conj(self):
        return PairGaussian(self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return PairGaussian(self.re / n, -self.im / n)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i" if self.im != 1 else "i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re}{sign}{istr}"


parts = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(max_denominator=10**6),
    st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-3, 4)]),
)
pairs = st.tuples(parts, parts)


def is_triple(value, ref):
    """``value`` matches the reference and is a reduced triple."""
    return (
        type(value) is GaussianRational
        and value.d > 0
        and math.gcd(value.a, value.b, value.d) == 1
        and (value.re, value.im) == (ref.re, ref.im)
        and str(value) == str(ref)
        and repr(value) == repr(ref)
        and bool(value) == bool(ref)
    )


def agrees(value, ref):
    """``value`` matches the reference in stored form: the ``int`` when it is a real integer, else a reduced triple."""
    if not ref.im and ref.re.denominator == 1:
        return type(value) is int and value == ref.re and str(value) == str(ref) and bool(value) == bool(ref)
    return is_triple(value, ref) and (value.b, value.d) != (0, 1)


@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(x, y):
    u, v = GaussianRational(*x), GaussianRational(*y)
    ru, rv = PairGaussian(*x), PairGaussian(*y)
    assert is_triple(u, ru) and is_triple(v, rv)  # built directly, a real integer too is a triple
    assert agrees(u + v, ru + rv)
    assert agrees(u - v, ru - rv)
    assert agrees(u * v, ru * rv)
    assert agrees(-u, -ru)
    assert agrees(u.conj(), ru.conj())
    if ru:
        assert agrees(u.inverse(), ru.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            u.inverse()


nonzero_parts = parts.filter(bool)


@given(parts, pairs, nonzero_parts)
@example(x=1, y=(2, 0), im=Fraction(1, 3))
def test_products_and_sums_with_an_imaginary_part_match_fraction_pairs(x, y, im):
    """A real operand meets one with a nonzero imaginary part, on either side: the cross terms count."""
    for u, ru in ((GaussianRational(x, 0), PairGaussian(x, 0)), (GaussianRational(*y), PairGaussian(*y))):
        v, rv = GaussianRational(y[0], im), PairGaussian(y[0], im)
        assert agrees(u * v, ru * rv) and agrees(v * u, rv * ru)
        assert agrees(u + v, ru + rv) and agrees(v + u, rv + ru)


@given(pairs, pairs)
def test_equality_and_hash_match_fraction_pairs(x, y):
    u, v = GaussianRational(*x), GaussianRational(*y)
    ru, rv = PairGaussian(*x), PairGaussian(*y)
    assert (u == v) == ((ru.re, ru.im) == (rv.re, rv.im))
    # The same value reached by another route is equal and hashes alike.
    again = GaussianRational(x[0]) + GaussianRational(0, x[1]) * GaussianRational(1)
    assert again == u and hash(again) == hash(u)
    assert (u + v) - v == u and hash((u + v) - v) == hash(u)
    assert u != ru


@given(parts, st.integers(-50, 50))
def test_scale_by_integer_matches_product(x, n):
    u = GaussianRational(x, x)
    assert agrees(u.scale(n), PairGaussian(x, x) * PairGaussian(n, 0))


@given(pairs)
def test_gaussian_json_round_trip(x):
    ring = GaussianRationalRing()
    u = GaussianRational(*x)
    assert ring.value_from_json(ring.value_to_json(u)) == u
    assert ring.value_to_json(u) == {"re": str(PairGaussian(*x).re), "im": str(PairGaussian(*x).im)}


@given(st.dictionaries(st.sampled_from([1, 2, 3, 6, 15]), pairs, max_size=4))
def test_radical_json_round_trip(raw):
    ring = RadicalGaussianRing()
    value = {s: GaussianRational(*x) for s, x in raw.items() if GaussianRational(*x)}
    assert ring.value_from_json(ring.value_to_json(value)) == value


class TestRadicalJsonNormalForm:
    ring = RadicalGaussianRing()

    def test_square_factor_is_extracted(self):
        loaded = self.ring.value_from_json([{"rad": 4, "re": "1", "im": "0"}])
        assert loaded == self.ring.from_int(2)
        loaded = self.ring.value_from_json([{"rad": 12, "re": "1/2", "im": "1"}])
        expected = self.ring.mul(self.ring.sqrt_int(3), self.ring.from_gaussian(GaussianRational(1, 2)))
        assert loaded == expected

    def test_repeated_radicands_are_summed(self):
        item = {"rad": 2, "re": "1", "im": "0"}
        loaded = self.ring.value_from_json([item, item])
        assert loaded == self.ring.mul(self.ring.from_int(2), self.ring.sqrt_int(2))
        cancel = self.ring.value_from_json([item, {"rad": 8, "re": "-1/2", "im": "0"}])
        assert cancel == self.ring.zero()

    @pytest.mark.parametrize("rad", [0, -3, 2.5, None, 2**32 + 1])
    def test_bad_radicand_is_rejected(self, rad):
        with pytest.raises(DomainError):
            self.ring.value_from_json([{"rad": rad, "re": "1", "im": "0"}])


def test_ring_identity_is_built_once(monkeypatch):
    calls = Counter()
    for cls in (PolyQuotientRing, RadicalGaussianRing):

        def counting(self, _original=cls.to_json):
            calls[id(self)] += 1
            return _original(self)

        monkeypatch.setattr(cls, "to_json", counting)
    one = make_uosp_ring()
    # An equal ring built directly: the interned factory would return ``one`` itself.
    coeff = PolyQuotientRing(RadicalGaussianRing(), one.coeff.variables, one.coeff.relation)
    other = SuperRing(coeff, one.odd_names, one.involution)
    assert other == one and other is not one and other.coeff is not one.coeff
    x = one.even_gen("a") + one.odd_gen("eta")
    y = other.even_gen("ad") - other.odd_gen("etad")
    z = one.even_gen("b") * one.odd_gen("etad")
    for _ in range(50):
        x * y
        x * z
    assert (x * y) * z == x * (y * z)
    assert calls[id(coeff)] == 1
    assert max(calls.values()) <= 1  # ``one``'s identity may be built before the test, by another


def test_radical_key_builds_no_fraction(monkeypatch):
    entries = [entry for row in projector_p(2).matrix for entry in row]
    built = []
    original = Fraction.__dict__["__new__"].__func__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for entry in entries:
        hash(entry)
    assert built == []
    Fraction(1, 2)
    assert built == [(1, 2)]  # the counter is live


def test_equal_radical_values_have_equal_keys():
    ring = RadicalGaussianRing()
    two_root_two = ring.mul(ring.from_fraction(2), ring.sqrt_int(2))
    same = [
        ring.sqrt_int(8),
        two_root_two,
        ring.value_from_json([{"rad": 2, "re": "1", "im": "0"}, {"rad": 2, "re": "1", "im": "0"}]),
        ring.value_from_json([{"rad": 8, "re": "2/2", "im": "0"}]),
    ]
    assert all(v == same[0] for v in same)
    assert ring.sqrt_int(2) != two_root_two
    assert ring.mul(ring.sqrt_int(2), ring.from_gaussian(GaussianRational(0, 1))) != ring.sqrt_int(2)
    uosp = make_uosp_ring()
    x = uosp.from_coeff(uosp.coeff.from_scalar(ring.sqrt_int(8)))
    y = uosp.from_coeff(uosp.coeff.from_scalar(two_root_two))
    assert x == y and hash(x) == hash(y)


def test_polynomial_json_sums_repeated_exponent_maps():
    ring = PolyQuotientRing(RadicalGaussianRing(), ("x0", "x1"))
    x1_sq = ring.mul(ring.var("x1"), ring.var("x1"))
    term = {"exps": {"x1": 2}, "c": [{"rad": 2, "re": "1", "im": "0"}]}
    twice = ring.value_from_json([term, term])
    assert twice == ring.mul(ring.from_scalar(ring.base.sqrt_int(8)), x1_sq)
    negated = {"exps": {"x1": 2}, "c": [{"rad": 2, "re": "-1", "im": "0"}]}
    assert ring.value_from_json([term, {"exps": {}, "c": []}, negated]) == ring.zero()


UOSP = make_uosp_ring()
RADICALS = RadicalGaussianRing()


def _radical_scalar(s):
    """``sqrt(s)`` as a value of the uosp coefficient ring."""
    return UOSP.coeff.from_scalar(RADICALS.sqrt_int(s))


def test_cancelling_radicands_leave_the_zero_polynomial():
    coeff = UOSP.coeff
    a = coeff.var("a")
    difference = coeff.sub(_radical_scalar(8), coeff.mul(coeff.from_int(2), _radical_scalar(2)))
    value = coeff.mul(difference, a)
    assert value == {} and not value
    assert coeff.monomials(value) == ()
    partial = coeff.add(coeff.mul(_radical_scalar(2), a), coeff.mul(coeff.neg(_radical_scalar(8)), a))
    assert coeff.monomials(partial) == (((1, 0, 0, 0), {2: GaussianRational(-1)}),)
    for row in projector_p(2).matrix:
        for entry in row:
            for value in entry.terms.values():
                assert all(radical and all(radical.values()) for _, radical in coeff.monomials(value))


def test_json_term_whose_radicands_cancel_is_dropped():
    coeff = UOSP.coeff
    term = {"exps": {"b": 1}, "c": [{"rad": 8, "re": "1", "im": "0"}, {"rad": 2, "re": "-2", "im": "0"}]}
    assert coeff.value_from_json([term]) == {}
    kept = {"exps": {"bd": 2}, "c": [{"rad": 3, "re": "1/2", "im": "0"}]}
    assert coeff.monomials(coeff.value_from_json([term, kept])) == (((0, 0, 0, 2), {3: GaussianRational(Fraction(1, 2))}),)


def test_radicands_multiply_to_a_squarefree_key():
    coeff = UOSP.coeff
    root6 = _radical_scalar(6)
    assert coeff.monomials(coeff.mul(root6, root6)) == (((0, 0, 0, 0), {1: GaussianRational(6)}),)
    assert coeff.mul(root6, root6) == coeff.from_int(6)
    assert coeff.monomials(coeff.mul(_radical_scalar(6), _radical_scalar(10))) == (((0, 0, 0, 0), {15: GaussianRational(2)}),)
    assert coeff.monomials(coeff.mul(root6, coeff.var("b"))) == (((0, 0, 1, 0), {6: GaussianRational(1)}),)


def test_from_scalar_of_the_zero_radical_is_zero():
    coeff = UOSP.coeff
    assert coeff.from_scalar({}) == coeff.zero() == {}
    assert coeff.monomial((1, 0, 0, 0), {}) == {}
    assert UOSP.from_coeff(coeff.from_scalar({})).is_zero()


def test_involution_keeps_radicands():
    coeff = UOSP.coeff
    i = coeff.imaginary_unit()
    value = coeff.add(
        coeff.mul(coeff.mul(_radical_scalar(2), i), coeff.var("a")),
        coeff.mul(_radical_scalar(3), coeff.mul(coeff.var("b"), coeff.var("b"))),
    )
    expected = coeff.add(
        coeff.mul(coeff.mul(_radical_scalar(2), coeff.neg(i)), coeff.var("ad")),
        coeff.mul(_radical_scalar(3), coeff.mul(coeff.var("bd"), coeff.var("bd"))),
    )
    image = UOSP.coeff_involute(value)
    assert image == expected
    assert coeff.monomials(image) == (
        ((0, 0, 0, 2), {3: GaussianRational(1)}),
        ((0, 1, 0, 0), {2: GaussianRational(0, -1)}),
    )
    assert UOSP.coeff_involute(image) == value


def _count_collect(monkeypatch, calls):
    """Count every ``collect`` call, under each name a ``superalg`` module imported it by, in ``calls``."""
    original = scalars.collect

    def counting(ring, pairs):
        calls["collect"] += 1
        return original(ring, pairs)

    for name, module in list(sys.modules.items()):
        if name.startswith("superalg") and getattr(module, "collect", None) is original:
            monkeypatch.setattr(module, "collect", counting)


def test_projector_square_makes_a_pinned_number_of_sparse_sums(monkeypatch):
    """A regression in how many product passes or Gaussian products a composition forms fails here on any machine."""
    p = projector_p(2)
    calls = Counter()
    gaussian_product = GaussianRational.__mul__
    products = PolyQuotientRing._products

    def counting_product(u, v):
        calls["gaussian"] += 1
        return gaussian_product(u, v)

    def counting_products(ring, quadruples, out):
        calls["products"] += 1
        return products(ring, quadruples, out)

    _count_collect(monkeypatch, calls)
    monkeypatch.setattr(GaussianRational, "__mul__", counting_product)
    monkeypatch.setattr(PolyQuotientRing, "_products", counting_products)
    assert p.compose(p) == p
    # A radical value nested in each polynomial term made 1,281 sums here, one more per
    # term product; the flat (exponents, radicand) key made 410, a sum per element product
    # and per coefficient product.  One sum of products per entry of the 5x5 result made
    # 46 passes.  One sum of products per row of the result makes one pass that adds its
    # term products into a dict and, where a term holds the lead product, one that adds
    # the rewrites into the kept terms: at most 2 per row, and no collect call.
    assert 0 < calls["products"] <= 2 * 5
    assert calls["collect"] == 0
    # Rewriting each term product before collecting made 550 Gaussian products here;
    # collecting first rewrites each distinct term once.
    assert 0 < calls["gaussian"] <= 480


def test_bra_and_projector_make_a_pinned_number_of_element_products(monkeypatch, fresh_ring_table):
    """Each bra entry is one coefficient monomial, the projector forms its rows in sums of products,
    and ``projector_p`` reuses the shared bra.  The table starts empty, so the bra is built here."""
    ring = make_uosp_ring()
    calls = Counter()
    element_product = SuperElement.__mul__

    def counting(x, y):
        calls["mul"] += 1
        return element_product(x, y)

    monkeypatch.setattr(SuperElement, "__mul__", counting)
    make_bra(2, ring)
    # eta*etad for the correction, then the correction times each of the 3 even entries;
    # chains of products and powers made 18.
    assert calls["mul"] == 4
    calls.clear()
    projector_p(2, ring)
    # None: the bra is shared, and the 5x5 entries, where a product per entry made 43 in all
    # with the bra's, are sums of products.
    assert calls["mul"] == 0


def test_projector_squares_make_a_pinned_number_of_radicand_products(monkeypatch):
    """A key with radicand 1 multiplies inline: only two radicands past 1 call ``radical_product``."""
    p, g = projector_p(2), make_sphere_projector(2).g
    calls = []
    original = scalars.radical_product

    def counting(s, t, c):
        calls.append((s, t))
        return original(s, t, c)

    monkeypatch.setattr(scalars, "radical_product", counting)
    assert p.compose(p) == p
    # One call per term product, 480 here, while the supersphere ring had its own product loop.
    assert 0 < len(calls) <= 74
    assert all(s > 1 and t > 1 for s, t in calls)
    calls.clear()
    assert g.compose(g) == g
    assert calls == []


def test_certify_makes_a_pinned_number_of_sums_and_rational_products(monkeypatch, tmp_path, capsys):
    """The cli path end to end: reading, squaring, splitting and printing the n=1 sphere projector."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(make_sphere_projector(1).g.to_json()))
    calls = Counter()
    rational_product = RationalRing.mul

    def counting_product(ring, u, v):
        calls["rational"] += 1
        return rational_product(ring, u, v)

    _count_collect(monkeypatch, calls)
    monkeypatch.setattr(RationalRing, "mul", counting_product)
    assert main(["certify", str(path)]) == 0
    assert "residual g^2 - g: 0" in capsys.readouterr().out
    # 37 while products were summed by collect; the product kernels add as they go.
    assert 0 < calls["collect"] <= 27
    assert 0 < calls["rational"] <= 27
