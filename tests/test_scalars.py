from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superalg.errors import DomainError
from superalg.scalars import (
    GaussianRational,
    GaussianRationalRing,
    IntegerModRing,
    PolyQuotientRing,
    RadicalGaussianRing,
    RationalRing,
    Relation,
    _digit_limit,
    coeff_ring_from_json,
    squarefree_split,
)
from superalg.superring import SuperElement

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, fractions, fractions)


@given(gaussians, gaussians, gaussians)
def test_gaussian_field_laws(u, v, w):
    assert u * (v * w) == (u * v) * w
    assert u * (v + w) == u * v + u * w
    assert u + v == v + u
    assert u - u == GaussianRational()


@given(gaussians)
def test_gaussian_inverse_and_conj(u):
    ring = GaussianRationalRing()
    if u:
        one = u * u.inverse()
        assert type(one) is int and one == 1
    twice = ring.conj(u.conj())  # the stored form of u, which was built directly
    assert type(twice) is (int if not u.b and u.d == 1 else GaussianRational) and twice == u
    norm = u * u.conj()
    if type(norm) is int:
        assert norm >= 0
    else:
        assert type(norm) is GaussianRational and norm.im == 0 and norm.re > 0 and norm.d != 1


def test_gaussian_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational().inverse()


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(49) == (7, 1)
    for n in range(1, 200):
        m, s = squarefree_split(n)
        assert m * m * s == n


class TestRadicals:
    ring = RadicalGaussianRing()

    def test_products_combine(self):
        r = self.ring
        two, three = r.sqrt_int(2), r.sqrt_int(3)
        assert r.mul(two, two) == r.from_fraction(2)
        assert r.mul(two, three) == r.sqrt_int(6)
        # sqrt(6)*sqrt(10) = 2*sqrt(15)
        assert r.mul(r.sqrt_int(6), r.sqrt_int(10)) == r.mul(
            r.from_fraction(2), r.sqrt_int(15)
        )

    def test_square_factor_extracted(self):
        r = self.ring
        assert r.sqrt_int(8) == r.mul(r.from_fraction(2), r.sqrt_int(2))
        assert r.sqrt_int(9) == r.from_fraction(3)

    def test_conj_fixes_radicals(self):
        r = self.ring
        v = r.add(r.sqrt_int(2), r.from_gaussian(GaussianRational(0, 1)))
        expected = r.add(r.sqrt_int(2), r.from_gaussian(GaussianRational(0, -1)))
        assert r.eq(r.conj(v), expected)

    def test_str_and_json(self):
        r = self.ring
        v = r.add(r.from_fraction(Fraction(1, 2)), r.sqrt_int(2))
        assert r.to_str(v) == "1/2 + sqrt(2)"
        assert r.eq(r.value_from_json(r.value_to_json(v)), v)


class TestIntegerMod:
    def test_basic(self):
        z6 = IntegerModRing(6)
        assert z6.mul(z6.from_int(3), z6.from_int(3)) == 3
        assert z6.add(z6.from_int(5), z6.from_int(5)) == 4
        assert z6.neg(z6.from_int(1)) == 5

    def test_from_fraction_inverts_denominator(self):
        z7 = IntegerModRing(7)
        # 1/2 = 4 mod 7
        assert z7.from_fraction(Fraction(1, 2)) == 4
        z6 = IntegerModRing(6)
        with pytest.raises(ValueError):
            z6.from_fraction(Fraction(1, 2))

    def test_from_fraction_non_invertible_denominator_is_domain_error(self):
        with pytest.raises(DomainError, match="not invertible mod 6"):
            IntegerModRing(6).from_fraction(Fraction(1, 2))

    def test_modulus_bound(self):
        with pytest.raises(DomainError):
            IntegerModRing(1)


def circle_ring():
    base = RationalRing()
    plain = PolyQuotientRing(base, ("x", "y"))
    rhs = plain.sub(plain.one(), plain.mul(plain.var("y"), plain.var("y")))
    return PolyQuotientRing(base, ("x", "y"), Relation(("x", "x"), rhs))


class TestPolyQuotient:
    def test_square_relation_normal_form(self):
        r = circle_ring()
        x, y = r.var("x"), r.var("y")
        # x^2 -> 1 - y^2
        assert r.eq(r.mul(x, x), r.sub(r.one(), r.mul(y, y)))
        # x^3 -> x - x y^2
        x3 = r.mul(r.mul(x, x), x)
        assert r.eq(x3, r.sub(x, r.mul(x, r.mul(y, y))))
        # the normal form never contains x to a power above 1
        for exps, _ in r.monomials(x3):
            assert exps[0] <= 1

    def test_reduction_is_confluent_on_products(self):
        r = circle_ring()
        x, y = r.var("x"), r.var("y")
        p = r.add(r.mul(x, y), r.one())
        q = r.sub(x, y)
        assert r.eq(r.mul(p, q), r.mul(q, p))
        # (x^2)^2 reduced stepwise equals x^4 reduced at once
        x2 = r.mul(x, x)
        assert r.eq(r.mul(x2, x2), r.mul(x, r.mul(x, x2)))

    def test_product_relation(self):
        base = RationalRing()
        plain = PolyQuotientRing(base, ("a", "ad", "b", "bd"))
        rhs = plain.sub(plain.one(), plain.mul(plain.var("b"), plain.var("bd")))
        r = PolyQuotientRing(base, ("a", "ad", "b", "bd"), Relation(("a", "ad"), rhs))
        a, ad, b, bd = (r.var(v) for v in ("a", "ad", "b", "bd"))
        assert r.eq(r.mul(a, ad), r.sub(r.one(), r.mul(b, bd)))
        # a^2 ad -> a (1 - b bd)
        lhs = r.mul(a, r.mul(a, ad))
        assert r.eq(lhs, r.mul(a, r.sub(r.one(), r.mul(b, bd))))
        # monomials with only one head variable stay put
        assert r.eq(r.mul(a, a), r.mul(a, a))
        for exps, _ in r.monomials(r.mul(a, ad)):
            assert not (exps[0] and exps[1])

    def test_substitute_vars(self):
        r = circle_ring()
        v = r.add(r.var("x"), r.mul(r.var("y"), r.var("y")))
        swapped = r.substitute_vars(v, {"x": "y", "y": "x"})
        expected = r.add(r.var("y"), r.mul(r.var("x"), r.var("x")))
        assert r.eq(swapped, expected)

    def test_to_str(self):
        r = circle_ring()
        v = r.add(r.mul(r.var("x"), r.var("y")), r.from_fraction(Fraction(-1, 2)))
        assert "x*y" in r.to_str(v) and "-1/2" in r.to_str(v)


def _circle_descriptor(lead):
    return {
        "kind": "poly_quotient",
        "vars": ["x", "y"],
        "base": {"kind": "rational"},
        "relation": {"lead": lead, "rhs": "1 - y^2"},
    }


def test_every_square_lead_spelling_gives_the_same_ring():
    rings = [coeff_ring_from_json(_circle_descriptor(lead)) for lead in ("x", "x*x", ["x", "x"])]
    assert all(r == circle_ring() and r.relation.heads == ("x", "x") for r in rings)
    assert {repr(r.to_json()) for r in rings} == {repr(circle_ring().to_json())}
    for r in rings:
        x = r.var("x")
        assert r.to_str(r.mul(x, x)) == "1 + -1*y^2"
        assert r.to_str(r.mul(x, r.mul(x, x))) == "x + -1*x*y^2"


@pytest.mark.parametrize(
    "heads",
    [("x",), ("x", "x", "y"), ("x", "z"), "xy", ["x", "y", "x"], ()],
    ids=["one-name", "three-names", "unknown-name", "string", "list-of-three", "empty"],
)
def test_relation_heads_must_be_a_pair_of_ring_variables(heads):
    one = PolyQuotientRing(RationalRing(), ("x", "y")).one()
    with pytest.raises(DomainError, match="not a pair of ring variables"):
        PolyQuotientRing(RationalRing(), ("x", "y"), Relation(heads, one))


def test_relation_heads_may_be_a_list_of_two_names_but_not_a_string():
    """A list pair reads as the JSON reader reads it; a string is not split into its characters."""
    plain = PolyQuotientRing(RationalRing(), ("x", "y"))
    rhs = plain.sub(plain.one(), plain.mul(plain.var("y"), plain.var("y")))
    listed = PolyQuotientRing(RationalRing(), ("x", "y"), Relation(["x", "x"], rhs))
    assert listed.relation == Relation(("x", "x"), rhs)
    assert listed == circle_ring()
    x = listed.var("x")
    assert listed.to_str(listed.mul(x, x)) == "1 + -1*y^2"
    with pytest.raises(DomainError, match="not a pair of ring variables"):
        PolyQuotientRing(RationalRing(), ("x", "y"), Relation("xx", rhs))


@pytest.mark.parametrize("lead", ["x*y*x", [], ["x", "y", "x"]])
def test_descriptor_lead_names_at_most_two_factors(lead):
    with pytest.raises(DomainError, match="'lead' must name one variable or a product of two"):
        coeff_ring_from_json(_circle_descriptor(lead))


@pytest.mark.parametrize(
    "make",
    [
        RationalRing,
        GaussianRationalRing,
        lambda: IntegerModRing(6),
        RadicalGaussianRing,
        circle_ring,
    ],
)
def test_descriptor_json_round_trip(make):
    ring = make()
    assert coeff_ring_from_json(ring.to_json()) == ring


@pytest.mark.parametrize(
    "make",
    [RationalRing, GaussianRationalRing, lambda: IntegerModRing(6), circle_ring],
)
def test_value_json_round_trip(make):
    ring = make()
    values = [ring.zero(), ring.one(), ring.from_fraction(2), ring.neg(ring.one())]
    if isinstance(ring, PolyQuotientRing):
        values.append(ring.mul(ring.var("x"), ring.var("y")))
    for v in values:
        assert ring.eq(ring.value_from_json(ring.value_to_json(v)), v)


@given(fractions, fractions, fractions)
def test_rational_ring_is_exact(a, b, c):
    r = RationalRing()
    u, v, w = r.from_fraction(a), r.from_fraction(b), r.from_fraction(c)
    assert r.mul(u, r.add(v, w)) == r.add(r.mul(u, v), r.mul(u, w))
    if v:
        assert r.mul(r.div(u, v), v) == u


def _stored_rational(u):
    """An ``int``, or a ``Fraction`` that is not integral: never a float."""
    return type(u) is int or (type(u) is Fraction and u.denominator != 1)


rational_inputs = st.one_of(st.integers(min_value=-50, max_value=50), fractions)


@given(rational_inputs, rational_inputs)
def test_rational_values_are_ints_or_proper_fractions(p, q):
    ring = RationalRing()
    u, v = ring.from_fraction(p), ring.from_fraction(q)
    results = {
        "from_fraction": (u, Fraction(p)),
        "add": (ring.add(u, v), Fraction(p) + q),
        "sub": (ring.sub(u, v), Fraction(p) - q),
        "neg": (ring.neg(u), -Fraction(p)),
        "mul": (ring.mul(u, v), Fraction(p) * q),
        "value_from_json": (ring.value_from_json(str(p)), Fraction(p)),
    }
    if q:
        results["div"] = (ring.div(u, v), Fraction(p) / q)
    else:
        with pytest.raises(ZeroDivisionError):
            ring.div(u, v)
    for name, (value, expected) in results.items():
        assert _stored_rational(value), (name, value)
        assert value == expected and hash(value) == hash(expected)
        assert ring.to_str(value) == str(expected)
        assert ring.value_to_json(value) == str(expected)


@pytest.mark.skipif(not _digit_limit(), reason="no integer digit limit in this Python")
def test_an_int_coefficient_past_the_digit_limit_is_a_domain_error():
    huge = 10 ** (_digit_limit() + 1)
    expected = "coefficient has more than %d digits" % _digit_limit()
    for ring in (RationalRing(), IntegerModRing(7)):
        with pytest.raises(DomainError, match=expected):
            ring.value_from_json(huge)
    with pytest.raises(DomainError, match=expected):
        GaussianRationalRing().value_from_json({"re": huge, "im": "0"})
    data = {"ring": {"coeffs": {"kind": "rational"}, "odd_generators": ["e"]}, "terms": [{"odd": [1], "coeff": huge}]}
    with pytest.raises(DomainError, match=expected):
        SuperElement.from_json(data)
    assert RationalRing().value_from_json(10 ** 50) == 10 ** 50  # an int within the limit reads as before
