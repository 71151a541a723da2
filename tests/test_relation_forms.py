"""A quotient ring reads its own relation: a ``Relation`` right-hand side takes a descriptor's three forms.

``Relation(heads, rhs)`` takes a value of the ring without the relation (a
dict), polynomial text or a list of JSON terms; ``PolyQuotientRing`` reads
text and terms in ``PolyQuotientRing(base, variables)`` and keeps the value.
The three forms give one ring, equal to the factory ring, with one
``to_json()``.
"""

import json
import sys

import pytest

from superalg.cli import main
from superalg.errors import DomainError, ParseError
from superalg.expressions import parse_element
from superalg.landi import make_uosp_ring
from superalg.scalars import PolyQuotientRing, RadicalGaussianRing, RationalRing, Relation
from superalg.spheres import sphere_coeff_ring
from superalg.superanalysis import trig_coeff_ring, trig_super_ring
from superalg.superring import grassmann_ring


def _hand_built(base, variables, products):
    """``1 - sum u*v`` over ``products``, built by arithmetic in the ring without the relation."""
    plain = PolyQuotientRing(base, variables)
    rhs = plain.one()
    for u, v in products:
        rhs = plain.sub(rhs, plain.mul(plain.var(u), plain.var(v)))
    return plain, rhs


# label: (factory, base, variables, heads, rhs text, the products the text subtracts from 1); the
# rings are built in the test, so that a fault in building one fails its test, not the collection
CASES = {
    f"sphere-{n}-{base.kind}": (
        lambda n=n, base=base: sphere_coeff_ring(n, base), base, [f"x{i}" for i in range(n + 1)], ("x0", "x0"),
        "1" + "".join(f" - x{i}^2" for i in range(1, n + 1)), [(f"x{i}", f"x{i}") for i in range(1, n + 1)],
    )
    for n in (1, 2, 3)
    for base in (RationalRing(), RadicalGaussianRing())
}
CASES["trig"] = (trig_coeff_ring, RationalRing(), ["S", "C"], ("S", "S"), "1 - C^2", [("C", "C")])
CASES["uosp"] = (
    lambda: make_uosp_ring().coeff, RadicalGaussianRing(), ["a", "ad", "b", "bd"], ("a", "ad"), "1 - b*bd", [("b", "bd")]
)


@pytest.mark.parametrize("label", CASES)
def test_text_terms_and_value_give_one_ring(label):
    factory, base, variables, heads, text, products = CASES[label]
    plain, value = _hand_built(base, variables, products)
    terms = json.loads(json.dumps(plain.value_to_json(value)))
    for rhs in (text, terms, value):
        ring = PolyQuotientRing(base, variables, Relation(heads, rhs))
        assert type(ring.relation.rhs) is dict and ring.relation.rhs == value
        assert ring == factory()
        assert json.dumps(ring.to_json()) == json.dumps(factory().to_json())


def test_a_text_rhs_naming_a_head_is_refused():
    with pytest.raises(DomainError, match="must not mention its head variables"):
        PolyQuotientRing(RationalRing(), ("x", "y"), Relation(("x", "x"), "1 - x*y"))


def test_a_text_rhs_naming_an_unknown_variable_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown generator 'z'"):
        PolyQuotientRing(RationalRing(), ("x", "y"), Relation(("x", "x"), "1 - z^2"))


@pytest.mark.parametrize("rhs", [5, {"ab": 1}, {(1, 2, 3): 1}, None], ids=["int", "text-key", "triple-key", "none"])
def test_a_python_rhs_that_is_no_ring_value_is_refused(rhs):
    """An rhs that is not text, a list of terms or a dict of ``(packed exponents, radicand)`` keys is a ``DomainError``."""
    with pytest.raises(DomainError, match="a relation right-hand side must be"):
        PolyQuotientRing(RationalRing(), ("x",), Relation(("x", "x"), rhs))


@pytest.mark.parametrize("rhs", [{}, {"exps": {"x1": 2}, "c": "1"}, {"ab": "1"}], ids=["empty", "term", "two-letter"])
def test_a_descriptor_rhs_that_is_a_json_object_exits_two(capsys, tmp_path, rhs):
    """An object is no list of terms; read as it stands it would be a ring value (``{}`` is zero) unchecked."""
    coeffs = {"kind": "poly_quotient", "vars": ["x0", "x1"], "base": {"kind": "rational"}}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"coeffs": {**coeffs, "relation": {"lead": "x0", "rhs": rhs}}}))
    assert main(["eval", "x0^2", "--ring", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a polynomial value must be a list of terms\n"


def test_the_trig_super_ring_is_the_grassmann_ring_over_the_trig_coefficients():
    assert trig_super_ring(3) is grassmann_ring(3, trig_coeff_ring())


@pytest.mark.parametrize("factory", [lambda: grassmann_ring(2), lambda: trig_super_ring(2)], ids=["scalar", "quotient"])
def test_a_sum_of_no_products_is_zero(factory):
    ring = factory()
    total = ring.sum_of_products([])
    assert total == ring.zero() and total.terms == {}


def test_an_exponent_past_the_limit_is_refused_before_the_power():
    """``b1^32768`` is 0, but an exponent past 32,767 is refused whatever the base, as the quotient rings refuse it."""
    ring = grassmann_ring(3)
    assert parse_element("b1^32767", ring).is_zero()
    with pytest.raises(DomainError, match="exponent 32768 is past 32767"):
        parse_element("b1^32768", ring)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no integer digit limit in this Python")
def test_a_power_of_a_base_past_the_digit_limit_is_refused_before_it_is_formed():
    """``(71/227)^1000`` has a denominator of 2,357 digits, and its square in ``b1*b2``'s coefficient 4,713,
    which no text can hold: its cube is never formed."""
    ring = grassmann_ring(3)
    soul = "b1*b2*(71/227)^1000*(71/227)^1000"
    parse_element(soul, ring)  # formed by a product: only a power's base is checked
    with pytest.raises(DomainError, match="a coefficient has more than"):
        parse_element(f"({soul})^3", ring)
