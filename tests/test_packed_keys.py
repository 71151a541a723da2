"""Packed exponent keys of quotient terms: the exponent limit and the rename that skips the normal form.

A quotient term's exponents are 16-bit fields of one int, the top bit of each
a guard bit, so an exponent is at most ``MAX_EXPONENT`` (32,767) and a result
past it raises ``DomainError``, through the API, a JSON term and ``superalg
eval``.  ``substitute_vars`` moves fields; it normalizes only when the
permutation moves the relation's head pair, and is checked against sympy's
reduction (``tests/test_normal_form_oracle.py``) for both kinds of permutation.
"""

import json
import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import superalg.landi as landi
import superalg.scalars as scalars
import superalg.suites as suites
from superalg.cli import main
from superalg.errors import DomainError
from superalg.landi import make_uosp_ring, projector_p
from superalg.scalars import MAX_EXPONENT, PolyQuotientRing, RationalRing, Relation
from superalg.spheres import sphere_coeff_ring
from test_normal_form_oracle import random_terms, sympy, to_sympy, uosp_coeff_ring

UOSP = make_uosp_ring()


def test_the_largest_exponent_is_32767():
    assert MAX_EXPONENT == 32767
    coeff = UOSP.coeff
    one = coeff.base.one()
    for name in coeff.variables:  # the first field and the last one have guard bits alike
        x = UOSP.even_gen(name)
        exps = tuple(MAX_EXPONENT if v == name else 0 for v in coeff.variables)
        assert x ** MAX_EXPONENT == UOSP.from_coeff(coeff.monomial(exps, one))
        assert coeff.monomials((x ** MAX_EXPONENT).terms[0]) == ((exps, one),)
        with pytest.raises(DomainError, match=f"exponent of {name} reaches 32768"):
            x ** (MAX_EXPONENT + 1)
        with pytest.raises(DomainError, match=f"exponent of {name} reaches 32768"):
            x ** MAX_EXPONENT * x
        with pytest.raises(DomainError, match=f"exponent of {name} must be an integer in 0..32767, not 32768"):
            coeff.monomial(tuple(e + (e > 0) for e in exps), one)


@pytest.mark.parametrize("exps", [(-1, 0, 0, 0), (1, 0, 0), (1.0, 0, 0, 0)], ids=["negative", "short", "float"])
def test_monomial_refuses_exponents_that_do_not_pack(exps):
    with pytest.raises(DomainError):
        UOSP.coeff.monomial(exps, UOSP.coeff.base.one())


def test_a_json_term_past_the_limit_is_refused():
    coeff = UOSP.coeff

    def term(e):
        return [{"exps": {"b": e}, "c": [{"rad": 1, "re": "1", "im": "0"}]}]

    assert coeff.value_from_json(term(MAX_EXPONENT)) == coeff.monomial((0, 0, MAX_EXPONENT, 0), coeff.base.one())
    with pytest.raises(DomainError, match="exponent of b must be an integer in 0..32767, not 32768"):
        coeff.value_from_json(term(MAX_EXPONENT + 1))


def test_eval_past_the_limit_exits_two_at_once(capsys, tmp_path):
    path = tmp_path / "uosp.json"
    path.write_text(json.dumps(UOSP.to_json()))
    assert main(["eval", "a^32767", "--ring", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "a^32767"
    start = time.perf_counter()
    assert main(["eval", "a^32768", "--ring", str(path)]) == 2  # refused by the parser, as over any ring
    assert "exponent 32768 is past 32767" in capsys.readouterr().err
    assert main(["eval", "a^32767*a", "--ring", str(path)]) == 2  # refused by the ring's guard bits
    assert time.perf_counter() - start < 1.0
    assert "exponent of a reaches 32768" in capsys.readouterr().err


def test_a_rewrite_that_would_carry_is_refused():
    # x*y -> z^30000: (x*z^20000) * (y*z^20000) rewrites z^40000 times z^30000, whose
    # field sum would carry into the next field; the rewritten term is refused first.
    plain = PolyQuotientRing(RationalRing(), ("x", "y", "z", "w"))
    rhs = plain.monomial((0, 0, 30000, 0), 1)
    ring = PolyQuotientRing(RationalRing(), plain.variables, Relation(("x", "y"), rhs))
    with pytest.raises(DomainError, match="exponent of z reaches 40000"):
        ring.mul(ring.monomial((1, 0, 20000, 0), 1), ring.monomial((0, 1, 20000, 0), 1))


def test_a_head_past_the_limit_that_the_rewrite_brings_back_is_kept():
    plain = PolyQuotientRing(RationalRing(), ("x", "y", "z"))
    ring = PolyQuotientRing(RationalRing(), plain.variables, Relation(("x", "y"), plain.var("z")))
    product = ring.mul(ring.monomial((16384, 1, 0), 1), ring.monomial((16384, 0, 0), 1))
    assert ring.monomials(product) == (((32767, 0, 1), 1),)


SWAPS = [
    ("uosp-involution", uosp_coeff_ring(RationalRing()), {"a": "ad", "ad": "a", "b": "bd", "bd": "b"}),
    ("uosp-heads-moved", uosp_coeff_ring(RationalRing()), {"a": "b", "b": "a", "ad": "bd", "bd": "ad"}),
    ("uosp-one-head-moved", uosp_coeff_ring(RationalRing()), {"a": "b", "b": "a"}),
    ("sphere-fixed-head", sphere_coeff_ring(2), {"x1": "x2", "x2": "x1"}),
    ("sphere-head-moved", sphere_coeff_ring(2), {"x0": "x1", "x1": "x0"}),
]


@pytest.mark.parametrize("label, ring, mapping", SWAPS, ids=[label for label, _, _ in SWAPS])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_substitute_vars_matches_sympy_reduced(label, ring, mapping, seed):
    rng = random.Random(seed)
    gens = sympy.symbols(ring.variables)
    rel = ring.relation
    heads = [gens[ring.variables.index(h)] for h in rel.heads]
    divisor = sympy.Mul(*heads) - to_sympy(ring, ring.monomials(rel.rhs), gens)
    order = list(dict.fromkeys(heads)) + [g for g in gens if g not in heads]

    terms = random_terms(rng, ring, rng.randint(1, 5))
    u = reduce(ring.add, (ring.monomial(e, c) for e, c in terms), ring.zero())
    image = {g: gens[ring.variables.index(mapping.get(v, v))] for v, g in zip(ring.variables, gens)}
    renamed = to_sympy(ring, ring.monomials(u), gens).xreplace(image)
    _, remainder = sympy.reduced(sympy.expand(renamed), [divisor], *order, order="lex")
    assert sympy.expand(to_sympy(ring, ring.monomials(ring.substitute_vars(u, mapping)), gens) - remainder) == 0


def test_a_rename_that_moves_the_heads_rewrites_the_lead_product():
    ring = uosp_coeff_ring(RationalRing())
    b_bd = ring.mul(ring.var("b"), ring.var("bd"))
    # b*bd is in normal form; renamed to a*ad it is the lead product, 1 - b*bd.
    assert ring.substitute_vars(b_bd, {"a": "b", "b": "a", "ad": "bd", "bd": "ad"}) == ring.sub(ring.one(), b_bd)
    a_ad = ring.monomials(ring.substitute_vars(b_bd, {"a": "ad", "ad": "a", "b": "bd", "bd": "b"}))
    assert a_ad == (((0, 0, 1, 1), Fraction(1)),)


def _count(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_the_super_adjoint_of_the_projector_makes_no_normal_form(monkeypatch):
    p = projector_p(2)
    calls = {"normal_form_dict": 0}
    _count(monkeypatch, scalars.PolyQuotientRing, "normal_form_dict", calls)
    assert p.super_adjoint() == p
    assert calls["normal_form_dict"] == 0  # 34 when every involuted coefficient was normalized again


def test_suite_landi_builds_its_bra_once(monkeypatch):
    calls = {"make_bra": 0}
    _count(monkeypatch, landi, "make_bra", calls)
    monkeypatch.setattr(suites, "make_bra", landi.make_bra)  # the counting wrapper, under the suite's name too
    assert suites.suite_landi(2).passed
    assert calls["make_bra"] == 1
