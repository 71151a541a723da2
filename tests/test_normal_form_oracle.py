"""Quotient normal forms against an independent oracle: sympy's polynomial division.

A single polynomial is a Groebner basis, so the remainder of ``sympy.reduced``
under ``lex`` order, with the relation's head variables first, is the unique
normal form.  A relation is one lead product ``heads[0]*heads[1]``; both
kinds of lead are covered, the sphere square ``x0^2 = 1 - x1^2 - ...`` (also
declared as the descriptor lead ``"x*x"``) and the supersphere product
``a*ad = 1 - b*bd``, over rational, Gaussian and radical scalars.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from superalg.scalars import (
    GaussianRational,
    GaussianRationalRing,
    PolyQuotientRing,
    RadicalGaussianRing,
    RationalRing,
    Relation,
    coeff_ring_from_json,
)
from superalg.spheres import sphere_coeff_ring

sympy = pytest.importorskip("sympy")


def uosp_coeff_ring(base):
    plain = PolyQuotientRing(base, ("a", "ad", "b", "bd"))
    rhs = plain.sub(plain.one(), plain.mul(plain.var("b"), plain.var("bd")))
    return PolyQuotientRing(base, plain.variables, Relation(("a", "ad"), rhs))


SQUARE_BY_PRODUCT_LEAD = coeff_ring_from_json({
    "kind": "poly_quotient",
    "vars": ["y", "x", "z"],
    "base": {"kind": "rational"},
    "relation": {"lead": "x*x", "rhs": "1 - y^2 + 2*y*z"},
})


RINGS = [
    ("sphere-1", sphere_coeff_ring(1)),
    ("sphere-3", sphere_coeff_ring(3)),
    ("sphere-2-gaussian", sphere_coeff_ring(2, GaussianRationalRing())),
    ("sphere-2-radical", sphere_coeff_ring(2, RadicalGaussianRing())),
    ("uosp-rational", uosp_coeff_ring(RationalRing())),
    ("uosp-gaussian", uosp_coeff_ring(GaussianRationalRing())),
    ("uosp-radical", uosp_coeff_ring(RadicalGaussianRing())),
    ("lead-x*x", SQUARE_BY_PRODUCT_LEAD),
]


def to_sympy_scalar(c):
    if isinstance(c, dict):  # radical value {radicand: Gaussian coefficient}
        return sympy.Add(*(to_sympy_scalar(g) * sympy.sqrt(s) for s, g in c.items()))
    if isinstance(c, GaussianRational):
        return sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d)
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(ring, terms, gens):
    """``sum c * prod(g^e)`` over ``(exponents, scalar)`` pairs."""
    return sympy.Add(*(to_sympy_scalar(c) * sympy.Mul(*(g**e for g, e in zip(gens, exps))) for exps, c in terms))


def random_terms(rng, ring, count):
    """Raw ``(exponents, scalar)`` terms, not yet reduced by the relation."""
    terms = []
    for _ in range(count):
        exps = tuple(rng.randint(0, 3) for _ in ring.variables)
        c = ring.base.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        if ring.base.imaginary_unit() is not None and rng.random() < 0.5:
            c = ring.base.add(c, ring.base.mul(ring.base.from_int(rng.randint(1, 3)), ring.base.imaginary_unit()))
        if ring.base.kind == "gaussian_radical" and rng.random() < 0.5:
            c = ring.base.mul(c, ring.base.sqrt_int(rng.choice([2, 3, 6, 8])))
        terms.append((exps, c))
    return terms


@pytest.mark.parametrize("label, ring", RINGS, ids=[label for label, _ in RINGS])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_normal_form_matches_sympy_reduced(label, ring, seed):
    rng = random.Random(seed)
    gens = sympy.symbols(ring.variables)
    rel = ring.relation
    heads = [gens[ring.variables.index(h)] for h in rel.heads]
    divisor = sympy.Mul(*heads) - to_sympy(ring, ring.monomials(rel.rhs), gens)
    order = list(dict.fromkeys(heads)) + [g for g in gens if g not in heads]

    u_terms, v_terms = random_terms(rng, ring, rng.randint(1, 4)), random_terms(rng, ring, rng.randint(1, 3))
    u, v = (reduce(ring.add, (ring.monomial(e, c) for e, c in terms), ring.zero()) for terms in (u_terms, v_terms))
    raw = sympy.expand(to_sympy(ring, u_terms, gens) * to_sympy(ring, v_terms, gens))
    _, remainder = sympy.reduced(raw, [divisor], *order, order="lex")
    assert sympy.expand(to_sympy(ring, ring.monomials(ring.mul(u, v)), gens) - remainder) == 0
