import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import superalg
from superalg.errors import DomainError, ParityError
from superalg.landi import make_uosp_ring
from superalg.scalars import GaussianRational, GaussianRationalRing, PolyQuotientRing, RationalRing, Relation
from superalg.suites import PYTHAGOREAN, random_even_soul
from superalg.superanalysis import (
    Jet,
    SuperPoint,
    SuperSmoothFn,
    body_point,
    circle_tangent,
    continue_analytically,
    cos_jet,
    eval_g_infinity,
    fraction_sqrt,
    sin_jet,
    sqrt_even,
    sqrt_even_binomial,
    super_cos,
    super_sin,
    supercircle_chart,
    trig_coeff_ring,
    trig_super_ring,
)
from superalg.spheres import z6_ring
from superalg.superring import SuperElement, SuperRing, grassmann_ring

seeds = st.integers(min_value=0, max_value=10_000)
RR = RationalRing()


def poly_jet(cs, base, order=4):
    """Exact derivative table of sum(cs[k] t^k) at a rational base point."""
    table = {}
    for d in range(order + 1):
        val = Fraction(0)
        fact = 1
        for k, c in enumerate(cs):
            if k >= d:
                coeff = c
                for m in range(k, k - d, -1):
                    coeff *= m
                val += coeff * base ** (k - d)
        table[(d,)] = Fraction(val)
    return Jet(1, order, RR, table, base=(base,))


class TestJets:
    def test_identity_jet_continues_to_argument(self):
        ring = grassmann_ring(4)
        x = ring.from_fraction(Fraction(2, 3)) + ring.odd_gen_at(1) * ring.odd_gen_at(2)
        f = poly_jet([Fraction(0), Fraction(1)], Fraction(2, 3))
        assert continue_analytically(f, [x]) == x

    def test_constant_jet(self):
        ring = grassmann_ring(2)
        f = Jet.constant(Fraction(7), RR, base=(Fraction(0),))
        assert continue_analytically(f, [ring.zero()]) == ring.from_fraction(7)

    def test_square_jet_matches_direct_multiplication(self):
        ring = grassmann_ring(4)
        b = Fraction(1, 2)
        x = ring.from_fraction(b) + random_even_soul(random.Random(1), ring)
        f = poly_jet([Fraction(0), Fraction(0), Fraction(1)], b)
        assert continue_analytically(f, [x]) == x * x

    @settings(max_examples=40)
    @given(seeds)
    def test_continuation_is_multiplicative(self, seed):
        rng = random.Random(seed)
        ring = grassmann_ring(4)
        base = Fraction(rng.randint(-3, 3))
        x = ring.from_fraction(base) + random_even_soul(rng, ring)
        f = poly_jet([Fraction(rng.randint(-3, 3)) for _ in range(3)], base)
        g = poly_jet([Fraction(rng.randint(-3, 3)) for _ in range(3)], base)
        lhs = continue_analytically(f * g, [x])
        rhs = continue_analytically(f, [x]) * continue_analytically(g, [x])
        assert lhs == rhs
        assert continue_analytically(f + g, [x]) == (
            continue_analytically(f, [x]) + continue_analytically(g, [x])
        )

    def test_derivative_shifts_table(self):
        f = poly_jet([Fraction(1), Fraction(2), Fraction(3)], Fraction(0))
        df = f.derivative()
        expect = poly_jet([Fraction(2), Fraction(6)], Fraction(0), order=3)
        assert df == expect

    def test_derivative_axis_out_of_range_rejected(self):
        f = sin_jet(4)
        for axis in (-1, 1):
            with pytest.raises(DomainError, match="axis"):
                f.derivative(axis)

    def test_body_mismatch_rejected(self):
        ring = grassmann_ring(2)
        f = poly_jet([Fraction(0), Fraction(1)], Fraction(1))
        with pytest.raises(DomainError):
            continue_analytically(f, [ring.zero()])

    def test_odd_argument_rejected(self):
        ring = grassmann_ring(2)
        f = poly_jet([Fraction(0), Fraction(1)], Fraction(0))
        with pytest.raises(ParityError):
            continue_analytically(f, [ring.odd_gen_at(1)])

    def test_elements_over_radical_quotient_ring_hash_alike(self):
        ring = make_uosp_ring()
        a = ring.even_gen("a")
        assert hash(a) == hash(ring.even_gen("a"))
        assert {a: 1}[ring.even_gen("a")] == 1
        assert Jet.constant(a.terms[0], ring.coeff) == Jet.constant(ring.coeff.var("a"), ring.coeff)

    def test_sum_of_unequal_orders_truncates_to_the_smaller(self):
        expected = sin_jet(3) + cos_jet(3)
        assert expected.order == 3
        assert sin_jet(5) + cos_jet(3) == expected
        assert cos_jet(3) + sin_jet(5) == expected

    @pytest.mark.parametrize("degree", [-1, 1.5, Fraction(1, 2), Fraction(3, 2), True])
    def test_constructor_refuses_a_degree_that_is_not_a_count(self, degree):
        with pytest.raises(DomainError, match="out of range"):
            Jet(1, 2, RR, {(degree,): 1}, base=(0,))

    @pytest.mark.parametrize(
        "table",
        [{5: 1}, {(0, 0): 1}, {(3,): 1}],
        ids=["bare-int", "wrong-arity", "past-order"],
    )
    def test_constructor_refuses_a_key_that_is_not_a_degree(self, table):
        with pytest.raises(DomainError, match="out of range for order 2"):
            Jet(1, 2, RR, table, (0,))

    def test_constructor_drops_zero_values(self):
        jet = Jet(1, 2, RR, {(0,): 0, (1,): Fraction(0)}, (0,))
        assert jet == Jet(1, 2, RR, {}, (0,))
        assert jet.is_zero()
        table = {(0,): 1, (2,): 0}
        assert Jet(1, 2, RR, table, (0,)).table == {(0,): 1} and table == {(0,): 1, (2,): 0}

    @pytest.mark.parametrize("degree", ["-1", "Fraction(3, 2)"])
    def test_continuation_refuses_a_directly_built_degree_that_is_not_a_count(self, degree):
        """The bad jet is refused when it is built, so continuation never steps past the soul powers forever."""
        code = (
            "from fractions import Fraction\n"
            "from superalg.errors import DomainError\n"
            "from superalg.scalars import RationalRing\n"
            "from superalg.superanalysis import Jet, continue_analytically\n"
            "from superalg.superring import grassmann_ring\n"
            "ring = grassmann_ring(2)\n"
            "try:\n"
            f"    jet = Jet(1, 2, RationalRing(), {{({degree},): 1}}, (0,))\n"
            "    continue_analytically(jet, [ring.odd_gen_at(1) * ring.odd_gen_at(2)])\n"
            "except DomainError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(superalg.__file__).parent.parent))
        try:
            done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20)
        except subprocess.TimeoutExpired:
            pytest.fail("continue_analytically did not return")
        assert done.returncode == 0, done.stderr
        assert "out of range" in done.stdout


class TestGInfinity:
    def test_single_even_jet_reduces_to_continuation(self):
        ring = grassmann_ring(3)
        f = poly_jet([Fraction(1), Fraction(2)], Fraction(0))
        F = SuperSmoothFn(1, {0: f})
        x = random_even_soul(random.Random(2), ring)
        p = SuperPoint((x,), (ring.odd_gen_at(1),))
        assert eval_g_infinity(F, p) == continue_analytically(f, [x])

    def test_odd_coordinate_passthrough(self):
        ring = grassmann_ring(3)
        one = Jet.constant(Fraction(1), RR, base=(Fraction(0),))
        F = SuperSmoothFn(1, {0b1: one})
        xi = ring.odd_gen_at(2)
        p = SuperPoint((ring.zero(),), (xi,))
        assert eval_g_infinity(F, p) == xi

    def test_pair_index_multiplies_in_order(self):
        ring = grassmann_ring(3)
        t = poly_jet([Fraction(0), Fraction(1)], Fraction(0))
        F = SuperSmoothFn(2, {0b11: t})
        x = ring.odd_gen_at(1) * ring.odd_gen_at(2)
        xi1, xi2 = ring.odd_gen_at(1), ring.odd_gen_at(3)
        p = SuperPoint((x,), (xi1, xi2))
        assert eval_g_infinity(F, p) == x * xi1 * xi2

    @pytest.mark.parametrize("bits", [0b10, -1, 1.0], ids=["past-arity", "negative", "float"])
    def test_constructor_refuses_an_index_past_the_odd_arity(self, bits):
        with pytest.raises(DomainError, match="exceeds the odd arity"):
            SuperSmoothFn(1, {bits: Jet.constant(Fraction(1), RR, base=(Fraction(0),))})

    def test_constructor_copies_the_jets(self):
        jets = {0: Jet.constant(Fraction(1), RR, base=(Fraction(0),))}
        F = SuperSmoothFn(1, jets)
        jets[0b10] = jets[0]
        assert list(F.jets) == [0]

    def test_arity_zero_jets_continue_to_their_constants(self):
        ring = grassmann_ring(2)
        three = Jet.constant(Fraction(3), RR, arity=0)
        F = SuperSmoothFn(2, {0: three, 0b11: three})
        xi1, xi2 = ring.odd_gen_at(1), ring.odd_gen_at(2)
        expect = ring.from_fraction(3) + (xi1 * xi2).scale(Fraction(3))
        assert eval_g_infinity(F, SuperPoint((), (xi1, xi2))) == expect

    def test_no_coordinates_rejected(self):
        with pytest.raises(DomainError):
            SuperPoint((), ())
        with pytest.raises(DomainError):
            continue_analytically(Jet.constant(Fraction(3), RR, arity=0), [])

    def test_body_point(self):
        ring = grassmann_ring(2)
        x = ring.from_fraction(3) + ring.odd_gen_at(1) * ring.odd_gen_at(2)
        p = SuperPoint((x,), (ring.odd_gen_at(1),))
        assert body_point(p) == (Fraction(3),)
        prod = (ring.one() + ring.odd_gen_at(1)) * (ring.one() - ring.odd_gen_at(1))
        assert body_point(SuperPoint((prod,), ())) == (Fraction(1),)


class TestTrig:
    def test_series_backend_truncates(self):
        # Z/6 has no 1/2, so cos(xi1 xi2) = 1 needs the zero square skipped before its 1/2! is formed.
        # Q[S, C]/(S^2 = C) has the trig ring's variable names but not its relation, so its jets are at 0.
        plain = PolyQuotientRing(RR, ("S", "C"))
        s_squared_is_c = PolyQuotientRing(RR, ("S", "C"), Relation(("S", "S"), plain.var("C")))
        for ring in (grassmann_ring(2), z6_ring(), SuperRing(s_squared_is_c, ("b1", "b2"))):
            theta = ring.odd_gen_at(1) * ring.odd_gen_at(2)
            assert super_sin(theta) == theta
            assert super_cos(theta) == ring.one()
            assert super_sin(ring.zero()).is_zero()
            assert super_cos(ring.zero()) == ring.one()

    def test_series_backend_requires_nilpotent(self):
        ring = grassmann_ring(2)
        with pytest.raises(DomainError):
            super_sin(ring.one())

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_even_soul_matches_textbook_series(self, seed):
        ring = grassmann_ring(8)
        rng = random.Random(seed)
        masks = [b for b in range(1, 1 << 8) if b.bit_count() % 2 == 0]
        theta = ring.element({b: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for b in masks})
        t2 = theta * theta
        t3, t4 = t2 * theta, t2 * t2
        assert (t4 * theta).is_zero()  # degree at least 10 > 8: the series stops at theta^4
        assert super_sin(theta) == theta - t3.scale(Fraction(1, 6))
        assert super_cos(theta) == ring.one() - t2.scale(Fraction(1, 2)) + t4.scale(Fraction(1, 24))

    def test_sin_cos_accept_any_even_angle_with_zero_constant_term(self):
        ring = make_uosp_ring()  # a quotient ring that is not the trig ring: jets at 0
        theta = ring.even_gen("a") * ring.odd_gen("eta") * ring.odd_gen("etad")
        assert super_sin(theta) == theta
        assert super_cos(theta) == ring.one() - (theta * theta).scale(Fraction(1, 2))
        with pytest.raises(DomainError, match="zero constant term"):
            super_cos(ring.one())
        with pytest.raises(ParityError):
            super_sin(ring.odd_gen_at(1))

    @settings(max_examples=25)
    @given(seeds)
    def test_pythagorean_identity_symbolic(self, seed):
        ring = trig_super_ring(6)
        soul = random_even_soul(random.Random(seed), ring)
        s, c = super_sin(soul), super_cos(soul)
        assert s * s + c * c == ring.one()

    def test_zero_soul_gives_symbols(self):
        ring = trig_super_ring(2)
        assert super_sin(ring.zero()) == ring.even_gen("S")
        assert super_cos(ring.zero()) == ring.even_gen("C")

    def test_superderivation_identities(self):
        tring = trig_coeff_ring()
        for L in (2, 4, 6):
            assert sin_jet(L, tring).derivative() == cos_jet(L - 1, tring)
            minus_sin = Jet(
                1, L - 1, tring,
                {k: tring.neg(v) for k, v in sin_jet(L - 1, tring).table.items()},
            )
            assert cos_jet(L, tring).derivative() == minus_sin
            sj, cj = sin_jet(L, tring), cos_jet(L, tring)
            assert (sj * sj + cj * cj).derivative().is_zero()

    def test_addition_formula(self):
        # sin(t0 + u + v) expanded two ways for soul arguments u, v
        ring = trig_super_ring(4)
        b = [ring.odd_gen_at(i) for i in range(1, 5)]
        u = b[0] * b[1]
        v = b[2] * b[3]
        lhs = super_sin(u + v)
        # sin(x+y) = sin x cos y + cos x sin y, with sin/cos of a pure soul
        # taken in the rational series sense against the symbolic base split off
        S, C = ring.even_gen("S"), ring.even_gen("C")
        sin_u_series = u  # u^3 = 0
        cos_u_series = ring.one() - (u * u).scale(Fraction(1, 2))
        sin_v_series = v
        cos_v_series = ring.one() - (v * v).scale(Fraction(1, 2))
        sin_soul = sin_u_series * cos_v_series + cos_u_series * sin_v_series
        cos_soul = cos_u_series * cos_v_series - sin_u_series * sin_v_series
        assert lhs == S * cos_soul + C * sin_soul


class TestSqrt:
    def test_worked_example(self):
        ring = grassmann_ring(2)
        y = ring.from_fraction(Fraction(3, 5)) + ring.odd_gen_at(1) * ring.odd_gen_at(2)
        x = sqrt_even(ring.one() - y * y, Fraction(4, 5))
        expect = ring.from_fraction(Fraction(4, 5)) - (
            ring.odd_gen_at(1) * ring.odd_gen_at(2)
        ).scale(Fraction(3, 4))
        assert x == expect
        assert x * x + y * y == ring.one()

    def test_trivial_and_closure_cases(self):
        ring = grassmann_ring(4)
        assert sqrt_even(ring.one(), Fraction(1)) == ring.one()
        z = ring.one() + ring.odd_gen_at(1) * ring.odd_gen_at(2) + ring.odd_gen_at(3) * ring.odd_gen_at(4)
        x = sqrt_even(z, Fraction(1))
        assert x * x == z
        # the root needs a length-4 coefficient even though z has none
        assert 0b1111 in x.terms

    @settings(max_examples=40)
    @given(seeds)
    def test_square_and_oracle(self, seed):
        rng = random.Random(seed)
        ring = grassmann_ring(6)
        a, b, c = PYTHAGOREAN[rng.randrange(len(PYTHAGOREAN))]
        y = ring.from_fraction(Fraction(a, c)) + random_even_soul(rng, ring)
        z = ring.one() - y * y
        root0 = Fraction(b, c) * rng.choice([1, -1])
        x = sqrt_even(z, root0)
        assert x * x == z
        assert x == sqrt_even_binomial(z, root0)

    def test_sparse_root_multiplies_only_present_parts(self, monkeypatch):
        # z = 1 + A + B with A, B disjoint of grade 8: the root lives on 0, A, B
        # and A|B, where z is zero.  The grade-8 part is solved with no product,
        # grades 10 to 14 have no pair of present parts, and grade 16 is the
        # square of the grade-8 part: one cleared product, and the ``x * x``
        # check clears once more.
        ring = grassmann_ring(16)
        A, B = 0x00FF, 0xFF00
        z = ring.element({0: Fraction(1), A: Fraction(1), B: Fraction(1)})
        calls = []
        cleared = RationalRing.cleared
        monkeypatch.setattr(RationalRing, "cleared", lambda *a: calls.append(1) or cleared(*a))
        x = sqrt_even(z, Fraction(1))
        assert x.terms == {0: 1, A: Fraction(1, 2), B: Fraction(1, 2), A | B: Fraction(-1, 4)}
        assert len(calls) == 2

    @pytest.mark.parametrize("L, products", [(10, 7), (12, 10)])
    def test_dense_root_is_one_product_per_pair_of_grades(self, monkeypatch, L, products):
        # Grade g is solved from one product for each pair a <= b of present
        # parts with a + b = g (at L = 10: one each for 4 and 6, two each for
        # 8 and 10), and the ``x * x`` check is one more.
        rng = random.Random(L)
        ring = grassmann_ring(L)
        z = ring.from_fraction(Fraction(9, 4)) + _dense_even_soul(rng, ring, _rational_value)
        calls = []
        mul = SuperElement.__mul__
        monkeypatch.setattr(SuperElement, "__mul__", lambda *a: calls.append(1) or mul(*a))
        sqrt_even(z, Fraction(3, 2))
        assert len(calls) == products

    def test_preconditions(self):
        ring = grassmann_ring(2)
        with pytest.raises(DomainError):
            sqrt_even(ring.one(), Fraction(2))  # root0^2 != body
        with pytest.raises(ParityError):
            sqrt_even(ring.odd_gen_at(1), Fraction(1))

    def test_fraction_sqrt(self):
        assert fraction_sqrt(Fraction(16, 25)) == Fraction(4, 5)
        with pytest.raises(DomainError):
            fraction_sqrt(Fraction(2))
        with pytest.raises(DomainError):
            fraction_sqrt(Fraction(-1))


class TestSupercircle:
    def test_chart_examples(self):
        ring = grassmann_ring(2)
        p = supercircle_chart(ring.zero(), "+")
        assert p.evens[0] == ring.one()
        y = ring.from_fraction(Fraction(3, 5)) + ring.odd_gen_at(1) * ring.odd_gen_at(2)
        p = supercircle_chart(y, "+")
        x = p.evens[0]
        assert x.body() == Fraction(4, 5)
        assert x * x + y * y == ring.one()
        minus = supercircle_chart(y, "-")
        assert minus.evens[0].body() == Fraction(-4, 5)

    def test_chart_preconditions(self):
        ring = grassmann_ring(2)
        with pytest.raises(DomainError):
            supercircle_chart(ring.from_fraction(2), "+")  # body outside (-1,1)
        with pytest.raises(DomainError):
            supercircle_chart(ring.from_fraction(Fraction(1, 3)), "+")  # 1-y^2 not a square
        with pytest.raises(DomainError):
            supercircle_chart(ring.zero(), "x")

    def test_tangent(self):
        ring = grassmann_ring(3)
        p = supercircle_chart(ring.from_fraction(Fraction(3, 5)) + ring.odd_gen_at(1) * ring.odd_gen_at(2), "+")
        x, y = p.evens
        lam = ring.odd_gen_at(3)
        tx, ty = circle_tangent(p, lam)
        assert tx == -(lam * y) and ty == lam * x
        assert (x * tx + y * ty).is_zero()
        with pytest.raises(DomainError):
            circle_tangent(SuperPoint((ring.one(), ring.one()), ()), lam)

    def test_trig_parametrized_tangent(self):
        ring = trig_super_ring(4)
        soul = ring.odd_gen_at(1) * ring.odd_gen_at(2)
        c, s = super_cos(soul), super_sin(soul)
        tx, ty = circle_tangent(SuperPoint((c, s), ()), ring.one())
        assert tx == -s and ty == c


def _dense_even_soul(rng, ring, value):
    """A soul with a nonzero ``value(rng)`` at every even mask of length at least 2."""
    return ring.element({b: value(rng) for b in range(1, 1 << ring.odd_count) if b.bit_count() % 2 == 0})


def _rational_value(rng):
    return RationalRing().from_fraction(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)))


def _gaussian_value(rng):
    return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(1, 5))


@pytest.mark.parametrize("L", [6, 7, 8, 9])
@pytest.mark.parametrize(
    "coeff, value, root0",
    [
        (RationalRing(), _rational_value, Fraction(3, 2)),
        (GaussianRationalRing(), _gaussian_value, GaussianRational(2, 1)),
    ],
    ids=["rational", "gaussian"],
)
def test_sqrt_even_matches_binomial_on_dense_elements(L, coeff, value, root0):
    rng = random.Random(L)
    ring = grassmann_ring(L, coeff)
    body = ring.from_coeff(coeff.mul(root0, root0))
    z = body + _dense_even_soul(rng, ring, value)
    assert sqrt_even(z, root0) == sqrt_even_binomial(z, root0)
    # Roots with zero coefficients inside the closure of the support: every
    # third mask of a dense root dropped, and a single top-length soul.
    dense = _dense_even_soul(rng, ring, value).terms
    holes = ring.element({b: c for i, (b, c) in enumerate(sorted(dense.items())) if i % 3})
    top = (1 << (L - L % 2)) - 1
    for soul in (holes, ring.element({top: value(rng)})):
        x = ring.from_coeff(root0) + soul
        z = x * x
        assert sqrt_even(z, root0) == x == sqrt_even_binomial(z, root0)


def _random_even_mask(rng, L):
    return sum(1 << i for i in rng.sample(range(L), rng.randrange(2, L + 1, 2)))


@pytest.mark.parametrize("L", [10, 12, 14, 16, 20, 24])
def test_sqrt_even_matches_binomial_on_sparse_souls(L):
    rng = random.Random(L)
    ring = grassmann_ring(L)
    root0 = Fraction(3, 2)
    body = ring.from_fraction(root0 * root0)
    souls = [
        ring.element({_random_even_mask(rng, L): _rational_value(rng) for _ in range(n)})
        for n in (1, 2, 3, 4)
        for _ in range(4)
    ]
    # Overlapping masks reach only themselves; disjoint ones also reach their
    # union, where z is zero.
    low, mid, high = 0b1111, 0b1111 << 2, 0b1111 << 4
    overlapping = ring.element({low: Fraction(1), mid: Fraction(-2), low ^ mid: Fraction(1, 3)})
    disjoint = ring.element({low: Fraction(1), high: Fraction(-2)})
    for soul in souls + [overlapping, disjoint]:
        z = body + soul
        x = sqrt_even(z, root0)
        assert x == sqrt_even_binomial(z, root0)
        assert x * x == z
    assert sqrt_even(body + overlapping, root0).terms.keys() == {0, low, mid, low ^ mid}
    assert (low | high) in sqrt_even(body + disjoint, root0).terms
