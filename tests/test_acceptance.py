"""Acceptance gate: the eleven end-to-end criteria, each exact-identity.

Every test prints one ``ACCEPTANCE <id> ... PASS/FAIL`` line (run pytest with
``-s`` to see them on success) and enforces the stated wall-time budget.
"""

import math
import random
import time
from fractions import Fraction

from superalg.landi import inner, make_bra, make_uosp_ring, pi_apply, projector_p
from superalg.spheres import make_sphere_projector, z6_example
from superalg.suites import (
    PYTHAGOREAN,
    featured_rings,
    random_element,
    random_even_soul,
    random_homogeneous,
    random_soul,
    suite_hom_grading,
)
from superalg.superanalysis import (
    cos_jet,
    sin_jet,
    sqrt_even,
    sqrt_even_binomial,
    super_cos,
    super_sin,
    trig_coeff_ring,
    trig_super_ring,
)
from superalg.supermodule import FreeType, ModElement, SuperMorphism, end_projector, split_idempotent
from superalg.superring import grassmann_ring


def report(ident, label, passed, elapsed, budget):
    verdict = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {ident:>2} {label:<58s} {verdict} ({elapsed:.2f}s < {budget:g}s)")
    assert passed, f"acceptance {ident}: {label}"
    assert elapsed < budget, f"acceptance {ident} exceeded {budget}s ({elapsed:.2f}s)"


def test_01_example_2_6_coefficients_are_factorials():
    start = time.perf_counter()
    L = 10
    ring = grassmann_ring(L)
    x = ring.zero()
    for i in range(L):
        for j in range(i + 1, L):
            x = x + ring.element({(1 << i) | (1 << j): ring.coeff.one()})
    ok = True
    power = ring.one()
    for n in range(1, 6):
        power = power * x
        mask = (1 << (2 * n)) - 1
        ok &= power.terms.get(mask, ring.coeff.zero()) == Fraction(math.factorial(n))
    report(1, "Example 2.6: coeff of b1..b2n in x^n is n!, n=1..5, L=10", ok, time.perf_counter() - start, 5)


def test_02_souls_are_nilpotent():
    start = time.perf_counter()
    ring = grassmann_ring(6)
    rng = random.Random(2026)
    ok = all((random_soul(rng, ring) ** 7).is_zero() for _ in range(200))
    report(2, "Nilpotency: 200 random souls in Grassmann(6), x^7 = 0", ok, time.perf_counter() - start, 5)


def test_03_sphere_projector_identities():
    start = time.perf_counter()
    ok = True
    for odd_names in ((), ("b1", "b2")):
        for n in range(1, 5):
            bundle = make_sphere_projector(n, odd_names=odd_names)
            g, alpha, ring = bundle.g, bundle.alpha, bundle.ring
            ok &= g.is_idempotent()
            ok &= g.apply(alpha) == alpha
            xs = [ring.even_gen(f"x{i}") for i in range(n + 1)]
            ok &= all(
                g.apply(ModElement.basis(ring, g.source, i)) == alpha.right_mul(xs[i])
                for i in range(n + 1)
            )
            if n == 1:
                kernel_gen = ModElement(ring, g.source, [xs[1], -xs[0]])
                ok &= g.apply(kernel_gen).is_zero()
    report(3, "Sphere projector: g^2=g, g(a)=a, columns, kernel gen; n=1..4", ok, time.perf_counter() - start, 10)


def test_04_z6_idempotent_enumeration():
    start = time.perf_counter()
    rep = z6_example()
    report(4, "Z6[xi1,xi2]: |Im e|=16, |Im(1-e)|=81, exact decomposition", rep.passed, time.perf_counter() - start, 5)


def test_05_hom_grading():
    start = time.perf_counter()
    rep = suite_hom_grading(count=100, seed=2026)
    report(5, "Hom grading: 100 random morphisms split parity-exactly", rep.passed, time.perf_counter() - start, 5)


def test_06_idempotent_splitting_round_trips():
    start = time.perf_counter()
    ok = True
    from superalg.spheres import z6_ring

    z6 = z6_ring()
    idempotents = [
        make_sphere_projector(1).g,
        make_sphere_projector(2).g,
        SuperMorphism.scalar(z6, FreeType(2, 1), z6.from_fraction(3)),
        SuperMorphism.identity(z6, FreeType(1, 1)),
        SuperMorphism.zero(z6, FreeType(2, 0), FreeType(2, 0)),
    ]
    for g in idempotents:
        split = split_idempotent(g)
        ident = SuperMorphism.identity(g.ring, g.source)
        ok &= split.iso_inv.compose(split.iso) == ident
        ok &= split.iso.compose(split.iso_inv).is_idempotent()
    report(6, "Splitting: x->(g(x),x-g(x)) and (p,h)->p+h invert exactly", ok, time.perf_counter() - start, 5)


def test_07_type_formulas_and_end_projector():
    start = time.perf_counter()
    ok = True
    for p1 in range(4):
        for q1 in range(4):
            for p2 in range(4):
                for q2 in range(4):
                    t1, t2 = FreeType(p1, q1), FreeType(p2, q2)
                    ok &= t1.direct_sum(t2) == FreeType(p1 + p2, q1 + q2)
                    ok &= t1.tensor(t2) == FreeType(p1 * p2 + q1 * q2, p1 * q2 + q1 * p2)
    E, _ = end_projector(make_sphere_projector(1).g)
    ok &= E.is_idempotent()
    report(7, "Type formulas for ranks <= 3; End projector idempotent", ok, time.perf_counter() - start, 5)


def test_08_sqrt_recursion_and_oracle():
    start = time.perf_counter()
    ring = grassmann_ring(6)
    rng = random.Random(2026)
    ok = True
    for _ in range(100):
        a, b, c = PYTHAGOREAN[rng.randrange(len(PYTHAGOREAN))]
        y = ring.from_fraction(Fraction(a, c) * rng.choice([1, -1])) + random_even_soul(rng, ring)
        z = ring.one() - y * y
        root0 = Fraction(b, c)
        x = sqrt_even(z, root0)
        ok &= x * x + y * y == ring.one()
        ok &= x == sqrt_even_binomial(z, root0)
    report(8, "sqrt_even: 100 Pythagorean bodies, square + series oracle", ok, time.perf_counter() - start, 10)


def test_09_super_trig_identities():
    start = time.perf_counter()
    ring = trig_super_ring(6)
    rng = random.Random(2026)
    ok = True
    for _ in range(25):
        soul = random_even_soul(rng, ring)
        s, c = super_sin(soul), super_cos(soul)
        ok &= s * s + c * c == ring.one()
    tring = trig_coeff_ring()
    ok &= sin_jet(6, tring).derivative() == cos_jet(5, tring)
    minus_sin = {k: tring.neg(v) for k, v in sin_jet(5, tring).table.items()}
    ok &= cos_jet(6, tring).derivative().table == minus_sin
    report(9, "Super trig: sin^2+cos^2=1 in trig ring x Grassmann(6); D-identities", ok, time.perf_counter() - start, 10)


def test_10_landi_projectors():
    start = time.perf_counter()
    ring = make_uosp_ring()
    rng = random.Random(2026)
    ok = True
    for n in (1, 2, 3):
        bra = make_bra(n, ring)
        ok &= inner(bra) == ring.one()
        ok &= projector_p(n, ring).is_idempotent()
    bra = make_bra(1, ring)
    for _ in range(20):
        v = ModElement(ring, bra.ftype, [random_element(rng, ring) for _ in range(bra.ftype.size)])
        pv = pi_apply(bra, v)
        ok &= pi_apply(bra, pv) == pv
    report(10, "Landi: <psi|psi>=1 and p^2=p for n=1..3; pi idempotent x20", ok, time.perf_counter() - start, 30)


def test_11_algebraic_laws_across_featured_rings():
    start = time.perf_counter()
    rng = random.Random(2026)
    rings = featured_rings()
    ok = True
    for _, ring in rings:
        for _ in range(125):
            px, py = rng.randint(0, 1), rng.randint(0, 1)
            x = random_homogeneous(rng, ring, px)
            y = random_homogeneous(rng, ring, py)
            z = random_element(rng, ring)
            xy = x * y
            ok &= xy == (-(y * x) if px * py else y * x)
            ok &= (x * y) * z == x * (y * z)
            ok &= x * (y + z) == x * y + x * z
            ok &= xy.is_zero() or xy.parity() == (px + py) % 2
    report(11, "Laws: commutativity/associativity/distributivity/grading x500", ok, time.perf_counter() - start, 10)
