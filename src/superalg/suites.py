"""Named verification suites behind the ``verify`` CLI subcommand.

Every suite returns a :class:`SuiteReport` whose clauses cover one documented
identity each; randomized suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from .errors import DomainError
from .landi import inner, ket_entries, make_bra, make_uosp_ring, pi_apply, projector_p
from .reports import SuiteReport, residual_witness
from .scalars import IntegerModRing, PolyQuotientRing
from .spheres import make_sphere_projector, stably_free_certificate, z6_example, z6_ring
from .supermodule import (
    FreeType,
    ModElement,
    SuperMorphism,
    end_projector,
    extend_basis_map,
    hom_basis_units,
    left_evaluate,
    lift_through_split_surjection,
    section_splitting,
    split_idempotent,
    tensor_basis,
)
from .superanalysis import (
    Jet,
    SuperPoint,
    circle_tangent,
    cos_jet,
    continue_analytically,
    sin_jet,
    sqrt_even,
    sqrt_even_binomial,
    super_cos,
    super_sin,
    supercircle_chart,
    trig_super_ring,
)
from .superring import SuperElement, SuperRing, grassmann_ring

PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


# -- random element generation --------------------------------------------------


def _coeff_sampler(ring: SuperRing):
    coeff = ring.coeff
    if isinstance(coeff, IntegerModRing):
        return lambda rng: coeff.from_int(rng.randrange(coeff.n))
    if isinstance(coeff, PolyQuotientRing):
        variables = coeff.variables

        def sample(rng):
            acc = coeff.zero()
            for _ in range(rng.randint(1, 2)):
                term = coeff.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 2)):
                    term = coeff.mul(term, coeff.var(rng.choice(variables)))
                acc = coeff.add(acc, term)
            return acc

        return sample
    return lambda rng: coeff.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


def random_homogeneous(rng: random.Random, ring: SuperRing, parity: int) -> SuperElement:
    """A random homogeneous element of the given parity (may be zero)."""
    sample = _coeff_sampler(ring)
    L = ring.odd_count
    if parity == 1 and L == 0:
        return ring.zero()
    terms = {}
    coeff = ring.coeff
    for _ in range(rng.randint(1, 3)):
        k = rng.choice([k for k in range(parity, L + 1, 2)])
        bits = 0
        for i in rng.sample(range(L), k):
            bits |= 1 << i
        terms[bits] = coeff.add(terms.get(bits, coeff.zero()), sample(rng))
    return ring.element(terms)


def random_element(rng: random.Random, ring: SuperRing) -> SuperElement:
    return random_homogeneous(rng, ring, 0) + random_homogeneous(rng, ring, 1)


def random_soul(rng: random.Random, ring: SuperRing) -> SuperElement:
    x = random_element(rng, ring)
    return SuperElement(ring, {b: c for b, c in x.terms.items() if b})


def random_even_soul(rng: random.Random, ring: SuperRing) -> SuperElement:
    x = random_homogeneous(rng, ring, 0)
    return SuperElement(ring, {b: c for b, c in x.terms.items() if b})


def featured_rings():
    """The four rings the algebraic-law suite exercises."""
    from .spheres import sphere_ring

    return (
        ("grassmann-6", grassmann_ring(6)),
        ("z6-xi1-xi2", z6_ring()),
        ("sphere-1-grassmann-2", sphere_ring(1, odd_names=("b1", "b2"))),
        ("uosp", make_uosp_ring()),
    )


# -- suites ---------------------------------------------------------------------


def suite_grassmann_laws(seed: int = 0, count: int = 500) -> SuiteReport:
    """Super commutativity, associativity, distributivity, grading multiplicativity."""
    rings = featured_rings()
    per_ring = count // len(rings)
    report = SuiteReport("grassmann-laws", params={"count": count}, seed=seed)
    rng = random.Random(seed)
    for label, ring in rings:
        commut = assoc = distrib = grading = True
        for _ in range(per_ring):
            px, py = rng.randint(0, 1), rng.randint(0, 1)
            x = random_homogeneous(rng, ring, px)
            y = random_homogeneous(rng, ring, py)
            z = random_element(rng, ring)
            lhs = x * y
            rhs = y * x
            if px * py:
                rhs = -rhs
            commut &= lhs == rhs
            assoc &= (x * y) * z == x * (y * z)
            distrib &= x * (y + z) == x * y + x * z
            grading &= lhs.is_zero() or lhs.parity() == (px + py) % 2
        report.add(f"super-commutativity[{label}]", commut, f"{per_ring} homogeneous pairs")
        report.add(f"associativity[{label}]", assoc, f"{per_ring} triples")
        report.add(f"distributivity[{label}]", distrib, f"{per_ring} triples")
        report.add(f"grading-multiplicative[{label}]", grading, "|xy| = |x|+|y|")
    return report


def suite_example_2_6(L: int = 10, max_n: int = 5) -> SuiteReport:
    """Coefficient of the first 2n generators in x^n is n!, x = sum of all b_i b_j."""
    ring = grassmann_ring(L)
    report = SuiteReport("example-2-6", params={"L": L, "max_n": max_n})
    one = ring.coeff.one()
    x = ring.element({(1 << i) | (1 << j): one for i in range(L) for j in range(i + 1, L)})
    power = ring.one()
    for n in range(1, max_n + 1):
        power = power * x
        if 2 * n > L:
            report.add(f"n={n}", True, "2n exceeds L; degreewise statement vacuous")
            continue
        mask = (1 << (2 * n)) - 1
        got = power.terms.get(mask, ring.coeff.zero())
        expect = ring.coeff.from_int(math.factorial(n))
        report.add(
            f"n={n}",
            ring.coeff.eq(got, expect),
            f"coeff(x^{n}, b1..b{2 * n}) = {ring.coeff.to_str(got)}",
        )
    return report


def suite_nilpotency(L: int = 6, count: int = 200, seed: int = 0) -> SuiteReport:
    """Souls are nilpotent of index at most L+1."""
    ring = grassmann_ring(L)
    rng = random.Random(seed)
    report = SuiteReport("nilpotency", params={"L": L, "count": count}, seed=seed)
    all_zero = True
    detected = True
    for _ in range(count):
        x = random_soul(rng, ring)
        all_zero &= (x ** (L + 1)).is_zero()
        detected &= x.is_nilpotent()
    report.add("soul-power-vanishes", all_zero, f"{count} souls, x^{L + 1} = 0")
    report.add("is-nilpotent-flag", detected, "is_nilpotent true for every soul")
    unit = ring.one() + ring.odd_gen_at(1)
    report.add("body-blocks-nilpotency", not unit.is_nilpotent(), "1 + b1 is not nilpotent")
    return report


def _random_morphism(rng, ring, source, target):
    return SuperMorphism(
        ring, source, target,
        [[random_element(rng, ring) for _ in range(source.size)] for _ in range(target.size)],
    )


def suite_hom_grading(count: int = 100, seed: int = 0) -> SuiteReport:
    """Morphisms split into a parity-preserving and a parity-flipping part."""
    ring = z6_ring()
    rng = random.Random(seed)
    report = SuiteReport("hom-grading", params={"count": count, "ring": "Z6[xi1,xi2]"}, seed=seed)
    decomposition = preserves = flips = degrees = True
    for _ in range(count):
        source = FreeType(rng.randint(0, 2), rng.randint(0, 2))
        target = FreeType(rng.randint(0, 2), rng.randint(0, 2))
        phi = _random_morphism(rng, ring, source, target)
        phi0, phi1 = phi.grade_split()
        decomposition &= phi0 + phi1 == phi
        phi1_zero = all(e.is_zero() for row in phi1.matrix for e in row)
        degrees &= phi0.degree() == 0 and (phi1_zero or phi1.degree() == 1)
        for parity in (0, 1):
            coords = [random_homogeneous(rng, ring, (parity + bp) % 2) for bp in source.parities]
            x = ModElement(ring, source, coords)  # homogeneous of the given parity
            y0, y1 = phi0.apply(x), phi1.apply(x)
            preserves &= y0.is_zero() or y0.homogeneous_part((parity + 1) % 2).is_zero()
            flips &= y1.is_zero() or y1.homogeneous_part(parity).is_zero()
    report.add("decomposition", decomposition, "phi0 + phi1 = phi")
    report.add("even-part-preserves-parity", preserves, "on homogeneous test vectors")
    report.add("odd-part-flips-parity", flips, "on homogeneous test vectors")
    report.add("degree-contract", degrees, "|phi0| = 0, |phi1| = 1 where defined")
    return report


def suite_universal_property(count: int = 50, seed: int = 0) -> SuiteReport:
    """Basis extension is unique and right-linear; left action carries the sign rule."""
    rng = random.Random(seed)
    ring = z6_ring()
    report = SuiteReport("universal-property", params={"count": count}, seed=seed)
    extends = linear = True
    for _ in range(count):
        source = FreeType(rng.randint(1, 2), rng.randint(0, 2))
        target = FreeType(rng.randint(1, 2), rng.randint(0, 2))
        images = [
            ModElement(ring, target, [random_element(rng, ring) for _ in range(target.size)])
            for _ in range(source.size)
        ]
        phi = extend_basis_map(ring, source, images)
        extends &= all(
            phi.apply(ModElement.basis(ring, source, k)) == images[k] for k in range(source.size)
        )
        x = ModElement(ring, source, [random_element(rng, ring) for _ in range(source.size)])
        a = random_element(rng, ring)
        linear &= phi.apply(x.right_mul(a)) == phi.apply(x).right_mul(a)
    report.add("extends-basis", extends, f"{count} random image lists")
    report.add("right-linearity", linear, "phi(x*a) = phi(x)*a")

    bundle = make_sphere_projector(2)
    xs = [bundle.ring.even_gen(f"x{i}") for i in range(3)]
    images = [bundle.alpha.right_mul(xi) for xi in xs]
    rebuilt = extend_basis_map(bundle.ring, bundle.g.source, images)
    report.add("reconstructs-tangent-projector", rebuilt == bundle.g, "images alpha*xi give g")

    gr = grassmann_ring(2)
    sign_ok = True
    for _ in range(count):
        source = FreeType(1, 1)
        phi = _random_morphism(rng, gr, source, source)
        dphi = phi.degree()
        if dphi is None:
            phi = phi.grade_split()[rng.randint(0, 1)]
            dphi = phi.degree()
            if dphi is None:
                continue
        pa = rng.randint(0, 1)
        a = random_homogeneous(rng, gr, pa)
        x = ModElement(gr, source, [random_element(rng, gr) for _ in range(source.size)])
        lhs = left_evaluate(phi, a, x)
        rhs = phi.apply(x).left_mul(a)
        if (dphi * pa) % 2:
            rhs = ModElement(gr, source, [-c for c in rhs.coeffs])
        sign_ok &= lhs == rhs
    report.add("left-action-sign", sign_ok, "phi(a*x) = (-1)^(|phi||a|) a*phi(x)")
    return report


def suite_sphere_projector(n: int = 1) -> SuiteReport:
    """Stably-free certificate over Q, plus idempotence over a Grassmann(2) base."""
    report = stably_free_certificate(make_sphere_projector(n))
    bundle2 = make_sphere_projector(n, odd_names=("b1", "b2"))
    report.add(
        "idempotent-grassmann-base",
        bundle2.g.is_idempotent() and bundle2.g.apply(bundle2.alpha) == bundle2.alpha,
        "g^2 = g over Q (x) Grassmann(2)",
    )
    return report


def suite_splitting(seed: int = 0) -> SuiteReport:
    """Idempotent and section splittings compose to identities exactly."""
    rng = random.Random(seed)
    report = SuiteReport("splitting", params={}, seed=seed)

    def round_trip(name, g):
        split = split_idempotent(g)
        # On the summand presentation the other composite is the block projector.
        ok = split.round_trip_holds() & split.iso.compose(split.iso_inv).is_idempotent()
        report.add(f"roundtrip-{name}", ok, "iso_inv after iso = id")

    bundle = make_sphere_projector(1)
    round_trip("sphere", bundle.g)
    z6 = z6_ring()
    three = SuperMorphism.scalar(z6, FreeType(2, 1), z6.from_fraction(3))
    round_trip("z6-scalar-3", three)
    round_trip("identity", SuperMorphism.identity(z6, FreeType(1, 2)))
    round_trip("zero", SuperMorphism.zero(z6, FreeType(2, 1), FreeType(2, 1)))

    # A split surjection: projection of (2,1) onto (1,1) with its inclusion section.
    ring = z6
    big, small = FreeType(2, 1), FreeType(1, 1)
    g = SuperMorphism(ring, big, small, [
        [ring.one(), ring.zero(), ring.zero()],
        [ring.zero(), ring.zero(), ring.one()],
    ])
    s = SuperMorphism(ring, small, big, [
        [ring.one(), ring.zero()],
        [ring.zero(), ring.zero()],
        [ring.zero(), ring.one()],
    ])
    phi, phi_inv = section_splitting(g, s)
    report.add(
        "section-splitting",
        phi_inv.compose(phi) == SuperMorphism.identity(ring, big),
        "x -> (g(x), x - s(g(x))) inverts",
    )
    h = _random_morphism(rng, ring, FreeType(1, 1), small)
    lifted = lift_through_split_surjection(h, g, s)
    report.add("lift-through-surjection", g.compose(lifted) == h, "g after lift = h")
    return report


def suite_tensor_types() -> SuiteReport:
    """Direct-sum and tensor rank formulas; the endomorphism projector."""
    report = SuiteReport("tensor-types", params={"max_rank": 3})
    sums = tensors = basis_sizes = True
    for p1 in range(4):
        for q1 in range(4):
            for p2 in range(4):
                for q2 in range(4):
                    t1, t2 = FreeType(p1, q1), FreeType(p2, q2)
                    sums &= t1.direct_sum(t2) == FreeType(p1 + p2, q1 + q2)
                    tt = t1.tensor(t2)
                    tensors &= tt == FreeType(p1 * p2 + q1 * q2, p1 * q2 + q1 * p2)
                    basis_sizes &= len(tensor_basis(t1, t2)) == tt.size
    report.add("direct-sum-types", sums, "(p1+p2, q1+q2) for all ranks <= 3")
    report.add("tensor-types", tensors, "(p1p2+q1q2, p1q2+q1p2) for all ranks <= 3")
    report.add("tensor-basis-size", basis_sizes, "ordered basis matches the type")

    bundle = make_sphere_projector(1)
    E, units = end_projector(bundle.g)
    report.add("end-projector-idempotent", E.is_idempotent(), "E(phi) = g phi g on Hom(F,F)")
    report.add(
        "hom-basis-units",
        units == hom_basis_units(bundle.g.source) and len(units) == 4,
        "matrix units ordered even-first",
    )
    return report


def suite_supercircle(L: int = 6, count: int = 25, seed: int = 0) -> SuiteReport:
    """Chart round-trips, the defining relation, and tangent vectors."""
    ring = grassmann_ring(L)
    rng = random.Random(seed)
    report = SuiteReport("supercircle", params={"L": L, "count": count}, seed=seed)
    on_circle = round_trip = tangency = True
    for _ in range(count):
        a, b, c = PYTHAGOREAN[rng.randrange(len(PYTHAGOREAN))]
        y = ring.from_fraction(Fraction(a, c) * rng.choice([1, -1])) + random_even_soul(rng, ring)
        point = supercircle_chart(y, rng.choice(["+", "-"]))
        x, y_back = point.evens
        on_circle &= x * x + y_back * y_back == ring.one()
        round_trip &= y_back == y  # forward chart is projection to y
        lam = random_homogeneous(rng, ring, rng.randint(0, 1))
        tx, ty = circle_tangent(point, lam)
        tangency &= (x * tx + y_back * ty).is_zero()
    report.add("on-circle", on_circle, "x^2 + y^2 = 1 exactly")
    report.add("chart-roundtrip", round_trip, "projection after inverse chart is identity")
    report.add("tangency", tangency, "x*(-lam y) + y*(lam x) = 0")

    plus = supercircle_chart(ring.from_fraction(Fraction(3, 5)), "+")
    minus = supercircle_chart(ring.from_fraction(Fraction(3, 5)), "-")
    report.add(
        "branch-sign",
        plus.evens[0].body() == Fraction(4, 5) and minus.evens[0].body() == Fraction(-4, 5),
        "x-body = +-4/5 at y = 3/5",
    )

    trig = trig_super_ring(4)
    soul = random_even_soul(rng, trig)
    c_el, s_el = super_cos(soul), super_sin(soul)
    tx, ty = circle_tangent(SuperPoint((c_el, s_el), ()), trig.one())
    report.add(
        "trig-point-tangent",
        tx == -s_el and ty == c_el,
        "(cos, sin) has tangent (-sin, cos)",
    )
    return report


def suite_trig(L: int = 6, count: int = 25, seed: int = 0) -> SuiteReport:
    """Pythagorean identity and the superderivation identities for sin and cos."""
    ring = trig_super_ring(L)
    rng = random.Random(seed)
    report = SuiteReport("trig", params={"L": L, "count": count}, seed=seed)
    pythagoras = True
    for _ in range(count):
        soul = random_even_soul(rng, ring)
        s, c = super_sin(soul), super_cos(soul)
        pythagoras &= s * s + c * c == ring.one()
    report.add("sin2-plus-cos2", pythagoras, f"{count} random souls, identity exact")

    sj, cj = sin_jet(L, ring.coeff), cos_jet(L, ring.coeff)
    report.add("D-sin-is-cos", sj.derivative() == cos_jet(L - 1, ring.coeff), "jet cycle shift")
    neg_sin = Jet.from_dict(
        1, L - 1, ring.coeff,
        {k: ring.coeff.neg(v) for k, v in sin_jet(L - 1, ring.coeff).as_dict().items()},
    )
    report.add("D-cos-is-neg-sin", cj.derivative() == neg_sin, "jet cycle shift")
    report.add(
        "D-of-pythagoras-zero",
        (sj * sj + cj * cj).derivative().is_zero(),
        "derivative of the constant-1 jet",
    )

    # Rational backend: nilpotent angles in a pure Grassmann ring.
    gr = grassmann_ring(2)
    theta = gr.odd_gen_at(1) * gr.odd_gen_at(2)
    report.add(
        "series-backend",
        super_sin(theta) == theta and super_cos(theta) == gr.one()
        and super_sin(gr.zero()).is_zero() and super_cos(gr.zero()) == gr.one(),
        "sin(b1b2) = b1b2, cos(b1b2) = 1, sin 0 = 0, cos 0 = 1",
    )

    # Continuation is a ring homomorphism on polynomial jets up to degree 3.
    rr = gr.coeff
    hom_ok = True
    for _ in range(count):
        base = Fraction(rng.randint(-3, 3))
        x = gr.from_fraction(base) + random_even_soul(rng, gr)

        def poly_jet(cs):
            # exact derivative table of c0 + c1 t + c2 t^2 + c3 t^3 at `base`
            table = {}
            for order in range(4):
                val = sum(
                    c * math.factorial(k) // math.factorial(k - order) * base ** (k - order)
                    for k, c in enumerate(cs) if k >= order
                )
                table[(order,)] = rr.from_fraction(Fraction(val))
            return Jet.from_dict(1, 3, rr, table, base=(rr.from_fraction(base),))

        f = poly_jet([rng.randint(-3, 3) for _ in range(2)])
        g = poly_jet([rng.randint(-3, 3) for _ in range(2)])
        lhs = continue_analytically(f * g, [x])
        rhs = continue_analytically(f, [x]) * continue_analytically(g, [x])
        hom_ok &= lhs == rhs
    report.add("continuation-multiplicative", hom_ok, "continue(f*g) = continue(f)*continue(g)")
    return report


def suite_sqrt(L: int = 6, count: int = 100, seed: int = 0) -> SuiteReport:
    """The even square-root recursion against the binomial-series oracle."""
    ring = grassmann_ring(L)
    rng = random.Random(seed)
    report = SuiteReport("sqrt", params={"L": L, "count": count}, seed=seed)
    squares = oracle = True
    for _ in range(count):
        a, b, c = PYTHAGOREAN[rng.randrange(len(PYTHAGOREAN))]
        y = ring.from_fraction(Fraction(a, c) * rng.choice([1, -1])) + random_even_soul(rng, ring)
        z = ring.one() - y * y
        root0 = Fraction(b, c) * rng.choice([1, -1])
        x = sqrt_even(z, root0)
        squares &= x * x + y * y == ring.one()
        oracle &= x == sqrt_even_binomial(z, root0)
    report.add("square-identity", squares, f"{count} Pythagorean bodies, sqrt(1-y^2)^2 + y^2 = 1")
    report.add("matches-series-oracle", oracle, "recursion = root0 * binomial series")

    y = ring.from_fraction(Fraction(3, 5)) + ring.odd_gen_at(1) * ring.odd_gen_at(2)
    x = sqrt_even(ring.one() - y * y, Fraction(4, 5))
    expect = ring.from_fraction(Fraction(4, 5)) - (
        ring.odd_gen_at(1) * ring.odd_gen_at(2)
    ).scale(Fraction(3, 4))
    report.add("worked-example", x == expect, "sqrt(1-y^2) = 4/5 - 3/4 b1b2 at y = 3/5 + b1b2")
    return report


def suite_landi(n: int = 1, seed: int = 0, vectors: int = 20) -> SuiteReport:
    """The rank-one supersphere projector at level n."""
    ring = make_uosp_ring()
    rng = random.Random(seed)
    bra = make_bra(n, ring)
    report = SuiteReport("landi", params={"n": n, "vectors": vectors}, seed=seed)

    ip = inner(bra)
    report.add("inner-is-one", ip == ring.one(), f"<psi|psi> = {ip.to_text()}")

    p = projector_p(n, ring)
    residual = p.idempotence_residual()
    report.add("idempotent", not residual, residual_witness("residual p^2 - p", residual))
    report.add("self-adjoint", p.super_adjoint() == p, "p+ = p")
    report.add("parity-blocks", p.degree() == 0, "entry parity = |b_i| + |b_j|")

    pi_idem = matches = True
    for _ in range(vectors):
        v = ModElement(
            ring, bra.ftype, [random_element(rng, ring) for _ in range(bra.ftype.size)]
        )
        pv = pi_apply(bra, v)
        pi_idem &= pi_apply(bra, pv) == pv
        matches &= p.apply(v) == pv
    report.add("pi-idempotent", pi_idem, f"{vectors} random vectors")
    report.add("pi-matches-matrix", matches, "pi(v) = p v componentwise")

    ket = ModElement(ring, bra.ftype, ket_entries(bra))
    report.add("ket-eigenvector", pi_apply(bra, ket) == ket, "pi(|psi>) = |psi>")
    return report


SUITES = {
    "grassmann-laws": suite_grassmann_laws,
    "example-2-6": suite_example_2_6,
    "nilpotency": suite_nilpotency,
    "hom-grading": suite_hom_grading,
    "universal-property": suite_universal_property,
    "sphere-projector": suite_sphere_projector,
    "z6": z6_example,
    "splitting": suite_splitting,
    "tensor-types": suite_tensor_types,
    "supercircle": suite_supercircle,
    "trig": suite_trig,
    "sqrt": suite_sqrt,
    "landi": suite_landi,
}


def run_suite(name: str, **params) -> SuiteReport:
    """Run the suite ``name`` and set the report's ``wall_time``.

    Only the parameters the suite takes are passed on, and ``None`` means the
    suite's default, so one set of options serves every suite.
    """
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}")
    suite = SUITES[name]
    accepted = suite.__code__.co_varnames[: suite.__code__.co_argcount]
    params = {key: value for key, value in params.items() if key in accepted and value is not None}
    start = time.perf_counter()
    report = suite(**params)
    report.wall_time = time.perf_counter() - start
    return report
