"""Named verification suites behind the ``verify`` CLI subcommand.

Every suite returns a :class:`SuiteReport` whose clauses cover one documented
identity each; randomized suites are deterministic for a fixed seed.  Trials
are drawn from ``getrandbits`` exactly as ``random.Random`` draws them, so a
seed reproduces the same trials as in earlier versions, on CPython 3.10-3.12.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from .errors import DomainError
from .landi import inner, make_bra, make_uosp_ring, pi_apply
from .reports import SuiteReport, residual_witness
from .scalars import IntegerModRing, collect, shared
from .spheres import make_sphere_projector, sphere_ring, stably_free_certificate, z6_example, z6_ring
from .supermodule import (
    FreeType,
    ModElement,
    SuperMorphism,
    end_projector,
    extend_basis_map,
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
# Every draw is ``_below(rng.getrandbits, n)``, the draw under ``random.Random``'s
# ``randint``, ``choice`` and ``sample``, taken without their argument checks.


def _below(bits, n: int) -> int:
    """A uniform integer in ``0..n-1`` from ``bits = rng.getrandbits``, as ``Random._randbelow_with_getrandbits``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _sample_mask(bits, n: int, k: int) -> int:
    """The bitmask of ``rng.sample(range(n), k)``: the same draws, pool or set as ``sample`` picks."""
    setsize = 21  # sample's own rule: a pool of n, unless a set of k is smaller
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    mask = 0
    if n <= setsize:
        pool = list(range(n))
        for i in range(k):
            j = _below(bits, n - i)
            mask |= 1 << pool[j]
            pool[j] = pool[n - i - 1]
    else:
        for _ in range(k):
            j = _below(bits, n)
            while mask >> j & 1:
                j = _below(bits, n)
            mask |= 1 << j
    return mask


def _fraction_draw(numerators: range, denominators: range, build):
    """``draw(bits)``: ``build(Fraction(randint(...), randint(...)))`` over the two ranges.

    Each of the values is built on its first draw and kept, so a fraction
    ``build`` refuses still raises only when it is drawn.
    """
    cols = len(denominators)
    values = [None] * (len(numerators) * cols)

    def draw(bits):
        i = _below(bits, len(numerators))
        j = _below(bits, cols)
        key = i * cols + j
        value = values[key]
        if value is None:
            value = values[key] = build(Fraction(numerators[i], denominators[j]))
        return value

    return draw


def _coeff_sampler(ring: SuperRing):
    """``draw(bits)``: a random coefficient of ``ring``, drawn from ``bits = rng.getrandbits``.

    Only immutable scalars are kept between draws: a quotient value, a dict,
    is built afresh on each.
    """
    coeff = ring.coeff
    if isinstance(coeff, IntegerModRing):
        return lambda bits: coeff.from_int(_below(bits, coeff.n))
    if coeff.variables:
        scalar = _fraction_draw(range(-4, 5), range(1, 4), coeff.base.from_fraction)
        count = len(coeff.variables)

        def term(bits):
            c = scalar(bits)
            exps = [0] * count
            for _ in range(_below(bits, 3)):
                exps[_below(bits, count)] += 1
            return coeff.monomial(exps, c)

        return lambda bits: coeff.add(term(bits), term(bits)) if _below(bits, 2) else term(bits)
    return _fraction_draw(range(-6, 7), range(1, 5), coeff.from_fraction)


def random_homogeneous(rng: random.Random, ring: SuperRing, parity: int) -> SuperElement:
    """A random homogeneous element of the given parity (may be zero), from the sampler kept on ``ring``."""
    draw = shared(ring, _coeff_sampler, lambda: _coeff_sampler(ring))
    L = ring.odd_count
    if parity == 1 and L == 0:
        return ring.zero()
    bits = rng.getrandbits
    sizes = (L - parity) // 2 + 1  # len(range(parity, L + 1, 2)), the sizes of a term
    terms = []
    for _ in range(1 + _below(bits, 3)):
        terms.append((_sample_mask(bits, L, parity + 2 * _below(bits, sizes)), draw(bits)))
    return SuperElement(ring, collect(ring.coeff, terms))


def random_element(rng: random.Random, ring: SuperRing) -> SuperElement:
    return random_homogeneous(rng, ring, 0) + random_homogeneous(rng, ring, 1)


def _soul(x: SuperElement) -> SuperElement:
    return SuperElement(x.ring, {b: c for b, c in x.terms.items() if b})


def random_soul(rng: random.Random, ring: SuperRing) -> SuperElement:
    return _soul(random_element(rng, ring))


def random_even_soul(rng: random.Random, ring: SuperRing) -> SuperElement:
    return _soul(random_homogeneous(rng, ring, 0))


def featured_rings():
    """The four rings the algebraic-law suite exercises."""
    return (
        ("grassmann-6", grassmann_ring(6)),
        ("z6-xi1-xi2", z6_ring()),
        ("sphere-1-grassmann-2", sphere_ring(1, odd_names=("b1", "b2"))),
        ("uosp", make_uosp_ring()),
    )


# -- suites ---------------------------------------------------------------------
# A law checked on many inputs is one ``report.trials`` call; clauses that share
# inputs read them from one list of cases, drawn first.


def suite_grassmann_laws(seed: int = 0, count: int = 500) -> SuiteReport:
    """Super commutativity, associativity, distributivity, grading multiplicativity."""
    rings = featured_rings()
    per_ring = count // len(rings)
    report = SuiteReport("grassmann-laws", params={"count": count}, seed=seed)
    rng = random.Random(seed)
    for label, ring in rings:
        cases = []
        for _ in range(per_ring):
            px, py = rng.randint(0, 1), rng.randint(0, 1)
            x = random_homogeneous(rng, ring, px)
            y = random_homogeneous(rng, ring, py)
            cases.append((px, py, x, y, random_element(rng, ring), x * y))
        report.trials(f"super-commutativity[{label}]", f"{per_ring} homogeneous pairs", (
            (xy == (-(y * x) if px * py else y * x), {"x": x, "y": y}) for px, py, x, y, z, xy in cases
        ))
        report.trials(f"associativity[{label}]", f"{per_ring} triples", (
            (xy * z == x * (y * z), {"x": x, "y": y, "z": z}) for px, py, x, y, z, xy in cases
        ))
        report.trials(f"distributivity[{label}]", f"{per_ring} triples", (
            (x * (y + z) == xy + x * z, {"x": x, "y": y, "z": z}) for px, py, x, y, z, xy in cases
        ))
        report.trials(f"grading-multiplicative[{label}]", "|xy| = |x|+|y|", (
            (xy.is_zero() or xy.parity() == (px + py) % 2, {"x": x, "y": y}) for px, py, x, y, z, xy in cases
        ))
    return report


def suite_example_2_6(L: int = 10, max_n: int = 5) -> SuiteReport:
    """Coefficient of the first 2n generators in x^n is n!, x = sum of all b_i b_j."""
    if L < 2:
        raise DomainError(f"example-2-6 needs --L of at least 2, got {L}: below 2 it checks no coefficient")
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
        witness = f"coeff(x^{n}, b1..b{2 * n}) = {ring.coeff.to_str(got)}"
        report.add(f"n={n}", ring.coeff.eq(got, ring.coeff.from_int(math.factorial(n))), witness)
    return report


def suite_nilpotency(L: int = 6, count: int = 200, seed: int = 0) -> SuiteReport:
    """Souls are nilpotent of index at most L+1."""
    ring = grassmann_ring(L)
    rng = random.Random(seed)
    report = SuiteReport("nilpotency", params={"L": L, "count": count}, seed=seed)
    souls = [random_soul(rng, ring) for _ in range(count)]
    report.trials("soul-power-vanishes", f"{count} souls, x^{L + 1} = 0", (
        ((x ** (L + 1)).is_zero(), {"x": x}) for x in souls
    ))
    report.trials("is-nilpotent-flag", "is_nilpotent true for every soul", (
        (x.is_nilpotent(), {"x": x}) for x in souls
    ))
    unit = ring.one() + ring.odd_gen_at(1)
    report.add("body-blocks-nilpotency", not unit.is_nilpotent(), "1 + b1 is not nilpotent")
    return report


def _random_morphism(rng, ring, source, target):
    rows = [[random_element(rng, ring) for _ in range(source.size)] for _ in range(target.size)]
    return SuperMorphism(ring, source, target, rows)


def _random_vector(rng, ring, ftype):
    return ModElement(ring, ftype, [random_element(rng, ring) for _ in range(ftype.size)])


def suite_hom_grading(count: int = 100, seed: int = 0) -> SuiteReport:
    """Morphisms split into a parity-preserving and a parity-flipping part."""
    ring = z6_ring()
    rng = random.Random(seed)
    report = SuiteReport("hom-grading", params={"count": count, "ring": "Z6[xi1,xi2]"}, seed=seed)
    cases = []
    for _ in range(count):
        source = FreeType(rng.randint(0, 2), rng.randint(0, 2))
        target = FreeType(rng.randint(0, 2), rng.randint(0, 2))
        phi = _random_morphism(rng, ring, source, target)
        xs = [  # xs[p] is homogeneous of parity p
            ModElement(ring, source, [random_homogeneous(rng, ring, (p + bp) % 2) for bp in source.parities])
            for p in (0, 1)
        ]
        cases.append((phi, *phi.grade_split(), xs))
    report.trials("decomposition", "phi0 + phi1 = phi", (
        (phi0 + phi1 == phi, {"phi": phi.matrix}) for phi, phi0, phi1, xs in cases
    ))
    report.trials("even-part-preserves-parity", "on homogeneous test vectors", (
        (phi0.apply(x).homogeneous_part(1 - parity).is_zero(), {"phi": phi.matrix, "x": x.coeffs})
        for phi, phi0, phi1, xs in cases for parity, x in enumerate(xs)
    ))
    report.trials("odd-part-flips-parity", "on homogeneous test vectors", (
        (phi1.apply(x).homogeneous_part(parity).is_zero(), {"phi": phi.matrix, "x": x.coeffs})
        for phi, phi0, phi1, xs in cases for parity, x in enumerate(xs)
    ))
    report.trials("degree-contract", "|phi0| = 0, |phi1| = 1 where defined", (
        (
            phi0.degree() == 0
            and (phi1.is_zero() or phi1.degree() == 1),
            {"phi": phi.matrix},
        )
        for phi, phi0, phi1, xs in cases
    ))
    return report


def suite_universal_property(count: int = 50, seed: int = 0) -> SuiteReport:
    """Basis extension is unique and right-linear; left action carries the sign rule."""
    rng = random.Random(seed)
    ring = z6_ring()
    report = SuiteReport("universal-property", params={"count": count}, seed=seed)
    cases = []
    for _ in range(count):
        source = FreeType(rng.randint(1, 2), rng.randint(0, 2))
        target = FreeType(rng.randint(1, 2), rng.randint(0, 2))
        images = [_random_vector(rng, ring, target) for _ in range(source.size)]
        x = _random_vector(rng, ring, source)
        cases.append((images, extend_basis_map(ring, source, images), x, random_element(rng, ring)))
    report.trials("extends-basis", f"{count} random image lists", (
        (
            all(phi.apply(ModElement.basis(ring, phi.source, k)) == image for k, image in enumerate(images)),
            {"images": [image.coeffs for image in images]},
        )
        for images, phi, x, a in cases
    ))
    report.trials("right-linearity", "phi(x*a) = phi(x)*a", (
        (phi.apply(x.right_mul(a)) == phi.apply(x).right_mul(a), {"phi": phi.matrix, "x": x.coeffs, "a": a})
        for images, phi, x, a in cases
    ))

    bundle = make_sphere_projector(2)
    images = [bundle.alpha.right_mul(xi) for xi in bundle.alpha.coeffs]
    rebuilt = extend_basis_map(bundle.ring, bundle.g.source, images)
    report.add("reconstructs-tangent-projector", rebuilt == bundle.g, "images alpha*xi give g")

    def left_action_trials(gr, source):
        for _ in range(count):
            phi = _random_morphism(rng, gr, source, source)
            dphi = phi.degree()
            if dphi is None:  # a graded part is homogeneous
                phi = phi.grade_split()[rng.randint(0, 1)]
                dphi = phi.degree()
            pa = rng.randint(0, 1)
            a = random_homogeneous(rng, gr, pa)
            x = _random_vector(rng, gr, source)
            rhs = phi.apply(x).left_mul(a)
            if (dphi * pa) % 2:
                rhs = -rhs
            yield left_evaluate(phi, a, x) == rhs, {"phi": phi.matrix, "a": a, "x": x.coeffs}

    report.trials(
        "left-action-sign", "phi(a*x) = (-1)^(|phi||a|) a*phi(x)",
        left_action_trials(grassmann_ring(2), FreeType(1, 1)),
    )
    return report


def suite_sphere_projector(n: int = 1) -> SuiteReport:
    """Stably-free certificate over Q, plus idempotence over a Grassmann(2) base."""
    report = stably_free_certificate(make_sphere_projector(n))
    bundle2 = make_sphere_projector(n, odd_names=("b1", "b2"))
    holds = bundle2.g.is_idempotent() and bundle2.g.apply(bundle2.alpha) == bundle2.alpha
    report.add("idempotent-grassmann-base", holds, "g^2 = g over Q (x) Grassmann(2)")
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
    ring = z6_ring()
    three = SuperMorphism.scalar(ring, FreeType(2, 1), ring.from_fraction(3))
    round_trip("z6-scalar-3", three)
    round_trip("identity", SuperMorphism.identity(ring, FreeType(1, 2)))
    round_trip("zero", SuperMorphism.zero(ring, FreeType(2, 1), FreeType(2, 1)))

    # A split surjection: projection of (2,1) onto (1,1) with its inclusion section.
    big, small = FreeType(2, 1), FreeType(1, 1)
    one, zero = ring.one(), ring.zero()
    g = SuperMorphism(ring, big, small, [[one, zero, zero], [zero, zero, one]])
    s = SuperMorphism(ring, small, big, [[one, zero], [zero, zero], [zero, one]])
    phi, phi_inv = section_splitting(g, s)
    inverts = phi_inv.compose(phi) == SuperMorphism.identity(ring, big)
    report.add("section-splitting", inverts, "x -> (g(x), x - s(g(x))) inverts")
    h = _random_morphism(rng, ring, FreeType(1, 1), small)
    lifted = lift_through_split_surjection(h, g, s)
    report.add("lift-through-surjection", g.compose(lifted) == h, "g after lift = h")
    return report


def suite_tensor_types() -> SuiteReport:
    """Direct-sum and tensor rank formulas; the endomorphism projector."""
    report = SuiteReport("tensor-types", params={"max_rank": 3})
    types = [FreeType(p, q) for p, q in itertools.product(range(4), repeat=2)]
    cases = [(t1, t2, t1.tensor(t2)) for t1, t2 in itertools.product(types, repeat=2)]
    report.trials("direct-sum-types", "(p1+p2, q1+q2) for all ranks <= 3", (
        (t1.direct_sum(t2) == FreeType(t1.p + t2.p, t1.q + t2.q), {"t1": t1, "t2": t2})
        for t1, t2, tt in cases
    ))
    report.trials("tensor-types", "(p1p2+q1q2, p1q2+q1p2) for all ranks <= 3", (
        (tt == FreeType(t1.p * t2.p + t1.q * t2.q, t1.p * t2.q + t1.q * t2.p), {"t1": t1, "t2": t2})
        for t1, t2, tt in cases
    ))
    report.trials("tensor-basis-size", "ordered basis matches the type", (
        (len(tensor_basis(t1, t2)) == tt.size, {"t1": t1, "t2": t2}) for t1, t2, tt in cases
    ))

    bundle = make_sphere_projector(1)
    E, units = end_projector(bundle.g)
    report.add("end-projector-idempotent", E.is_idempotent(), "E(phi) = g phi g on Hom(F,F)")
    parities = bundle.g.source.parities  # checked from the parities alone: each unit once, even first
    unit_parities = [(parities[i] + parities[j]) % 2 for i, j in units]
    every_unit_once = sorted(units) == list(itertools.product(range(len(parities)), repeat=2))
    ordered = every_unit_once and unit_parities == sorted(unit_parities)
    report.add("hom-basis-units", ordered, "matrix units ordered even-first")
    return report


def suite_supercircle(L: int = 6, count: int = 25, seed: int = 0) -> SuiteReport:
    """Chart round-trips, the defining relation, and tangent vectors."""
    ring = grassmann_ring(L)
    rng = random.Random(seed)
    report = SuiteReport("supercircle", params={"L": L, "count": count}, seed=seed)
    cases = []
    for _ in range(count):
        a, b, c = PYTHAGOREAN[rng.randrange(len(PYTHAGOREAN))]
        y = ring.from_fraction(Fraction(a, c) * rng.choice([1, -1])) + random_even_soul(rng, ring)
        branch = rng.choice(["+", "-"])
        point = supercircle_chart(y, branch)
        cases.append((y, branch, point, *point.evens, random_homogeneous(rng, ring, rng.randint(0, 1))))
    report.trials("on-circle", "x^2 + y^2 = 1 exactly", (
        (x * x + y_back * y_back == ring.one(), {"y": y, "branch": branch})
        for y, branch, point, x, y_back, lam in cases
    ))
    report.trials("chart-roundtrip", "projection after inverse chart is identity", (
        (y_back == y, {"y": y, "branch": branch})  # forward chart is projection to y
        for y, branch, point, x, y_back, lam in cases
    ))
    report.trials("tangency", "x*(-lam y) + y*(lam x) = 0", (
        ((x * tx + y_back * ty).is_zero(), {"y": y, "branch": branch, "lam": lam})
        for y, branch, point, x, y_back, lam in cases for tx, ty in [circle_tangent(point, lam)]
    ))

    plus = supercircle_chart(ring.from_fraction(Fraction(3, 5)), "+")
    minus = supercircle_chart(ring.from_fraction(Fraction(3, 5)), "-")
    signs = plus.evens[0].body() == Fraction(4, 5) and minus.evens[0].body() == Fraction(-4, 5)
    report.add("branch-sign", signs, "x-body = +-4/5 at y = 3/5")

    trig = trig_super_ring(4)
    soul = random_even_soul(rng, trig)
    c_el, s_el = super_cos(soul), super_sin(soul)
    tx, ty = circle_tangent(SuperPoint((c_el, s_el), ()), trig.one())
    report.add("trig-point-tangent", tx == -s_el and ty == c_el, "(cos, sin) has tangent (-sin, cos)")
    return report


def suite_trig(L: int = 6, count: int = 25, seed: int = 0) -> SuiteReport:
    """Pythagorean identity and the superderivation identities for sin and cos."""
    ring = trig_super_ring(L)
    rng = random.Random(seed)
    report = SuiteReport("trig", params={"L": L, "count": count}, seed=seed)
    souls = (random_even_soul(rng, ring) for _ in range(count))
    report.trials("sin2-plus-cos2", f"{count} random souls, identity exact", (
        (s * s + c * c == ring.one(), {"soul": soul})
        for soul in souls for s, c in [(super_sin(soul), super_cos(soul))]
    ))

    sj, cj = sin_jet(L, ring.coeff), cos_jet(L, ring.coeff)
    report.add("D-sin-is-cos", sj.derivative() == cos_jet(L - 1, ring.coeff), "jet cycle shift")
    neg_sin = Jet(
        1, L - 1, ring.coeff,
        {k: ring.coeff.neg(v) for k, v in sin_jet(L - 1, ring.coeff).table.items()},
    )
    report.add("D-cos-is-neg-sin", cj.derivative() == neg_sin, "jet cycle shift")
    constant = (sj * sj + cj * cj).derivative().is_zero()
    report.add("D-of-pythagoras-zero", constant, "derivative of the constant-1 jet")

    # Rational backend: nilpotent angles in a pure Grassmann ring.
    gr = grassmann_ring(2)
    theta = gr.odd_gen_at(1) * gr.odd_gen_at(2)
    values = (super_sin(theta), super_cos(theta), super_sin(gr.zero()), super_cos(gr.zero()))
    report.add(
        "series-backend", values == (theta, gr.one(), gr.zero(), gr.one()),
        "sin(b1b2) = b1b2, cos(b1b2) = 1, sin 0 = 0, cos 0 = 1",
    )

    # Continuation is a ring homomorphism on polynomial jets up to degree 3.
    rr = gr.coeff

    def poly_jet(cs, base):
        # exact derivative table of c0 + c1 t + c2 t^2 + c3 t^3 at `base`
        table = {}
        for order in range(4):
            val = sum(
                c * math.factorial(k) // math.factorial(k - order) * base ** (k - order)
                for k, c in enumerate(cs) if k >= order
            )
            table[(order,)] = rr.from_fraction(Fraction(val))
        return Jet(1, 3, rr, table, base=(rr.from_fraction(base),))

    def continuation_trials():
        for _ in range(count):
            base = Fraction(rng.randint(-3, 3))
            x = gr.from_fraction(base) + random_even_soul(rng, gr)
            fs, gs = ([rng.randint(-3, 3) for _ in range(2)] for _ in range(2))
            f, g = poly_jet(fs, base), poly_jet(gs, base)
            lhs = continue_analytically(f * g, [x])
            rhs = continue_analytically(f, [x]) * continue_analytically(g, [x])
            yield lhs == rhs, {"x": x, "f": fs, "g": gs}

    witness = "continue(f*g) = continue(f)*continue(g)"
    report.trials("continuation-multiplicative", witness, continuation_trials())
    return report


def suite_sqrt(L: int = 6, count: int = 100, seed: int = 0) -> SuiteReport:
    """The even square-root recursion against the binomial-series oracle."""
    if L < 2:
        raise DomainError(f"sqrt needs --L of at least 2, got {L}: its worked example multiplies b1*b2")
    ring = grassmann_ring(L)
    rng = random.Random(seed)
    report = SuiteReport("sqrt", params={"L": L, "count": count}, seed=seed)
    cases = []
    for _ in range(count):
        a, b, c = PYTHAGOREAN[rng.randrange(len(PYTHAGOREAN))]
        y = ring.from_fraction(Fraction(a, c) * rng.choice([1, -1])) + random_even_soul(rng, ring)
        z = ring.one() - y * y
        root0 = Fraction(b, c) * rng.choice([1, -1])
        cases.append((y, z, root0, sqrt_even(z, root0)))
    report.trials("square-identity", f"{count} Pythagorean bodies, sqrt(1-y^2)^2 + y^2 = 1", (
        (x * x + y * y == ring.one(), {"y": y, "root0": root0}) for y, z, root0, x in cases
    ))
    report.trials("matches-series-oracle", "recursion = root0 * binomial series", (
        (x == sqrt_even_binomial(z, root0), {"y": y, "root0": root0}) for y, z, root0, x in cases
    ))

    b1b2 = ring.odd_gen_at(1) * ring.odd_gen_at(2)
    y = ring.from_fraction(Fraction(3, 5)) + b1b2
    x = sqrt_even(ring.one() - y * y, Fraction(4, 5))
    expect = ring.from_fraction(Fraction(4, 5)) - b1b2.scale(Fraction(3, 4))
    report.add("worked-example", x == expect, "sqrt(1-y^2) = 4/5 - 3/4 b1b2 at y = 3/5 + b1b2")
    return report


def suite_landi(n: int = 1, seed: int = 0) -> SuiteReport:
    """The rank-one supersphere projector at level n."""
    ring = make_uosp_ring()
    rng = random.Random(seed)
    bra = make_bra(n, ring)
    vectors = 20
    report = SuiteReport("landi", params={"n": n, "vectors": vectors}, seed=seed)

    ip = inner(bra)
    report.add("inner-is-one", ip == ring.one(), f"<psi|psi> = {ip.to_text()}")

    p = bra.projector()
    residual = p.idempotence_residual()
    report.add("idempotent", not residual, residual_witness("residual p^2 - p", residual))
    report.add("self-adjoint", p.super_adjoint() == p, "p+ = p")
    report.add("parity-blocks", p.degree() == 0, "entry parity = |b_i| + |b_j|")

    cases = [(v, pi_apply(bra, v)) for v in (_random_vector(rng, ring, bra.ftype) for _ in range(vectors))]
    report.trials("pi-idempotent", f"{vectors} random vectors", (
        (pi_apply(bra, pv) == pv, {"v": v.coeffs}) for v, pv in cases
    ))
    report.trials("pi-matches-matrix", "pi(v) = p v componentwise", (
        (p.apply(v) == pv, {"v": v.coeffs}) for v, pv in cases
    ))

    ket = ModElement(ring, bra.ftype, bra.ket)
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
