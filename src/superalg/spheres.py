"""Flagship projector examples: the sphere tangent projector and the mod-6 idempotent.

The sphere projector lives over the quotient ring
``R[x0..xn] / (x0^2 + ... + xn^2 - 1)`` and sends basis vector ``s_i`` to
``sum_j xi xj s_j``.  Its image is generated by ``alpha = sum_j xj s_j`` and
its kernel is the stably free tangent module.

:func:`make_sphere_projector` builds and checks one bundle per ``(n, ring)``
per process and keeps it on the ring object; its ``g`` keeps the ``g∘g - g``
residual of those checks.  A shared bundle must not be mutated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError
from .reports import SuiteReport
from .scalars import CoeffRing, IntegerModRing, PolyQuotientRing, RationalRing, Relation, canonical, factory_key, interned, shared
from .supermodule import FreeType, ModElement, SuperMorphism, split_idempotent
from .superring import SuperRing


def sphere_coeff_ring(n: int, base: CoeffRing = None) -> PolyQuotientRing:
    """``base[x0..xn]`` with the relation ``x0^2 = 1 - x1^2 - ... - xn^2``, one object per ``(n, base)``."""
    relation = Relation(("x0", "x0"), "1" + "".join(f" - x{i}^2" for i in range(1, n + 1)))
    return interned(
        factory_key(sphere_coeff_ring, n, base),
        lambda: PolyQuotientRing(canonical(base or RationalRing()), [f"x{i}" for i in range(n + 1)], relation),
    )


def sphere_ring(n: int, base: CoeffRing = None, odd_names=()) -> SuperRing:
    """:func:`sphere_coeff_ring` with the odd generators ``odd_names``, one object per ``(n, base, odd_names)``."""
    odd_names = tuple(odd_names)
    return interned(factory_key(sphere_ring, n, base, odd_names), lambda: SuperRing(sphere_coeff_ring(n, base), odd_names))


@dataclass(frozen=True)
class SphereProjectorBundle:
    """The tangent projector over the sphere quotient ring.

    Basis vectors s_0..s_n are all chosen even (type (n+1, 0)); the paper-free
    analog of the classical tangent bundle construction.
    """

    n: int
    ring: SuperRing
    g: SuperMorphism
    alpha: ModElement


def make_sphere_projector(n: int, base: CoeffRing = None, odd_names=()) -> SphereProjectorBundle:
    """The projector ``g(s_i) = sum_j xi xj s_j``, its invariants verified, one bundle per ``(n, ring)``.

    The bundle is kept on the shared :func:`sphere_ring`, so arguments that
    name one ring find one bundle.  The checks run on the first call per key
    in a process; a call that raises stores nothing.  The bundle is shared:
    do not mutate it.
    """
    if n < 1:
        raise DomainError("sphere dimension index must be at least 1")
    ring = sphere_ring(n, base, odd_names)
    return shared(ring, factory_key(make_sphere_projector, n), lambda: _sphere_projector(n, ring))


def _sphere_projector(n: int, ring: SuperRing) -> SphereProjectorBundle:
    xs = [ring.even_gen(f"x{i}") for i in range(n + 1)]
    ftype = FreeType(n + 1, 0)
    matrix = [[xs[i] * xs[j] for j in range(n + 1)] for i in range(n + 1)]
    g = SuperMorphism(ring, ftype, ftype, matrix)
    alpha = ModElement(ring, ftype, xs)
    bundle = SphereProjectorBundle(n, ring, g, alpha)
    # Construction-time invariants; a failure means an arithmetic bug.
    if not g.is_idempotent():
        raise DomainError("sphere projector failed idempotence")
    if g.apply(alpha) != alpha:
        raise DomainError("sphere projector does not fix alpha")
    for i in range(n + 1):
        if g.apply(ModElement.basis(ring, ftype, i)) != alpha.right_mul(xs[i]):
            raise DomainError("sphere projector columns are not multiples of alpha")
    return bundle


def stably_free_certificate(bundle: SphereProjectorBundle) -> SuiteReport:
    """Certify that ``Ker g`` is stably free: ``Ker g + (rank-1 free) = rank-(n+1) free``."""
    ring, g, alpha, n = bundle.ring, bundle.g, bundle.alpha, bundle.n
    report = SuiteReport(
        "sphere-projector",
        params={"n": n, "basis_parities": "all even (type (n+1,0))"},
    )
    report.add("idempotent", g.is_idempotent(), "g*g = g")

    xs = alpha.coeffs
    report.trials("image-generated-by-alpha", "multipliers: " + ", ".join(x.to_text() for x in xs), (
        (g.apply(ModElement.basis(ring, g.source, i)) == alpha.right_mul(x), {"i": i})
        for i, x in enumerate(xs)
    ))
    report.add("fixes-alpha", g.apply(alpha) == alpha, "g(alpha) = alpha")

    split = split_idempotent(g)
    report.add("splitting-round-trip", split.round_trip_holds(), "iso_inv after iso = id")

    trace = ring.sum(g.matrix[i][i] for i in range(n + 1))
    report.add("trace-is-one", trace == ring.one(), f"sum of xi^2 = {trace.to_text()}")

    if n == 1:
        kernel_gen = ModElement(ring, g.source, [xs[1], -xs[0]])
        report.add("kernel-generator-n1", g.apply(kernel_gen).is_zero(), "g(x1*s0 - x0*s1) = 0")
    report.add(
        "stably-free",
        report.passed,
        "Ker g + free(1) = free(%d); non-freeness for general n: cited, not machine-checked" % (n + 1),
    )
    return report


def z6_ring() -> SuperRing:
    """``Z6[xi1, xi2]`` with two odd generators, one object per process."""
    return interned((z6_ring,), lambda: SuperRing(canonical(IntegerModRing(6)), ("xi1", "xi2")))


def _all_z6_elements(ring: SuperRing):
    masks = [0b00, 0b01, 0b10, 0b11]
    for values in itertools.product(range(6), repeat=4):
        yield ring.element({m: v for m, v in zip(masks, values)})


def z6_example() -> SuiteReport:
    """Exhaustive check of the multiplication-by-3 idempotent on Z6[xi1, xi2]."""
    ring = z6_ring()
    report = SuiteReport("z6", params={"ring": "Z6[xi1,xi2]"})
    three = ring.from_fraction(3)
    four = ring.one() - three  # 1 - 3 = 4 mod 6

    report.add("idempotent", (three * three) == three, "3*3 = 3 in Z6")
    report.add("orthogonal", (three * four).is_zero(), "3*(1-3) = 0 in Z6")

    image_e, image_c = set(), set()
    decomposition_ok = True
    for count, x in enumerate(_all_z6_elements(ring), 1):
        ex = three * x
        cx = four * x
        image_e.add(ex)
        image_c.add(cx)
        if ex + cx != x:
            decomposition_ok = False
    report.add("element-count", count == 1296, f"enumerated {count} ring elements")
    report.add("image-cardinality", len(image_e) == 16, f"|Im e| = {len(image_e)}")
    report.add("complement-cardinality", len(image_c) == 81, f"|Im (1-e)| = {len(image_c)}")
    overlap = image_e & image_c
    report.add(
        "trivial-intersection",
        overlap == {ring.zero()},
        f"|Im e & Im(1-e)| = {len(overlap)}",
    )
    report.add("decomposition", decomposition_ok, "x = e(x) + (1-e)(x) for all 1296 elements")
    return report
