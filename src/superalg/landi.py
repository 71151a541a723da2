"""Rank-one projectors over the supersphere coordinate ring.

The coordinate ring has even generators ``a, ad, b, bd`` subject to
``a*ad = 1 - b*bd``, odd generators ``eta, etad``, square-root symbols for
binomial coefficients, and the graded involution swapping each generator
with its partner.  For every n the bra vector ``psi_n`` (n+1 even entries
and n odd entries) satisfies ``<psi|psi> = sum_i psi_i * psi_i** = 1``
exactly, so ``p[i][j] = psi_i** * psi_j`` is a self-adjoint idempotent and
``v -> |psi> <psi|v>`` is the corresponding rank-one projection.

Each bra entry is built from one coefficient monomial (:func:`make_bra`),
and its ket ``|psi>`` is involuted once per bra (:attr:`BraVector.ket`).
:func:`make_bra` keeps one bra per ``(n, ring)`` on the ring object and shares
it, with its ket and its projector, each built once: do not mutate them.
The projector forms each row of ``p`` in one sum-of-products pass, and
``inner`` and ``pi_apply`` form ``<psi|psi>``, ``<psi|v>`` and the column
``|psi> <psi|v>`` in one pass each (:meth:`SuperRing.sums_of_products`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import DomainError
from .scalars import PolyQuotientRing, RadicalGaussianRing, Relation, canonical, factory_key, interned, shared
from .supermodule import FreeType, ModElement, SuperMorphism
from .superring import Involution, SuperElement, SuperRing


def make_uosp_ring() -> SuperRing:
    """The supersphere coordinate ring with its graded involution, one object per process."""
    return interned((make_uosp_ring,), _uosp_ring)


def _uosp_ring() -> SuperRing:
    relation = Relation(("a", "ad"), "1 - b*bd")
    coeff = canonical(PolyQuotientRing(canonical(RadicalGaussianRing()), ("a", "ad", "b", "bd"), relation))
    involution = Involution(
        even_pairs=[("a", "ad"), ("b", "bd")],
        odd_pairs=[("eta", "etad")],
    )
    return SuperRing(coeff, ("eta", "etad"), involution)


@dataclass(frozen=True)
class BraVector:
    """The bra of the rank-one supersphere projector at level n.

    Entries follow the free type (n+1 | n): even block indexed by k = 0..n,
    then odd block indexed by j = 0..n-1.
    """

    n: int
    ring: SuperRing
    entries: tuple

    @property
    def ftype(self) -> FreeType:
        return FreeType(self.n + 1, self.n)

    @cached_property
    def ket(self) -> tuple:
        """``ket_entries(self)``, involuted once per bra."""
        return ket_entries(self)

    def projector(self) -> SuperMorphism:
        """The morphism with ``p[i][j] = psi_i** * psi_j`` on the free type (n+1 | n), from :attr:`ket`.

        Built on the first call, one object per bra: do not mutate it.  Each
        row is one sum-of-products pass (:meth:`SuperRing.sums_of_products`).
        """
        return self._projector

    @cached_property
    def _projector(self) -> SuperMorphism:
        sums = self.ring.sums_of_products
        matrix = [sums([((ki, psij),) for psij in self.entries]) for ki in self.ket]
        return SuperMorphism(self.ring, self.ftype, self.ftype, matrix)


def make_bra(n: int, ring: SuperRing = None) -> BraVector:
    """The bra ``psi_n``, each entry built from one coefficient monomial, one object per ``(n, ring)``.

    Even entry k is ``(1 - eta*etad/8) * sqrt(binom(n, k)) * ad**(n-k) * bd**k``,
    one element product each; odd entry j is ``etad`` times the monomial
    ``sqrt(binom(n-1, j))/2 * ad**(n-1-j) * bd**j``, built with no product.
    With the correction's ``eta*etad`` that is n+2 element products in all,
    made on the first call per ``(n, ring)`` in a process; a call that raises
    stores nothing.  The bra is shared: do not mutate it.
    ``DomainError`` if the ring lacks ``ad``, ``bd``, ``eta`` or ``etad``.
    """
    if n < 1:
        raise DomainError("the projector level must be at least 1")
    ring = ring or make_uosp_ring()
    return shared(ring, factory_key(_make_bra, n), lambda: _make_bra(n, ring))


def _make_bra(n: int, ring: SuperRing) -> BraVector:
    coeff = ring.coeff
    base, names = coeff.base, coeff.variables
    for name in ("ad", "bd"):
        if name not in names:
            raise DomainError(f"{name!r} is not an even generator of the ring")
    ad, bd = names.index("ad"), names.index("bd")
    eta, etad = ring.odd_gen("eta"), ring.odd_gen("etad")
    correction = ring.one() - (eta * etad).scale(Fraction(1, 8))
    (etad_bit,) = etad.terms
    half = base.from_fraction(Fraction(1, 2))

    def monomial(m, k, c):
        """The coefficient ``c * ad**(m-k) * bd**k``."""
        exps = [0] * len(names)
        exps[ad], exps[bd] = m - k, k
        return coeff.monomial(exps, c)

    entries = [
        correction * SuperElement(ring, {0: monomial(n, k, base.sqrt_int(math.comb(n, k)))})
        for k in range(n + 1)
    ]
    halves = (base.mul(half, base.sqrt_int(math.comb(n - 1, j))) for j in range(n))
    entries += [SuperElement(ring, {etad_bit: monomial(n - 1, j, c)}) for j, c in enumerate(halves)]
    return BraVector(n, ring, tuple(entries))


def inner(bra: BraVector) -> SuperElement:
    """``<psi|psi> = sum_i psi_i * psi_i**``, from :attr:`BraVector.ket`; equals 1 for every bra level."""
    return bra.ring.sum_of_products(zip(bra.entries, bra.ket))


def ket_entries(bra: BraVector) -> tuple:
    """The column ``|psi>`` with entries ``psi_i**``."""
    return tuple(psi.involute() for psi in bra.entries)


def projector_p(n: int, ring: SuperRing = None) -> SuperMorphism:
    """The morphism with ``p[i][j] = psi_i** * psi_j`` on the free type (n+1 | n): ``make_bra(n, ring).projector()``.

    One object per ``(n, ring)`` per process, shared: do not mutate it.
    """
    return make_bra(n, ring).projector()


def pi_apply(bra: BraVector, v: ModElement) -> ModElement:
    """The rank-one projection ``v -> |psi> * <psi|v>``: one pass for the pairing, one for the ket column."""
    if v.ftype != bra.ftype:
        raise DomainError("element type does not match the bra")
    ring = bra.ring
    pairing = ring.sum_of_products(zip(bra.entries, v.coeffs))
    return ModElement(ring, bra.ftype, ring.sums_of_products([((ki, pairing),) for ki in bra.ket]))
