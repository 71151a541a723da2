"""Rank-one projectors over the supersphere coordinate ring.

The coordinate ring has even generators ``a, ad, b, bd`` subject to
``a*ad = 1 - b*bd``, odd generators ``eta, etad``, square-root symbols for
binomial coefficients, and the graded involution swapping each generator
with its partner.  For every n the bra vector ``psi_n`` (n+1 even entries
and n odd entries) satisfies ``<psi|psi> = sum_i psi_i * psi_i** = 1``
exactly, so ``p[i][j] = psi_i** * psi_j`` is a self-adjoint idempotent and
``v -> |psi> <psi|v>`` is the corresponding rank-one projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import DomainError
from .scalars import PolyQuotientRing, RadicalGaussianRing, Relation
from .supermodule import FreeType, ModElement, SuperMorphism
from .superring import Involution, SuperElement, SuperRing


def make_uosp_ring() -> SuperRing:
    """The supersphere coordinate ring with its graded involution."""
    base = RadicalGaussianRing()
    variables = ("a", "ad", "b", "bd")
    plain = PolyQuotientRing(base, variables)
    rhs = plain.sub(plain.one(), plain.mul(plain.var("b"), plain.var("bd")))
    coeff = PolyQuotientRing(base, variables, Relation(("a", "ad"), rhs))
    involution = Involution(
        even_pairs=[("a", "ad"), ("b", "bd")],
        odd_pairs=[("eta", "etad")],
    )
    return SuperRing(coeff, ("eta", "etad"), involution)


def sqrt_binomial(ring: SuperRing, n: int, k: int) -> SuperElement:
    """The radical ``sqrt(binom(n, k))`` as an even ring element."""
    coeff = ring.coeff
    return ring.from_coeff(coeff.from_scalar(coeff.base.sqrt_int(math.comb(n, k))))


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
        """The morphism with ``p[i][j] = psi_i** * psi_j`` on the free type (n+1 | n), from :attr:`ket`."""
        matrix = [[ki * psij for psij in self.entries] for ki in self.ket]
        return SuperMorphism(self.ring, self.ftype, self.ftype, matrix)


def make_bra(n: int, ring: SuperRing = None) -> BraVector:
    if n < 1:
        raise DomainError("the projector level must be at least 1")
    ring = ring or make_uosp_ring()
    ad = ring.even_gen("ad")
    bd = ring.even_gen("bd")
    eta, etad = ring.odd_gen("eta"), ring.odd_gen("etad")
    correction = ring.one() - (eta * etad).scale(Fraction(1, 8))
    entries = []
    for k in range(n + 1):
        entries.append(correction * sqrt_binomial(ring, n, k) * ad ** (n - k) * bd ** k)
    for j in range(n):
        entries.append(
            etad.scale(Fraction(1, 2)) * sqrt_binomial(ring, n - 1, j) * ad ** (n - 1 - j) * bd ** j
        )
    return BraVector(n, ring, tuple(entries))


def inner(bra: BraVector) -> SuperElement:
    """``<psi|psi> = sum_i psi_i * psi_i**``; equals 1 for every bra level."""
    return bra.ring.sum_of_products((psi, psi.involute()) for psi in bra.entries)


def ket_entries(bra: BraVector) -> tuple:
    """The column ``|psi>`` with entries ``psi_i**``."""
    return tuple(psi.involute() for psi in bra.entries)


def projector_p(n: int, ring: SuperRing = None) -> SuperMorphism:
    """The morphism with ``p[i][j] = psi_i** * psi_j`` on the free type (n+1 | n): ``make_bra(n, ring).projector()``."""
    return make_bra(n, ring).projector()


def pi_apply(bra: BraVector, v: ModElement) -> ModElement:
    """The rank-one projection ``v -> |psi> * <psi|v>``."""
    if v.ftype != bra.ftype:
        raise DomainError("element type does not match the bra")
    pairing = bra.ring.sum_of_products(zip(bra.entries, v.coeffs))
    return ModElement(bra.ring, bra.ftype, [ki * pairing for ki in bra.ket])
