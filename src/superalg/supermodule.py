"""Finite free supermodules, graded morphisms, and idempotent splitting.

Conventions: modules are right modules; a morphism is a matrix with
columns-are-images, so ``phi(b_j) = sum_i b_i M[i][j]`` and
``phi(sum_j b_j c_j) = sum_i b_i (sum_j M[i][j] c_j)``.  A free type (p, q)
lists its p even basis vectors first, then its q odd ones.  A vector ``x``
of ``F`` is the one-column matrix of the morphism ``R -> F``, ``1 -> x``
(:class:`ModElement`), so ``phi.apply(x)`` is ``phi.compose(x)`` and the
sums, graded parts and tensor products of vectors are those of morphisms.
Every sign of moving a coefficient past a graded factor is :func:`_koszul`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import DomainError, ParityError, RingMismatchError, ShapeError
from .scalars import json_count, json_mapping
from .superring import SuperElement, SuperRing


def _koszul(c: SuperElement, k: int) -> SuperElement:
    """``c`` moved past a factor of parity ``k``: each part of ``c`` gains ``(-1)**(|c|k)``."""
    if not k % 2:
        return c
    return SuperElement(c.ring, {b: c.ring.coeff.neg(v) if b.bit_count() & 1 else v for b, v in c.terms.items()})


@dataclass(frozen=True)
class FreeType:
    """Rank signature of a free supermodule: p even and q odd basis vectors."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ShapeError("ranks must be nonnegative")

    @property
    def size(self) -> int:
        return self.p + self.q

    @property
    def parities(self) -> tuple:
        return (0,) * self.p + (1,) * self.q

    def direct_sum(self, other: "FreeType") -> "FreeType":
        return FreeType(self.p + other.p, self.q + other.q)

    def tensor(self, other: "FreeType") -> "FreeType":
        return FreeType(self.p * other.p + self.q * other.q, self.p * other.q + self.q * other.p)

    def to_json(self):
        return {"p": self.p, "q": self.q}

    @classmethod
    def from_json(cls, data):
        data = json_mapping(data, "a free type")
        return cls(json_count(data.get("p"), "rank 'p'"), json_count(data.get("q"), "rank 'q'"))


_UNIT = FreeType(1, 0)  # the ring itself, the source of a vector


class SuperMorphism:
    """A right-linear map between free supermodules, stored as a matrix."""

    __slots__ = ("ring", "source", "target", "matrix", "_residual")

    def __init__(self, ring: SuperRing, source: FreeType, target: FreeType, matrix):
        matrix = tuple(tuple(row) for row in matrix)
        if len(matrix) != target.size or any(len(row) != source.size for row in matrix):
            raise ShapeError(
                f"matrix must be {target.size}x{source.size}, got "
                f"{len(matrix)}x{len(matrix[0]) if matrix else 0}"
            )
        self.ring = ring
        self.source = source
        self.target = target
        self.matrix = matrix
        self._residual = None

    def _like(self, source: FreeType, target: FreeType, matrix) -> "SuperMorphism":
        """A morphism of ``self``'s class, so that results built from vectors stay vectors."""
        out = object.__new__(type(self))
        SuperMorphism.__init__(out, self.ring, source, target, matrix)
        return out

    @classmethod
    def identity(cls, ring: SuperRing, ftype: FreeType):
        return SuperMorphism.scalar(ring, ftype, ring.one())

    @classmethod
    def zero(cls, ring: SuperRing, source: FreeType, target: FreeType):
        return cls(ring, source, target, [[ring.zero()] * source.size for _ in range(target.size)])

    @classmethod
    def scalar(cls, ring: SuperRing, ftype: FreeType, a: SuperElement):
        n = ftype.size
        return SuperMorphism(
            ring, ftype, ftype,
            [[a if i == j else ring.zero() for j in range(n)] for i in range(n)],
        )

    def apply(self, x: ModElement) -> ModElement:
        """``self(x)``: a vector is the morphism ``1 -> x``, so this is ``self`` after ``x``."""
        return self.compose(x)

    def compose(self, other: "SuperMorphism") -> "SuperMorphism":
        """``self`` after ``other``, of ``other``'s class."""
        if other.target != self.source:
            raise ShapeError("composition shape mismatch")
        if other.ring != self.ring:
            raise RingMismatchError("morphisms over different rings")
        columns = [[row[k] for row in other.matrix] for k in range(other.source.size)]
        # One pass per result row; a pass per matrix would hold every term product of the result at once.
        rows = [self.ring.sums_of_products([zip(row, column) for column in columns]) for row in self.matrix]
        return other._like(other.source, self.target, rows)

    def __add__(self, other):
        return self._entrywise(operator.add, other)

    def __sub__(self, other):
        return self._entrywise(operator.sub, other)

    def _entrywise(self, op, other):
        """The morphism of entries ``op(a, b)``, ``a`` from ``self`` and ``b`` from ``other``."""
        if (self.source, self.target) != (other.source, other.target):
            raise ShapeError("morphism addition shape mismatch")
        return self._like(
            self.source, self.target,
            [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.matrix, other.matrix)],
        )

    def __neg__(self):
        return self._like(self.source, self.target, [[-a for a in row] for row in self.matrix])

    def __eq__(self, other):
        return (
            isinstance(other, SuperMorphism)
            and self.ring == other.ring
            and (self.source, self.target) == (other.source, other.target)
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source, self.target))

    def homogeneous_part(self, degree: int):
        """Entry ``[i][j]`` keeps its component of parity ``degree + |b_i| + |b_j|``."""
        src = self.source.parities
        tgt = self.target.parities
        rows = [
            [entry.homogeneous_part((degree + tgt[i] + src[j]) % 2) for j, entry in enumerate(row)]
            for i, row in enumerate(self.matrix)
        ]
        return self._like(self.source, self.target, rows)

    def is_zero(self) -> bool:
        return all(entry.is_zero() for row in self.matrix for entry in row)

    def degree(self):
        """The one parity of ``|term| + |b_i| + |b_j|`` over the terms of entries ``[i][j]``: 0 if none, None if two."""
        src, tgt = self.source.parities, self.target.parities
        rows = enumerate(self.matrix)
        found = {(b.bit_count() + tgt[i] + src[j]) & 1 for i, row in rows for j, e in enumerate(row) for b in e.terms}
        return found.pop() if len(found) == 1 else (None if found else 0)

    def grade_split(self):
        """The even and the odd part."""
        return self.homogeneous_part(0), self.homogeneous_part(1)

    def is_idempotent(self) -> bool:
        return not self.idempotence_residual()

    def idempotence_residual(self) -> list:
        """The nonzero entries ``(i, j, entry)`` of ``self∘self - self``.

        A morphism never changes, so this is computed once per morphism, on the
        first call; each call returns a new list.
        """
        if self._residual is None:
            if self.source != self.target:
                raise ShapeError("idempotence requires a square matrix")
            rows = (self.compose(self) - self).matrix
            self._residual = tuple(
                (i, j, e) for i, row in enumerate(rows) for j, e in enumerate(row) if not e.is_zero()
            )
        return list(self._residual)

    def super_adjoint(self) -> "SuperMorphism":
        """Involuted super transpose.

        ``(M+)[i][j] = (-1)**(|j|(|i|+1)) * M[j][i]**diamond``; under the
        package's involution convention this is the adjoint for which the
        rank-one projectors of the supersphere construction are self-adjoint.
        """
        if self.source != self.target:
            raise ShapeError("adjoint requires a square matrix")
        par = self.source.parities
        n = self.source.size
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                entry = self.matrix[j][i].involute()
                if (par[j] * (par[i] + 1)) % 2:
                    entry = -entry
                row.append(entry)
            rows.append(row)
        return SuperMorphism(self.ring, self.source, self.target, rows)

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "matrix": [[entry.terms_to_json() for entry in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, data):
        data = json_mapping(data, "a morphism", "ring", "source", "target", "matrix")
        ring = SuperRing.from_json(data["ring"])
        source = FreeType.from_json(data["source"])
        target = FreeType.from_json(data["target"])
        rows = data["matrix"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise DomainError("'matrix' must be a list of rows")
        matrix = [[SuperElement.terms_from_json(ring, entry) for entry in row] for row in rows]
        return SuperMorphism(ring, source, target, matrix)

    def __repr__(self):
        return f"<SuperMorphism {self.target.size}x{self.source.size}>"


class ModElement(SuperMorphism):
    """A vector ``x`` of a free supermodule ``F``: the one-column morphism ``R -> F``, ``1 -> x``."""

    __slots__ = ()

    def __init__(self, ring: SuperRing, ftype: FreeType, coeffs):
        super().__init__(ring, _UNIT, ftype, [(c,) for c in coeffs])

    @classmethod
    def zero(cls, ring: SuperRing, ftype: FreeType):
        return cls(ring, ftype, [ring.zero()] * ftype.size)

    @classmethod
    def basis(cls, ring: SuperRing, ftype: FreeType, index: int):
        coeffs = [ring.zero()] * ftype.size
        coeffs[index] = ring.one()
        return cls(ring, ftype, coeffs)

    @property
    def ftype(self) -> FreeType:
        return self.target

    @property
    def coeffs(self) -> tuple:
        return tuple(row[0] for row in self.matrix)

    def right_mul(self, a: SuperElement):
        """The right action ``x * a``."""
        return ModElement(self.ring, self.ftype, [c * a for c in self.coeffs])

    def left_mul(self, a: SuperElement):
        """The left action ``a * x`` via ``a x = (-1)**(|x||a|) x a``."""
        a_parity = a.parity()
        if a_parity is None:
            raise ParityError("left action requires a homogeneous scalar")
        out = []
        for basis_parity, c in zip(self.ftype.parities, self.coeffs):
            term = _koszul(c, a_parity) * a
            out.append(-term if a_parity * basis_parity else term)
        return ModElement(self.ring, self.ftype, out)

    def parity(self):
        """0/1 for homogeneous elements (Notation-style (x, y) form), else None."""
        return self.degree()

    def __repr__(self):
        return "<ModElement [" + ", ".join(c.to_text() for c in self.coeffs) + "]>"


def extend_basis_map(ring: SuperRing, source: FreeType, images) -> SuperMorphism:
    """The unique right-linear morphism sending basis vector k to ``images[k]``: the images side by side."""
    images = list(images)
    if len(images) != source.size:
        raise ShapeError(f"expected {source.size} images, got {len(images)}")
    if not images:
        raise ShapeError("a map with no images has no target type")
    target = images[0].ftype
    if any(img.ftype != target for img in images):
        raise ShapeError("images must share a target type")
    return SuperMorphism(ring, source, target, zip(*(img.coeffs for img in images)))


def left_evaluate(phi: SuperMorphism, a: SuperElement, x: ModElement) -> ModElement:
    """``phi(a * x)`` computed through the right-module core.

    Requires ``phi`` and ``a`` homogeneous so the left-module contract
    ``phi(a x) = (-1)**(|phi||a|) a phi(x)`` is meaningful.
    """
    if phi.degree() is None:
        raise ParityError("morphism must be homogeneous")
    if a.parity() is None:
        raise ParityError("scalar must be homogeneous")
    return phi.apply(x.left_mul(a))


# -- idempotent splitting -----------------------------------------------------


@dataclass(frozen=True)
class SplitData:
    """Decomposition data for an idempotent ``g``: ``F = Im g + Ker g``."""

    image_projector: SuperMorphism  # g
    kernel_projector: SuperMorphism  # 1 - g
    iso: SuperMorphism  # F -> F + F, x -> (g(x), x - g(x))
    iso_inv: SuperMorphism  # F + F -> F, (p, h) -> p + h

    def round_trip_holds(self) -> bool:
        """``iso_inv after iso`` is the identity on ``F``."""
        g = self.image_projector
        return self.iso_inv.compose(self.iso) == SuperMorphism.identity(g.ring, g.source)


def _stack_vertical(top: SuperMorphism, bottom: SuperMorphism) -> SuperMorphism:
    if top.source != bottom.source:
        raise ShapeError("stacked morphisms must share a source")
    return SuperMorphism(
        top.ring, top.source, top.target.direct_sum(bottom.target),
        list(top.matrix) + list(bottom.matrix),
    )


def _stack_horizontal(left: SuperMorphism, right: SuperMorphism) -> SuperMorphism:
    if left.target != right.target:
        raise ShapeError("stacked morphisms must share a target")
    return SuperMorphism(
        left.ring, left.source.direct_sum(right.source), left.target,
        [list(r1) + list(r2) for r1, r2 in zip(left.matrix, right.matrix)],
    )


def split_idempotent(g: SuperMorphism) -> SplitData:
    """Prop-4.6 style splitting off an idempotent."""
    if not g.is_idempotent():
        raise DomainError("morphism is not idempotent")
    ident = SuperMorphism.identity(g.ring, g.source)
    complement = ident - g
    iso = _stack_vertical(g, complement)
    iso_inv = _stack_horizontal(ident, ident)
    return SplitData(g, complement, iso, iso_inv)


def _require_section(g: SuperMorphism, s: SuperMorphism):
    if g.compose(s) != SuperMorphism.identity(g.ring, g.target):
        raise DomainError("section contract violated: g after s is not the identity")


def section_splitting(g: SuperMorphism, s: SuperMorphism):
    """Splitting of a surjection ``g: F -> P`` along a section ``s``.

    Returns ``(phi, phi_inv)`` with ``phi(x) = (g(x), x - s(g(x)))`` and
    ``phi_inv(p, h) = s(p) + h``; ``phi_inv  after  phi`` is verified to be the
    identity on ``F``.
    """
    if g.source != s.target or g.target != s.source:
        raise ShapeError("section shape mismatch")
    _require_section(g, s)
    ident_f = SuperMorphism.identity(g.ring, g.source)
    phi = _stack_vertical(g, ident_f - s.compose(g))
    phi_inv = _stack_horizontal(s, ident_f)
    if phi_inv.compose(phi) != ident_f:
        raise DomainError("splitting round-trip failed")  # arithmetic bug, not user error
    return phi, phi_inv


def lift_through_split_surjection(h: SuperMorphism, g: SuperMorphism, s: SuperMorphism) -> SuperMorphism:
    """A lift ``h~ = s after h`` through the split surjection ``g``; ``g after h~ = h``."""
    _require_section(g, s)
    lifted = s.compose(h)
    if g.compose(lifted) != h:
        raise DomainError("lift verification failed")
    return lifted


# -- tensor products -------------------------------------------------------------


def tensor_basis(t1: FreeType, t2: FreeType):
    """Ordered basis of the tensor product: even index pairs first, then odd."""
    p1, p2 = t1.parities, t2.parities
    pairs = [(i, j) for i in range(t1.size) for j in range(t2.size)]
    even = [ij for ij in pairs if (p1[ij[0]] + p2[ij[1]]) % 2 == 0]
    odd = [ij for ij in pairs if (p1[ij[0]] + p2[ij[1]]) % 2 == 1]
    return even + odd


def tensor_elements(x: ModElement, y: ModElement) -> ModElement:
    """``x (x) y``: the one column of ``x (x) y`` taken as morphisms ``R -> F``."""
    column = tensor_morphisms(x, y)
    return ModElement(column.ring, column.target, [row[0] for row in column.matrix])


def tensor_morphisms(phi: SuperMorphism, psi: SuperMorphism) -> SuperMorphism:
    """``phi (x) psi`` acting by ``(phi(x)psi)(x(x)y) = (-1)**(|psi||x|) phi(x)(x)psi(y)``."""
    if phi.ring != psi.ring:
        raise RingMismatchError("morphisms over different rings")
    src1, src2 = phi.source.parities, psi.source.parities
    tgt2 = psi.target.parities

    def entry(i, j, k, l):
        term = _koszul(phi.matrix[k][i], tgt2[l]) * _koszul(psi.matrix[l][j], src1[i])
        return -term if src1[i] * (tgt2[l] + src2[j]) % 2 else term

    src_pairs = tensor_basis(phi.source, psi.source)
    rows = [[entry(i, j, k, l) for i, j in src_pairs] for k, l in tensor_basis(phi.target, psi.target)]
    return SuperMorphism(phi.ring, phi.source.tensor(psi.source), phi.target.tensor(psi.target), rows)


# -- endomorphism modules ----------------------------------------------------------


def end_projector(e: SuperMorphism):
    """The conjugation map ``phi -> e after phi after e`` on Hom(F, F).

    Returns ``(E, units)``: ``E`` is a morphism on the free supermodule whose
    basis is the list ``units`` of matrix-unit positions; parity of unit
    ``(i, j)`` is ``|b_i| + |b_j|``, so ``units`` is ``tensor_basis(F, F)``,
    even-parity units first.
    """
    if not e.is_idempotent():
        raise DomainError("morphism is not idempotent")
    units = tensor_basis(e.source, e.source)
    hom_type = e.source.tensor(e.source)
    # e after unit(k, l) after e has matrix entries M[i][k] * M[l][j].
    rows = [[e.matrix[i][k] * e.matrix[l][j] for k, l in units] for i, j in units]
    return SuperMorphism(e.ring, hom_type, hom_type, rows), units
