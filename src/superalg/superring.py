"""Super commutative ring values.

A :class:`SuperRing` pairs a commutative coefficient ring (see
:mod:`superalg.scalars`) with a list of anticommuting odd generators and an
optional graded involution.  Its elements are finite sums of
``coefficient * odd-monomial`` terms in normal form, stored as a map from
odd-generator bitmasks to coefficient values.

Even polynomial generators (when the coefficient ring is a quotient ring)
always have grade 0; the parity of a term is the parity of its odd monomial.

Each element-layer rule is written once, as one pass over the terms.
:func:`~superalg.scalars.collect` runs only where two terms can meet:
:meth:`SuperRing.sum` for any number of elements, ``+`` as its two-element
case, and JSON input.  A map that merges no two terms writes each image into
its result: :meth:`SuperRing.element` and :meth:`SuperElement.scale` drop
zeros (Z/n has zero divisors), and :meth:`SuperElement.involute` maps odd
monomials one-to-one by a coefficient automorphism, so it drops none.  The
sign of a product of odd monomials is the parity mask of
:func:`~superalg.multiindex.sign_mask`, one mask per left term; the
involution takes its signs from :func:`~superalg.multiindex.merge_bits`.

Sums of products, :meth:`SuperRing.sums_of_products`, are how ``*``,
morphism composition and the supersphere pairings multiply over a quotient
coefficient ring: the term products of every pair of every group are added,
keyed by (group and odd bitmask, coefficient term), into one dict as they
are formed, rewritten by the ring's relation once for the whole pass, the
rewrites added into the terms that needed none
(:meth:`~superalg.scalars.PolyQuotientRing.sum_of_products`), and split
back by group and bitmask.  A group is the tag's bits above the odd
generators, so one int holds both.  :meth:`SuperRing.sum_of_products` is
the one-group case and ``x * y`` the one-pair case; a morphism composes one
pass per row of its result.  Over a scalar coefficient
ring ``*`` adds each term product into its output as it is formed, and a
sum of products sums the products.  Either way zero sums are dropped once,
at the end; :func:`~superalg.scalars.collect` sums only values that already
exist.

Over a scalar ring ``*`` visits only term pairs that can be nonzero.  For a
left term ``b1`` the right terms it meets are disjoint from ``b1``: they are
either scanned, or, when ``b1`` leaves few bits free, found by looking up the
submasks of the free bits (``sub = (sub - 1) & free`` down to 0).  A lookup
costs about three steps of a scan, so the submasks are walked when there are
fewer than a third as many of them as right terms.  A square ``x * x`` forms
each unordered pair of terms once and doubles it, and skips a pair of two odd
monomials, whose two orders cancel; both rest on the coefficients commuting,
which every :class:`~superalg.scalars.CoeffRing` here does.  The pair of the
body with itself is added once.  A square of fewer than 16 terms is formed
like any product, where sorting its terms would cost more than it saves.  On
a dense even element at L=10 a square makes half the coefficient products of
the general product.

A product over the rationals is fraction-free once its operands have
``RationalRing.CLEAR_MIN_PAIRS`` pairs: ``*`` asks the coefficient ring to
clear each operand's denominators once (``CoeffRing.cleared``: an operand's
values become ints, times the lcm of its denominators), multiplies and sums
the term products as ints, and divides each output term once by the product
of the two lcms (``CoeffRing.divided``), back to the stored form.  A smaller
product, and a product over any other scalar ring, is computed in the
coefficient ring itself, through the same loop.

:meth:`SuperRing.from_json` and :func:`grassmann_ring` return the one ring
of their descriptor (:func:`~superalg.scalars.interned`), which every caller
shares, so a ring must not be mutated after construction; its coefficient
ring fills only pure caches.  ``SuperRing(...)`` builds a new, unshared ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import multiindex as mi
from .errors import CapacityError, DomainError, RingMismatchError
from .scalars import (
    CoeffRing,
    PolyQuotientRing,
    RationalRing,
    canonical,
    coeff_ring_from_json,
    collect,
    factory_key,
    interned,
    json_count,
    json_key,
    json_mapping,
    json_names,
)


@dataclass(frozen=True)
class Involution:
    """Generator pairing for a graded involution: the pairs as given, each checked and stored as a tuple.

    Each of ``even_pairs`` swaps two even polynomial variables (a pair of one
    name fixes it); each of ``odd_pairs`` ``(u, v)`` sends ``u`` to ``v`` and
    ``v`` to ``-u``, which realizes the sign convention
    ``(x**diamond)**diamond == (-1)**|x| * x``.  The ring that uses the table
    checks it and expands both directions (:meth:`SuperRing._compile_involution`).
    """

    even_pairs: tuple = ()  # tuple of (name, name)
    odd_pairs: tuple = ()  # tuple of (name, partner)

    def __post_init__(self):
        for field in ("even_pairs", "odd_pairs"):
            pairs = getattr(self, field)
            if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):  # a string is not a pair
                raise DomainError(f"'{field}' must be a list of name pairs")
            object.__setattr__(self, field, tuple(map(tuple, pairs)))

    def to_json(self):
        return {"even_pairs": [list(p) for p in self.even_pairs], "odd_pairs": [list(p) for p in self.odd_pairs]}

    @classmethod
    def from_json(cls, data):
        def pairs(key):
            found = data.get(key, [])
            if not isinstance(found, list):
                raise DomainError(f"'{key}' must be a list of name pairs")
            return [json_names(p, key) for p in found]

        return cls(pairs("even_pairs"), pairs("odd_pairs"))


class SuperRing:
    """A super commutative ring: coefficient ring plus odd generators."""

    def __init__(self, coeff: CoeffRing, odd_names=(), involution: Involution = None):
        odd_names = tuple(odd_names)
        if len(odd_names) > mi.MAX_GENERATORS:
            raise CapacityError(f"at most {mi.MAX_GENERATORS} odd generators supported")
        if len(set(odd_names)) != len(odd_names):
            raise DomainError("odd generator names must be distinct")
        for name in odd_names:
            if name in coeff.variables:
                raise DomainError(f"generator {name!r} is both odd and even")
        if "i" in odd_names and coeff.imaginary_unit() is not None:
            raise DomainError("odd generator 'i' would read as the imaginary unit of the coefficient ring")
        self.coeff = coeff
        self._quotient = isinstance(coeff, PolyQuotientRing)
        # Only a ring that overrides ``cleared`` (the rationals) can move a product out of itself.
        self._clears = type(coeff).cleared is not CoeffRing.cleared
        self._full = (1 << len(odd_names)) - 1
        self.odd_names = odd_names
        self._odd_pos = {name: i for i, name in enumerate(odd_names)}
        self.involution = involution
        self._shared = {}  # the bras, sphere bundles and samplers built over this ring (scalars.shared)
        self._odd_images, self._even_images = None, {}
        if involution is not None:
            self._compile_involution(involution)

    def _compile_involution(self, involution: Involution):
        """Build ``_odd_images``, a ``(bit, sign)`` per odd generator, and ``_even_images``.

        ``DomainError`` if the table names a generator the ring lacks, pairs one
        twice (each name of a pair is the source of one direction, so a name in
        two pairs, or an odd pair of one name, is a source twice), leaves an odd
        generator unpaired (``(x**)** = -x`` needs a partner), or does not send
        the relation to itself.
        """
        odd_sources = [name for pair in involution.odd_pairs for name in pair]
        # An even pair of one name fixes that name: one direction, one source.
        even_sources = [name for pair in involution.even_pairs for name in dict.fromkeys(pair)]
        for kind, names, sources in (
            ("odd", self._odd_pos, odd_sources),
            ("even", self.coeff.variables, even_sources),
        ):
            for name in sources:
                if name not in names:
                    raise DomainError(f"involution pairs unknown {kind} generator {name!r}")
                if sources.count(name) > 1:
                    raise DomainError(f"involution table is not a bijection: {name!r} is paired twice")
        for name in self.odd_names:
            if name not in odd_sources:
                raise DomainError(f"involution table leaves odd generator {name!r} unpaired")
        images = [(1 << i, 1) for i in range(self.odd_count)]
        for u, v in involution.odd_pairs:
            images[self._odd_pos[u]] = (1 << self._odd_pos[v], 1)
            images[self._odd_pos[v]] = (1 << self._odd_pos[u], -1)
        self._odd_images = tuple(images)
        for u, v in involution.even_pairs:
            self._even_images[u], self._even_images[v] = v, u
        rel = self.coeff.relation
        if rel is not None:
            # The involution is well defined on the quotient when the image of
            # the lead monomial reduces to the image of the right-hand side.
            u, v = (self._even_images.get(h, h) for h in rel.heads)
            if self.coeff.mul(self.coeff.var(u), self.coeff.var(v)) != self.coeff_involute(rel.rhs):
                raise DomainError("the involution does not preserve the ring's relation")

    # -- construction ------------------------------------------------------

    def element(self, terms) -> "SuperElement":
        """The element of ``{bitmask: value}`` ``terms``, zero values dropped: the checked path (see SuperElement)."""
        return SuperElement(self, {b: c for b, c in terms.items() if c})

    def zero(self) -> "SuperElement":
        return SuperElement(self, {})

    def _own(self, x) -> "SuperElement":
        """``x`` if it is an element of this ring; ``TypeError`` or ``RingMismatchError`` otherwise."""
        if not isinstance(x, SuperElement):
            raise TypeError(f"cannot combine SuperElement with {type(x).__name__}")
        if x.ring is not self and x.ring != self:  # ``is`` first: ``!=`` is a Python call
            raise RingMismatchError("operands belong to different rings")
        return x

    def sum(self, elements) -> "SuperElement":
        """The sum of ``elements``, in one ``collect`` pass over all their terms.

        An empty input gives zero; an element of another ring raises
        ``RingMismatchError``, and anything else ``TypeError``.
        """
        terms = (self._own(x).terms.items() for x in elements)
        return SuperElement(self, collect(self.coeff, chain.from_iterable(terms)))

    def sum_of_products(self, pairs) -> "SuperElement":
        """The sum of ``x * y`` over the ``(x, y)`` pairs, the one-group case of :meth:`sums_of_products`."""
        return self.sums_of_products((pairs,))[0]

    def sums_of_products(self, groups) -> list:
        """``[self.sum_of_products(pairs) for pairs in groups]``, over a quotient ring in one pass.

        Over a quotient coefficient ring every term product of every pair of
        every group is added into one dict as it is formed, keyed by ``(group
        << odd_count) | odd bitmask`` and coefficient term, the whole dict is
        rewritten by the relation once
        (:meth:`PolyQuotientRing.sum_of_products`), and each tag is split back
        into its group and its bitmask.  Over a scalar ring the products are
        formed by ``*`` and summed, group by group.  ``groups`` may be any
        one-pass iterable of iterables of pairs.  An operand of another ring
        raises ``RingMismatchError``; one that is not an element, ``TypeError``.
        """
        own = self._own
        if not self._quotient:
            return [self.sum(own(x) * own(y) for x, y in pairs) for pairs in groups]
        shift, out = self.odd_count, []
        sums = self.coeff.sum_of_products(_tagged_products(own, groups, shift, out))
        if len(out) == 1:  # the tags of group 0 are its bitmasks
            return [SuperElement(self, sums)]
        full = self._full
        for tag, value in sums.items():
            out[tag >> shift][tag & full] = value
        return [SuperElement(self, terms) for terms in out]

    def one(self) -> "SuperElement":
        return self.from_fraction(1)

    def from_fraction(self, fr) -> "SuperElement":
        return self.element({0: self.coeff.from_fraction(fr)})

    def from_coeff(self, value) -> "SuperElement":
        return self.element({0: value})

    def odd_gen(self, name) -> "SuperElement":
        if name not in self._odd_pos:
            raise DomainError(f"unknown odd generator {name!r}")
        return self.element({1 << self._odd_pos[name]: self.coeff.one()})

    def odd_gen_at(self, index: int) -> "SuperElement":
        """Odd generator by 1-based position."""
        if not 1 <= index <= self.odd_count:
            raise DomainError(f"odd generator index {index} is outside 1..{self.odd_count}")
        return self.element({1 << (index - 1): self.coeff.one()})

    def even_gen(self, name) -> "SuperElement":
        return self.element({0: self.coeff.var(name)})

    def generator(self, name) -> "SuperElement":
        if name in self._odd_pos:
            return self.odd_gen(name)
        if name in self.coeff.variables:
            return self.even_gen(name)
        raise DomainError(f"unknown generator {name!r}")

    def generator_names(self):
        return self.coeff.variables + self.odd_names

    @property
    def odd_count(self):
        return len(self.odd_names)

    # -- involution plumbing -------------------------------------------------

    def coeff_involute(self, value):
        value = self.coeff.conj(value)
        if self._even_images:
            value = self.coeff.substitute_vars(value, self._even_images)
        return value

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "coeffs": self.coeff.to_json(),
            "odd_generators": list(self.odd_names),
            "involution": self.involution.to_json() if self.involution else None,
        }

    @classmethod
    def from_json(cls, data):
        """The ring of the descriptor ``data``, one object per descriptor (see :func:`~superalg.scalars.interned`)."""
        return interned(json_key(cls, data), lambda: cls._from_json(data))

    @classmethod
    def _from_json(cls, data):
        data = json_mapping(data, "a ring descriptor")
        coeff = coeff_ring_from_json(data.get("coeffs"))
        inv = data.get("involution")
        return cls(
            coeff,
            json_names(data.get("odd_generators", []), "'odd_generators'"),
            Involution.from_json(json_mapping(inv, "'involution'")) if inv else None,
        )

    def _identity(self):
        """The descriptor as a key: the coefficient ring's identity, the odd generators and the involution."""
        return self.coeff._identity(), self.odd_names, self.involution

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SuperRing)
            and self.coeff == other.coeff
            and self.odd_names == other.odd_names
            and self.involution == other.involution
        )

    def __hash__(self):
        return hash((self.coeff, self.odd_names))

    def __repr__(self):
        return f"SuperRing({self.coeff.to_json()}, odd={self.odd_names})"


# Steps of a scan that one looked-up submask costs: measured on products at
# L=10, walking the submasks of ``free`` and scanning ``n`` terms break even
# near n = 2.5 * 2**|free|.
_LOOKUP_COST = 3
# A square of fewer terms is formed as a product of two operands: splitting
# and sorting its terms costs more than the pairs it would save (measured on
# sparse squares at L=6 and dense ones at L=3..7).
_SQUARE_MIN_TERMS = 16


def _tagged_products(own, groups, shift, out):
    """``(tag, negate, c1, c2)`` for each term pair of each pair of ``groups``, for ``sum_of_products``.

    The tag is ``(group << shift) | b1 | b2``, and ``negate`` the sign rule of
    :meth:`SuperElement.__mul__`; each operand passes ``own`` and each group
    appends one ``{}`` to ``out``.  A module-level generator, not a closure:
    building the closure cost about 0.3 µs of a 5 µs product.
    """
    for pairs in groups:
        group = len(out) << shift
        out.append({})
        for x, y in pairs:
            right = own(y).terms.items()
            for b1, c1 in own(x).terms.items():
                mask = mi.sign_mask(b1)
                for b2, c2 in right:
                    if not b1 & b2:
                        yield group | b1 | b2, (mask & b2).bit_count() & 1, c1, c2


def _walk_grade(L, n):
    """The least grade of a left term whose free submasks are looked up among ``n`` right terms.

    A term of grade ``g`` leaves ``k = L - g`` of the ``L`` bits free, and
    its ``2**k`` submasks are walked when ``_LOOKUP_COST << k < n``.
    """
    return L + 1 - ((n - 1) // _LOOKUP_COST).bit_length() if n else L + 1


def _submask_terms(free, terms, lo):
    """The ``(b2, c2)`` of the dict ``terms`` with ``b2`` a submask of ``free`` and ``b2 >= lo``.

    The submasks are walked from ``free`` down, ``sub = (sub - 1) & free``,
    to ``lo`` or to 0 inclusive.
    """
    found, get = [], terms.get
    sub = free
    while sub >= lo:
        c2 = get(sub)
        if c2 is not None:
            found.append((sub, c2))
        if not sub:
            break
        sub = (sub - 1) & free
    return found


def grassmann_ring(L: int, coeff: CoeffRing = None) -> SuperRing:
    """The Grassmann algebra on ``L`` odd generators over ``coeff``, one object per ``(L, coeff)``."""
    return interned(
        factory_key(grassmann_ring, L, coeff),
        lambda: SuperRing(canonical(coeff or RationalRing()), tuple(f"b{i}" for i in range(1, L + 1))),
    )


class SuperElement:
    """A finite sum of ``coefficient * odd-monomial`` terms in normal form.

    ``SuperElement(ring, terms)`` stores ``terms`` as given, unchecked: a dict
    from odd bitmasks to nonzero values, or the element is neither zero nor
    equal to ``ring.zero()``.  :meth:`SuperRing.element` is the checked path.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: SuperRing, terms):
        self.ring = ring
        self.terms = terms

    # -- ring plumbing --------------------------------------------------------

    def __add__(self, other):
        self.ring._own(other)
        terms = chain(self.terms.items(), other.terms.items())
        return SuperElement(self.ring, collect(self.ring.coeff, terms))

    def __neg__(self):
        coeff = self.ring.coeff
        return SuperElement(self.ring, {b: coeff.neg(c) for b, c in self.terms.items()})

    def __sub__(self, other):
        self.ring._own(other)
        neg = self.ring.coeff.neg
        terms = chain(self.terms.items(), ((b, neg(c)) for b, c in other.terms.items()))
        return SuperElement(self.ring, collect(self.ring.coeff, terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.ring._quotient:
            return self.ring.sum_of_products(((self, other),))
        self.ring._own(other)
        if not self.terms or not other.terms:
            return SuperElement(self.ring, {})
        coeff, full = self.ring.coeff, self.ring._full
        L = full.bit_length()
        # Over a scalar ring each pair is multiplied inline.  Over Q a product
        # with enough pairs is summed in ints: denominators are cleared once
        # per operand and divided out once per output term.
        if self.ring._clears:
            ring, d, left, right = coeff.cleared(self.terms, other.terms)
        else:
            ring, d, left, right = coeff, 1, self.terms, other.terms
        mul, neg, add = ring.mul, ring.neg, ring.add
        if other is self and len(left) >= _SQUARE_MIN_TERMS:
            # A square forms each unordered pair {b1, b2} of terms once, doubled:
            # with commuting coefficients the pair gives c1*c2*(t1*t2 + t2*t1),
            # which is twice t1*t2 unless both monomials are odd, and then 0.
            # So, with c1 doubled, each odd b1 meets every even b2 and each even
            # b1 the even b2 > b1; (0, 0), the one pair of a term with itself,
            # enters once, undoubled.
            even = sorted((b, c) for b, c in left.items() if not b.bit_count() & 1)
            even_terms, n = dict(even), len(even)
            body = {0: left[0]} if 0 in left else {}
            odd = ((b1, add(c1, c1)) for b1, c1 in left.items() if b1.bit_count() & 1)
            even_steps = (
                ((b1, add(c1, c1)), (even[i + 1:], even_terms, b1 + 1, _walk_grade(L, n - i - 1)))
                for i, (b1, c1) in enumerate(even)
            )
            plan = chain(
                ((body.items(), (body.items(), body, 0, L + 1)), (odd, (even, even_terms, 0, _walk_grade(L, n)))),
                (((entry,), step) for entry, step in even_steps),
            )
        else:
            plan = ((left.items(), (right.items(), right, 0, _walk_grade(L, len(right)))),)
        # Each step of the plan is some left terms b1 and the right terms b2 >= lo
        # they meet: ``items``, or, for a b1 of at least ``grade`` bits, those of
        # the submasks of its free bits found in the dict ``terms``.  merge_bits
        # is inlined: one sign mask per left term, then one AND and one popcount
        # per pair.  Each term product is added into ``out`` as it is formed, and
        # zeros are dropped once, at the end.
        out = {}
        get = out.get
        for entries, (items, terms, lo, grade) in plan:
            for b1, c1 in entries:
                found = items
                if b1.bit_count() >= grade:
                    found = _submask_terms(full & ~b1, terms, lo)
                mask = mi.sign_mask(b1)
                for b2, c2 in found:
                    if b1 & b2:
                        continue
                    c = mul(c1, c2)
                    if (mask & b2).bit_count() & 1:
                        c = neg(c)
                    b = b1 | b2
                    acc = get(b)
                    out[b] = c if acc is None else add(acc, c)
        terms = {b: c for b, c in out.items() if c}
        return SuperElement(self.ring, terms if d == 1 else coeff.divided(terms, d))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, fr: Fraction):
        """``fr * self``: each coefficient times ``fr``; zero products are dropped."""
        coeff = self.ring.coeff
        c, mul = coeff.from_fraction(fr), coeff.mul
        return SuperElement(self.ring, {b: p for b, v in self.terms.items() if (p := mul(v, c))})

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not defined")
        if not n:
            return self.ring.one()
        result, base = None, self
        while True:
            if n & 1:  # the power of the lowest set bit starts the product; one is never a factor
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base  # squared only while higher bits remain

    def __eq__(self, other):
        return (
            isinstance(other, SuperElement)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms))  # equal elements share their odd monomials

    def is_zero(self):
        return not self.terms

    # -- grading ---------------------------------------------------------------

    def parity(self):
        """0 or 1 for homogeneous elements, ``None`` for mixed ones."""
        parities = {b.bit_count() & 1 for b in self.terms}
        if not parities:
            return 0
        if len(parities) == 1:
            return parities.pop()
        return None

    def homogeneous_part(self, parity: int):
        return SuperElement(
            self.ring, {b: c for b, c in self.terms.items() if (b.bit_count() & 1) == parity}
        )

    def grade_split(self):
        return self.homogeneous_part(0), self.homogeneous_part(1)

    # -- body and soul -----------------------------------------------------------

    def _require_pure_grassmann(self):
        if self.ring.coeff.variables:
            raise DomainError("body/soul are defined only for pure Grassmann rings")

    def body(self):
        """The coefficient at the empty odd monomial (pure Grassmann rings only)."""
        self._require_pure_grassmann()
        return self.terms.get(0, self.ring.coeff.zero())

    def soul(self):
        self._require_pure_grassmann()
        return SuperElement(self.ring, {b: c for b, c in self.terms.items() if b})

    def is_nilpotent(self):
        return self.ring.coeff.is_nilpotent(self.body())

    # -- involution -------------------------------------------------------------

    def involute(self):
        """The graded involution; requires an involution table on the ring.

        Convention: ``(xy)** = (-1)**(|x||y|) y** x**`` and
        ``(x**)** = (-1)**|x| x``.
        """
        gen_images = self.ring._odd_images
        if gen_images is None:
            raise DomainError("ring has no involution table")
        ring, terms, neg = self.ring, {}, self.ring.coeff.neg
        # The product rule gives (x1...xk)** = (-1)**(k(k-1)/2) xk**...x1**,
        # and reversing the k odd images costs the same sign, so
        # (x1...xk)** = x1**...xk**: multiply the images in index order.
        # Each image is written once and is never zero (see the module docstring).
        for bits, c in self.terms.items():
            image, sign = 0, 1
            for i in mi.indices_from_bits(bits):
                gen_bit, gen_sign = gen_images[i - 1]
                image, merge_sign = mi.merge_bits(image, gen_bit)
                sign *= gen_sign * merge_sign
            c = ring.coeff_involute(c)
            terms[image] = c if sign > 0 else neg(c)
        return SuperElement(ring, terms)

    # -- printing and serialization ----------------------------------------------

    def to_text(self):
        """Canonical, sorted text form suitable for diffing."""
        if not self.terms:
            return "0"
        coeff = self.ring.coeff
        names = self.ring.odd_names
        parts = []
        for bits in sorted(self.terms, key=mi.sort_key):
            c = self.terms[bits]
            cs = coeff.to_str(c)
            odd = "*".join(names[i - 1] for i in mi.indices_from_bits(bits))
            if not odd:
                parts.append(cs)
            else:
                if " + " in cs or (len(cs) > 1 and ("+" in cs[1:] or "-" in cs[1:])):
                    cs = f"({cs})"
                parts.append(odd if cs == "1" else f"{cs}*{odd}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<SuperElement {self.to_text()}>"

    def terms_to_json(self):
        coeff = self.ring.coeff
        out = []
        for bits in sorted(self.terms, key=mi.sort_key):
            value = self.terms[bits]
            odd = list(mi.indices_from_bits(bits))
            for exps, c in coeff.monomials(value):
                even = {v: e for v, e in zip(coeff.variables, exps) if e}
                out.append({"odd": odd, "even": even, "coeff": coeff.base.value_to_json(c)})
        return out

    def to_json(self):
        return {"ring": self.ring.to_json(), "terms": self.terms_to_json()}

    @classmethod
    def terms_from_json(cls, ring: SuperRing, data):
        """The sum of JSON terms ``{"odd": [...], "even": {...}, "coeff": ...}``; ``DomainError`` if malformed."""
        coeff = ring.coeff
        variables = coeff.variables
        L = ring.odd_count
        if not isinstance(data, list):
            raise DomainError("an element's terms must be a list")

        def terms():
            for item in data:
                item = json_mapping(item, "a term", "coeff")
                odd = item.get("odd") or []
                if not isinstance(odd, list) or not all(type(i) is int and 0 < i <= L for i in odd):
                    raise DomainError(f"'odd' must list odd generator indices in 1..{L}, not {odd!r}")
                even = json_mapping(item.get("even") or {}, "'even'")
                for name, e in even.items():
                    if name not in variables:
                        raise DomainError(f"{name!r} is not an even generator of the ring")
                    json_count(e, f"the exponent of {name}")
                c = coeff.base.value_from_json(item["coeff"])
                yield mi.bits_from_indices(odd), coeff.monomial([even.get(v, 0) for v in variables], c)

        return SuperElement(ring, collect(coeff, terms()))

    @classmethod
    def from_json(cls, data):
        data = json_mapping(data, "an element", "ring", "terms")
        ring = SuperRing.from_json(data["ring"])
        return cls.terms_from_json(ring, data["terms"])
