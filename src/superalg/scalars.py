"""Coefficient rings under the anticommuting layer.

All arithmetic is exact.  Four scalar kinds are provided: rationals,
Gaussian rationals, integers mod n, and Gaussian rationals extended by
formal square roots of positive integers.  On top of any scalar kind sits
``PolyQuotientRing``: a commutative polynomial ring with at most one
quadratic relation, rewritten to a canonical normal form.  A normal form is
made in two steps, for one value or for a whole sum of products at once
(``PolyQuotientRing.sum_of_products``): sum the terms, then rewrite the
relation's lead product out of each summed term and add the rewrites into
the terms that needed none.

Every coefficient ring has the interface of :class:`CoeffRing`.  A scalar
ring reads as a polynomial ring in no variables over itself: no
``variables`` or ``relation``, ``base`` is the ring, and ``monomials`` gives
at most one term, with the empty exponent tuple.  ``imaginary_unit`` is
``None`` where the ring has no ``i``.

Ring values are plain data: ``int`` or ``Fraction`` for a rational (an
integral rational is stored as its ``int`` numerator), ``GaussianRational``,
``int`` mod n, and two sparse dicts -- the radical value (radicand to
Gaussian coefficient) and the quotient polynomial.  A quotient value is one
flat dict keyed by ``(packed exponents, squarefree radicand)``, whatever its
base: the exponent of variable ``i`` is the 16-bit field at bit ``16*i`` of
one int, so two keys multiply by one int add, and the top bit of each field
is a guard bit, so an exponent is at most :data:`MAX_EXPONENT` (32,767) and a
larger one raises ``DomainError``.  A scalar ring reads as radicand 1 only
(``CoeffRing.radicals``), and the stored scalars live in the base's
``term_scalars`` ring, so no radical dict nests inside a quotient value; its
``monomials`` unpacks each key once into an exponent tuple and regroups the
radicands of each tuple into a base scalar.  All operations go through the
ring object, which owns the normal form.  A
``GaussianRational`` is a reduced integer triple ``(a + b*i)/d``, so
Gaussian and radical arithmetic builds no ``Fraction``.  Every value is
falsy exactly when it is zero, which is the zero test.  A sparse value is
the dict :func:`collect` returns, in no order, put in order only where it
is printed, serialized or listed by ``monomials``; it does not hash (a
``SuperElement`` hashes by its odd monomials).  A ring's identity is
``repr(to_json())``, built once per ring object; ``==`` on rings compares
it after an ``is`` test.

A sparse product adds each term product into its output dict as it is
formed and drops zero sums once, at the end: ``SuperElement.__mul__`` over a
scalar ring, and ``PolyQuotientRing._products`` for the term products of a
sum of products and again for the relation's rewrites.  :func:`collect`
runs only where two terms can meet -- ``+`` and ``SuperRing.sum``, JSON
input, a quotient value's normal form, the cold radical and jet products --
and drops zero sums the same way.  Every value either receives must already
be in its ring's normal form; values are only added.

Rings are interned per descriptor (:func:`interned`):
:func:`coeff_ring_from_json`, ``SuperRing.from_json`` and the ring factories
(``sphere_ring``, ``make_uosp_ring``, ``grassmann_ring`` and the rest) build
and check a descriptor's ring once per process and return that object to
every later call, from one table of rings that a miss empties whole once it
holds :data:`INTERN_LIMIT` keys.  A shared ring must not be mutated beyond
its pure caches -- ``_identity_text`` and a quotient ring's ``_rhs_powers``
and ``_rename_plans``.  A descriptor that raises stores nothing, and a
direct ``PolyQuotientRing(...)`` or ``SuperRing(...)`` call builds a new,
unshared ring.  :func:`shared` keeps bras, sphere bundles and samplers on
the ``SuperRing`` object they are built over, where they live and die.
"""

from __future__ import annotations

import math
import re
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
import operator
from itertools import chain

from .errors import DomainError


def collect(ring, pairs) -> dict:
    """Sum ``(key, value)`` pairs per key over ``ring``; zero sums are dropped.

    The first value seen for a key is stored as it is, so every value must
    already be in normal form.  Zeros, which are falsy, are dropped once per
    key, at the end.
    """
    out = {}
    for key, value in pairs:
        acc = out.get(key)
        out[key] = value if acc is None else ring.add(acc, value)
    return {key: value for key, value in out.items() if value}


def _digit_limit() -> int:
    """The most digits Python converts between an integer and text; 0 for no limit (before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _echo(data) -> str:
    """``repr(data)`` for an error message, cut short when it is long."""
    shown = repr(data)
    return shown if len(shown) <= 40 else f"{shown[:30]}... ({len(shown)} characters)"


def digit_limit_error(what: str) -> DomainError:
    """The error for ``what``, a number with an integer past :func:`_digit_limit`."""
    limit = _digit_limit()
    return DomainError(f"{what} has more than {limit} digits, the most Python converts to or from text")


def _decimal(value) -> str:
    """``str(value)`` for a number; ``DomainError`` if one of its integers is past the digit limit."""
    try:
        return str(value)
    except ValueError:  # the only error str() of a number raises
        raise digit_limit_error("a coefficient") from None


def _parse_fraction(text) -> Fraction:
    digits = _decimal(text).strip()  # an int past the digit limit fails here, with its DomainError
    try:
        return Fraction(digits)
    except ZeroDivisionError:
        pass
    except ValueError:
        limit = _digit_limit()
        if limit and re.search("[0-9]{%d}" % (limit + 1), digits):
            raise digit_limit_error(f"coefficient {_echo(text)}") from None
    raise DomainError(f"coefficient {_echo(text)} is not a rational number")


class GaussianRational:
    """Exact complex number ``(a + b*i)/d``, stored as three reduced integers.

    ``d > 0`` and ``gcd(a, b, d) == 1``, so equal values have equal triples
    and ``==``/``hash`` compare the integers.  ``re`` and ``im`` are
    ``Fraction`` views built on demand; the arithmetic never builds one.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re = re if isinstance(re, (int, Fraction)) else Fraction(re)
        im = im if isinstance(im, (int, Fraction)) else Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    # ``__add__`` and ``__mul__`` reduce inline, as ``_gaussian`` does: they are the hot path.
    def __add__(self, other):
        d = self.d
        if d == other.d:
            a, b = self.a + other.a, self.b + other.b
        else:
            e = other.d
            a, b, d = self.a * e + other.a * d, self.b * e + other.b * d, d * e
        if d != 1:
            g = math.gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        z = object.__new__(GaussianRational)
        z.a, z.b, z.d = a, b, d
        return z

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _reduced(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a, b, c, e = self.a, self.b, other.a, other.b
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:  # both real: no cross terms
            a *= c
        d = self.d * other.d
        if d != 1:
            g = math.gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        z = object.__new__(GaussianRational)
        z.a, z.b, z.d = a, b, d
        return z

    def scale(self, n: int):
        """The product with the integer ``n``."""
        g = math.gcd(n, self.d)
        return _reduced(self.a * (n // g), self.b * (n // g), self.d // g)

    def __eq__(self, other):
        return (
            isinstance(other, GaussianRational)
            and self.a == other.a
            and self.b == other.b
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a or self.b)

    def conj(self):
        return _reduced(self.a, -self.b, self.d)

    def inverse(self):
        n = self.a * self.a + self.b * self.b
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _gaussian(self.d * self.a, -self.d * self.b, n)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i" if im != 1 else "i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "i" if mag == 1 else f"{mag}*i"
        return f"{re}{sign}{istr}"


def _reduced(a, b, d):
    """A ``GaussianRational`` from a triple that is already reduced."""
    z = object.__new__(GaussianRational)
    z.a, z.b, z.d = a, b, d
    return z


def _gaussian(a, b, d):
    """``(a + b*i)/d`` for integers with ``d > 0``, reduced by one gcd."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = object.__new__(GaussianRational)  # _reduced, inlined on the hot path
    z.a, z.b, z.d = a, b, d
    return z


MAX_RADICAND = 2**32  # trial division to sqrt(n) then takes at most 65,536 steps


def radical_product(s: int, t: int, c):
    """``c*sqrt(s)*sqrt(t)`` for squarefree ``s, t`` as ``(squarefree radicand, Gaussian coefficient)``.

    ``sqrt(s)*sqrt(t) = g*sqrt(s*t/g^2)`` with ``g = gcd(s, t)``, which subsumes ``sqrt(s)**2 = s``.
    """
    g = math.gcd(s, t)
    return (s // g) * (t // g), (c if g == 1 else c.scale(g))


def squarefree_split(n: int):
    """Write ``n = m*m*s`` with ``s`` squarefree; returns ``(m, s)``."""
    if not 0 < n <= MAX_RADICAND:
        raise DomainError(f"radicand {n} is outside 1..{MAX_RADICAND}")
    m, s = 1, 1
    d = 2
    while d * d <= n:
        count = 0
        while n % d == 0:
            n //= d
            count += 1
        m *= d ** (count // 2)
        if count % 2:
            s *= d
        d += 1
    return m, s * n


class CoeffRing:
    """Interface shared by all coefficient rings; the defaults describe a scalar ring."""

    kind = None
    variables = ()
    relation = None
    _identity_text = None  # set by the first ``_identity()`` call; an ``__init__`` sets it first (see there)

    @property
    def base(self):
        return self

    def zero(self):
        raise NotImplementedError

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return self.from_fraction(n)

    def from_fraction(self, fr):
        raise NotImplementedError

    def imaginary_unit(self):
        """``i`` if the ring has it, else ``None``."""
        return None

    def var(self, name):
        """The variable ``name``; ``DomainError`` if the ring has no such variable."""
        raise DomainError(f"{name!r} is not a variable of the ring")

    def monomials(self, u):
        """``u`` as a tuple of ``(exponents, base scalar)`` pairs, in exponent order."""
        return (((), u),) if u else ()

    def monomial(self, exps, c):
        """The value ``c`` times the monomial with exponents ``exps``."""
        return c

    @property
    def term_scalars(self):
        """The ring of the scalars in :meth:`radicals`."""
        return self

    def radicals(self, u):
        """``u`` as ``(squarefree radicand, scalar)`` pairs; a ring without radicals has only radicand 1."""
        return ((1, u),) if u else ()

    def from_radicals(self, radicals):
        """The value whose :meth:`radicals` are the items of the dict ``radicals``."""
        return radicals.get(1, self.zero())

    def add(self, u, v):
        raise NotImplementedError

    def sub(self, u, v):
        return self.add(u, self.neg(v))

    def neg(self, u):
        raise NotImplementedError

    def mul(self, u, v):
        raise NotImplementedError

    def cleared(self, u, v):
        """``(ring, d, u2, v2)``: the sparse values ``u`` and ``v`` rescaled for their product.

        A value of ``u2`` times one of ``v2``, in ``ring``, is ``d`` times the
        product of the two values they came from; :meth:`divided` maps a sum of
        such products back.  The rationals clear their denominators into the
        integers when the pairs repay it; every other ring is ``(self, 1, u, v)``.
        """
        return self, 1, u, v

    def divided(self, w, d):
        """The sparse value ``w``, summed in the ring :meth:`cleared` gave, divided by ``d``."""
        return w

    def eq(self, u, v):
        return u == v

    def is_nilpotent(self, u):
        """Whether some power of ``u`` is zero; in a ring without zero divisors only zero is."""
        return not u

    def conj(self, u):
        return u

    def to_str(self, u):
        return _decimal(u)

    def value_to_json(self, u):
        raise NotImplementedError

    def value_from_json(self, data):
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError

    def _identity(self):
        """``repr(self.to_json())``, built on first use: rings do not change."""
        identity = self._identity_text
        if identity is None:
            identity = self._identity_text = repr(self.to_json())
        return identity

    def __eq__(self, other):
        return self is other or (type(self) is type(other) and self._identity() == other._identity())

    def __hash__(self):
        return hash(self._identity())


def _rational(fr):
    """A rational value in its stored form: the numerator when integral."""
    return fr.numerator if fr.denominator == 1 else fr


def _integer_multiple(u):
    """``(d, w)``: ``d`` the lcm of the denominators of the rational value ``u``, ``w`` each value times ``d``."""
    fractions = [c for c in u.values() if type(c) is not int]  # a Fraction's accessors are not free
    if not fractions:
        return 1, u
    d = math.lcm(*[c.denominator for c in fractions])
    return d, {k: c * d if type(c) is int else c.numerator * (d // c.denominator) for k, c in u.items()}


class _IntegerRing(CoeffRing):
    """The integers: where rational values with cleared denominators are multiplied and summed."""

    def zero(self):
        return 0

    # The operators themselves, as in GaussianRationalRing: a product loop enters no ring-level frame.
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)


_INTEGERS = _IntegerRing()


class RationalRing(CoeffRing):
    """Rationals; an integral value is stored as an ``int``, any other as a ``Fraction``.

    ``int`` arithmetic builds no ``Fraction``, and ``Fraction(3) == 3`` with
    equal hashes, so the stored form changes neither ``==``, ``hash``, the
    text nor the JSON.  Every operation returns the stored form.
    """

    kind = "rational"
    CLEAR_MIN_PAIRS = 32  # fewer pairs do not repay a pass over each operand and a division per output term

    def zero(self):
        return 0

    def from_fraction(self, fr):
        kind = type(fr)
        if kind is int:  # the stored forms pass through: Fraction(fr) would copy them
            return fr
        return _rational(fr if kind is Fraction else Fraction(fr))

    def add(self, u, v):
        w = u + v
        return w.numerator if w.denominator == 1 else w  # _rational, inlined on the hot path

    def neg(self, u):
        return -u

    def mul(self, u, v):
        w = u * v
        return w.numerator if w.denominator == 1 else w

    def div(self, u, v):
        return _rational(Fraction(u, v))  # u / v would be a float for two ints

    def cleared(self, u, v):
        """Fraction-free operands: each value times the lcm of its operand's denominators, as an int."""
        if len(u) * len(v) < self.CLEAR_MIN_PAIRS:
            return self, 1, u, v
        du, u2 = _integer_multiple(u)
        dv, v2 = (du, u2) if v is u else _integer_multiple(v)
        return _INTEGERS, du * dv, u2, v2

    def divided(self, w, d):
        """Each integer of ``w`` over ``d``, in stored form; one gcd per term, in ``Fraction``."""
        if d == 1:
            return w
        return {k: n // d if n % d == 0 else Fraction(n, d) for k, n in w.items()}

    def value_to_json(self, u):
        return _decimal(u)

    def value_from_json(self, data):
        return _rational(_parse_fraction(data))

    def to_json(self):
        return {"kind": "rational"}


class GaussianRationalRing(CoeffRing):
    kind = "gaussian_rational"

    def zero(self):
        return GaussianRational(0, 0)

    def from_fraction(self, fr):
        return GaussianRational(fr, 0)

    def imaginary_unit(self):
        return GaussianRational(0, 1)

    # The operators themselves, so that a sum in :func:`collect` enters no ring-level frame.
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def div(self, u, v):
        return u * v.inverse()

    def conj(self, u):
        return u.conj()

    def value_to_json(self, u):
        return {"re": _decimal(u.re), "im": _decimal(u.im)}

    def value_from_json(self, data):
        data = json_mapping(data, "a Gaussian value", "re", "im")
        return GaussianRational(_parse_fraction(data["re"]), _parse_fraction(data["im"]))

    def to_json(self):
        return {"kind": "gaussian_rational"}


class IntegerModRing(CoeffRing):
    kind = "integer_mod"

    def __init__(self, n: int):
        self._identity_text = None  # first, as in PolyQuotientRing
        if n < 2:
            raise DomainError("modulus must be at least 2")
        self.n = n

    def zero(self):
        return 0

    def from_int(self, n):
        return n % self.n

    def from_fraction(self, fr):
        fr = Fraction(fr)
        if fr.denominator == 1:
            return fr.numerator % self.n
        try:
            inv = pow(fr.denominator, -1, self.n)
        except ValueError:
            raise DomainError(f"{fr.denominator} is not invertible mod {self.n}") from None
        return (fr.numerator * inv) % self.n

    def add(self, u, v):
        return (u + v) % self.n

    def neg(self, u):
        return (-u) % self.n

    def mul(self, u, v):
        return (u * v) % self.n

    def is_nilpotent(self, u):
        # Nilpotent iff every prime of n divides u; no prime occurs bit_length(n) times in n.
        return pow(u, self.n.bit_length(), self.n) == 0

    def value_to_json(self, u):
        return u

    def value_from_json(self, data):
        return self.from_fraction(_parse_fraction(data))

    def to_json(self):
        return {"kind": "integer_mod", "n": self.n}


class RadicalGaussianRing(CoeffRing):
    """Gaussian rationals extended by formal radicals ``sqrt(s)``.

    A value is a dict mapping a squarefree positive integer to a Gaussian
    rational coefficient (key 1 is the rational part), which is its own
    :meth:`radicals` view.  Radicals multiply by :func:`radical_product`.
    Conjugation fixes radicals.
    """

    kind = "gaussian_radical"
    term_scalars = GaussianRationalRing()

    def radicals(self, u):
        return u.items()

    def from_radicals(self, radicals):
        return radicals

    def zero(self):
        return {}

    def from_fraction(self, fr):
        return self.from_gaussian(GaussianRational(fr, 0))

    def from_gaussian(self, g):
        return {1: g} if g else {}

    def imaginary_unit(self):
        return self.from_gaussian(GaussianRational(0, 1))

    def sqrt_int(self, n: int):
        """The value ``sqrt(n)`` for a positive integer ``n``."""
        m, s = squarefree_split(n)
        return {s: GaussianRational(m, 0)}

    def add(self, u, v):
        return collect(self.term_scalars, chain(u.items(), v.items()))

    def neg(self, u):
        return {s: -c for s, c in u.items()}

    def mul(self, u, v):
        products = (radical_product(s, t, c * d) for s, c in u.items() for t, d in v.items())
        return collect(self.term_scalars, products)

    def conj(self, u):
        return {s: c.conj() for s, c in u.items()}

    def to_str(self, u):
        if not u:
            return "0"
        parts = []
        for s in sorted(u):
            c = u[s]
            cs = _decimal(c)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(cs if s == 1 else (f"sqrt({s})" if cs == "1" else f"{cs}*sqrt({s})"))
        return " + ".join(parts)

    def value_to_json(self, u):
        return [{"rad": s, "re": _decimal(c.re), "im": _decimal(c.im)} for s, c in sorted(u.items())]

    def value_from_json(self, data):
        """Radicands are split to squarefree form and repeats are summed."""
        if not isinstance(data, list):
            raise DomainError("a radical value must be a list of terms")

        def terms():
            for item in data:
                item = json_mapping(item, "a radical term", "rad", "re", "im")
                rad = _json_int(item["rad"])
                if type(rad) is not int:
                    raise DomainError(f"radicand {rad!r} is not an integer")
                m, s = squarefree_split(rad)
                g = GaussianRational(_parse_fraction(item["re"]), _parse_fraction(item["im"]))
                yield s, g.scale(m)

        return collect(self.term_scalars, terms())

    def to_json(self):
        return {"kind": "gaussian_radical"}


def _coeff_str(base, c):
    s = base.to_str(c)
    if any(op in s[1:] for op in "+-") or "sqrt" in s:
        return f"({s})"
    return s


@dataclass(frozen=True)
class Relation:
    """A single quadratic rewrite rule ``heads[0]*heads[1] -> rhs``.

    ``heads`` is a pair of variable names, a tuple or a list (stored as a
    tuple); a square is the pair of one name, so ``("x0", "x0")`` rewrites
    ``x0**2``.  ``rhs`` is a value of the ring without the relation, polynomial
    text such as ``"1 - y^2"`` or a list of JSON terms, which
    :class:`PolyQuotientRing` reads in that ring; it refuses any other ``rhs``
    with ``DomainError``.  It must not mention the head variables, which makes
    the rewrite terminating and confluent.
    """

    heads: tuple  # (u, v)
    rhs: object  # a value of the ring without the relation, polynomial text or JSON terms

    def __post_init__(self):
        if isinstance(self.heads, list):  # not any iterable: tuple("xy") would split a string
            object.__setattr__(self, "heads", tuple(self.heads))


EXPONENT_BITS = 16  # the width of one variable's field in a packed exponent key
MAX_EXPONENT = (1 << EXPONENT_BITS - 1) - 1  # 32,767: the top bit of each field is its guard bit
_FIELD = (1 << EXPONENT_BITS) - 1


class PolyQuotientRing(CoeffRing):
    """Commutative polynomials over a base scalar ring, modulo one relation.

    A value maps a term key ``(packed exponents, squarefree radicand)`` to a
    nonzero scalar of ``base.term_scalars``: over a base without radicals the
    radicand is 1 and the scalar a base value, and over ``gaussian_radical``
    scalars it is a ``GaussianRational``, so that no radical dict nests in a
    term.  The exponent of variable ``i`` is the :data:`EXPONENT_BITS` field
    at bit ``16*i`` of one int, so a product of two terms adds their keys'
    ints.  Operands hold exponents of at most :data:`MAX_EXPONENT`, so a sum
    of two fields never carries into the next; it sets the field's top
    (guard) bit when it passes the limit, and every result is tested for a
    guard bit once, where its terms are visited anyway, raising
    ``DomainError``.  ``monomials``, ``monomial``, ``from_scalar`` and the
    JSON forms speak in ``(exponent tuple, base scalar)`` pairs.  A relation's
    text or JSON-term ``rhs`` is read in ``PolyQuotientRing(base, variables)``;
    ``relation.rhs`` is always the value.
    """

    kind = "poly_quotient"
    base = None  # set per instance; shadows the scalar-ring ``CoeffRing.base``

    def __init__(self, base: CoeffRing, variables, relation: Relation = None):
        # First: added after construction, as ``_identity`` would add it, the
        # slot cost the ring its shared attribute layout (Python 3.11), and
        # ``sum_of_products`` ran about 10% slower.
        self._identity_text = None
        self.base = base
        self._scalars = base.term_scalars
        self.variables = tuple(variables)
        self._var_pos = {v: i for i, v in enumerate(self.variables)}
        n = len(self.variables)
        self._guard = sum(1 << EXPONENT_BITS * (i + 1) - 1 for i in range(n))  # every field's top bit
        self._fields, self._width = struct.Struct(f"<{n}H"), 2 * n  # a key's fields, lowest first
        self._rename_plans = {}
        if len(self._var_pos) != len(self.variables):
            raise DomainError(f"ring variables must be distinct, not {list(self.variables)}")
        if "i" in self._var_pos and base.imaginary_unit() is not None:
            raise DomainError("ring variable 'i' would read as the imaginary unit of the base ring")
        self.relation = relation
        if relation is not None:
            heads, rhs = relation.heads, relation.rhs
            if not isinstance(heads, tuple) or len(heads) != 2 or not all(h in self._var_pos for h in heads):
                raise DomainError(f"relation heads {heads!r} are not a pair of ring variables")
            if isinstance(rhs, (str, list)):  # text or JSON terms, read in the ring without the relation
                from .expressions import parse_polynomial  # imported here: expressions imports this module

                plain = PolyQuotientRing(base, self.variables)
                rhs = parse_polynomial(rhs, plain) if isinstance(rhs, str) else plain.value_from_json(rhs)
                self.relation = Relation(heads, rhs)
            elif not isinstance(rhs, dict) or not all(  # a ring value has (packed exponents, radicand) keys
                type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int for key in rhs
            ):
                raise DomainError(
                    "a relation right-hand side must be polynomial text, a list of JSON terms or a ring value "
                    f"keyed by (packed exponents, radicand) pairs, not this {type(rhs).__name__}"
                )
            self._heads = tuple(self._var_pos[h] for h in heads)
            self._head_shifts = tuple(EXPONENT_BITS * i for i in self._heads)
            self._head_step = sum(1 << shift for shift in self._head_shifts)  # one of each head
            for exps, _ in self.monomials(rhs):
                if any(exps[i] for i in self._heads):
                    raise DomainError("relation right-hand side must not mention its head variables")
            self._rhs_powers = [self.one(), rhs]

    # -- construction -----------------------------------------------------

    def _pack(self, exps):
        """The packed key of ``exps``, one integer in ``0..MAX_EXPONENT`` per variable; ``DomainError`` otherwise."""
        exps = tuple(exps)
        try:  # struct refuses a wrong count and a field past 16 bits; the guard bits, one past 15
            packed = int.from_bytes(self._fields.pack(*exps), "little")
            if not packed & self._guard:
                return packed
        except struct.error:
            pass
        if len(exps) != len(self.variables):
            raise DomainError(f"{len(exps)} exponents given for the {len(self.variables)} ring variables")
        name, e = next((v, e) for v, e in zip(self.variables, exps) if type(e) is not int or not 0 <= e <= MAX_EXPONENT)
        raise DomainError(f"the exponent of {name} must be an integer in 0..{MAX_EXPONENT}, not {e!r}")

    def _past_limit(self, packed):
        """The ``DomainError`` for a key with a guard bit: an exponent reached past :data:`MAX_EXPONENT`."""
        exps = self._fields.unpack(packed.to_bytes(self._width, "little"))
        name, e = next((name, e) for name, e in zip(self.variables, exps) if e > MAX_EXPONENT)
        return DomainError(f"the exponent of {name} reaches {e}, past {MAX_EXPONENT}, the largest a term holds")

    def _terms(self, packed, c):
        """The base scalar ``c`` times the monomial with packed exponents, as ``(key, scalar)`` pairs."""
        return [((packed, s), g) for s, g in self.base.radicals(c)]

    def zero(self):
        return {}

    def from_fraction(self, fr):
        return self.from_scalar(self.base.from_fraction(fr))

    def from_scalar(self, c):
        return dict(self._terms(0, c))

    def imaginary_unit(self):
        i = self.base.imaginary_unit()
        return None if i is None else self.from_scalar(i)

    def var(self, name):
        if name not in self._var_pos:
            return super().var(name)
        return dict(self._terms(1 << EXPONENT_BITS * self._var_pos[name], self.base.one()))

    def monomials(self, u):
        """``(exponents, base scalar)`` pairs in exponent order; each key is unpacked once."""
        unpack, width = self._fields.unpack, self._width
        if self._scalars is self.base:  # no radicals: one term per key
            return tuple(sorted([(unpack(e.to_bytes(width, "little")), c) for (e, _), c in u.items()]))
        radicals = {}
        for (e, s), c in u.items():
            r = radicals.get(e)
            if r is None:
                radicals[e] = {s: c}
            else:
                r[s] = c
        from_radicals = self.base.from_radicals
        return tuple(sorted([(unpack(e.to_bytes(width, "little")), from_radicals(r)) for e, r in radicals.items()]))

    def monomial(self, exps, c):
        packed = self._pack(exps)
        if self.relation is not None and self._lead_power(packed):
            return self.normal_form_dict(self._terms(packed, c))
        return dict(self._terms(packed, c))  # one monomial without the lead product is in normal form

    # -- normal form -------------------------------------------------------

    def _rhs_power(self, k):
        while len(self._rhs_powers) <= k:
            self._rhs_powers.append(self.mul(self._rhs_powers[-1], self.relation.rhs))
        return self._rhs_powers[k]

    def _products(self, products, out):
        """``out`` plus every term product of ``(tag, negate, u, v)`` quadruples.

        Each product is keyed ``(tag, packed exponents, radicand)`` and added
        into ``out`` as it is formed; zeros are dropped once, from the dict
        returned.  ``out`` itself is filled in place.  No exponent is tested
        here: the caller tests each result once (see the class docstring).
        """
        get = out.get
        plus, mul, neg = self._scalars.add, self._scalars.mul, self._scalars.neg
        for tag, negate, u, v in products:
            right = v.items()
            for (e1, s), c1 in u.items():
                if negate:
                    c1 = neg(c1)
                for (e2, t), c2 in right:
                    c = mul(c1, c2)
                    if s == 1 or t == 1:  # radical_product's rule, without its call
                        r = s * t
                    else:
                        r, c = radical_product(s, t, c)
                    key = (tag, e1 + e2, r)
                    acc = get(key)
                    out[key] = c if acc is None else plus(acc, c)
        return {key: c for key, c in out.items() if c}

    def _lead_power(self, exps):
        """How many times the relation's lead product divides the packed monomial ``exps``."""
        i, j = self._head_shifts
        return (exps >> i & _FIELD) // 2 if i == j else min(exps >> i & _FIELD, exps >> j & _FIELD)

    def _normal_form(self, terms):
        """The normal form, tag by tag, of nonzero scalars keyed ``(tag, packed exponents, radicand)``, keyed alike.

        The lead product is rewritten ``k`` times out of each term (``head *
        rhs**k``, already in normal form) and the rewrites are added into the
        terms that need none, so a term that several products share is
        rewritten once.  A rewritten head that still has a guard bit raises
        ``DomainError`` before its product with ``rhs**k``, which could carry.
        """
        if self.relation is None:
            return terms
        lead_power, step, guard = self._lead_power, self._head_step, self._guard
        kept, rewrites = {}, []
        for tagged, c in terms.items():
            tag, exps, s = tagged
            k = lead_power(exps)
            if k == 0:
                kept[tagged] = c
                continue
            exps -= k * step
            if exps & guard:
                raise self._past_limit(exps)
            rewrites.append((tag, False, {(exps, s): c}, self._rhs_power(k)))
        if not rewrites:
            return terms
        return self._products(rewrites, kept)

    def _by_tag(self, terms):
        """``{tag: value}``: ``terms`` in normal form, split by tag; ``DomainError`` for an exponent past the limit."""
        out, guard = {}, self._guard
        for (tag, exps, s), c in self._normal_form(terms).items():
            if exps & guard:  # one test per output term, none per term product
                raise self._past_limit(exps)
            value = out.get(tag)
            if value is None:
                out[tag] = {(exps, s): c}
            else:
                value[exps, s] = c
        return out

    def normal_form_dict(self, terms):
        """The normal form of the sum of ``(key, scalar)`` pairs: collect, rewrite, test the exponents."""
        tagged = collect(self._scalars, (((None, exps, s), c) for (exps, s), c in terms))
        return self._by_tag(tagged).get(None, {})

    def sum_of_products(self, products) -> dict:
        """``{tag: value}``: the normal form of the sum of ``±u*v`` over ``(tag, negate, u, v)`` quadruples.

        Every term product is added into one dict as it is formed, and the sum
        is normalized once however many quadruples share a tag.
        """
        return self._by_tag(self._products(products, {}))

    # -- arithmetic ----------------------------------------------------------

    def add(self, u, v):
        return collect(self._scalars, chain(u.items(), v.items()))

    def neg(self, u):
        return {e: self._scalars.neg(c) for e, c in u.items()}

    def mul(self, u, v):
        return self.sum_of_products(((None, False, u, v),)).get(None, {})

    def conj(self, u):
        return {e: self._scalars.conj(c) for e, c in u.items()}

    def _rename_plan(self, perm):
        """``(moves, normal)`` for the permutation ``perm`` of variable positions, built once per ``perm``.

        ``moves`` holds one ``(mask, left, right)`` per distance a field
        moves: ``(key & mask) << left >> right`` places every field that
        moves that far.  ``normal`` is whether renamed normal-form terms are
        still in normal form: the permutation sends the relation's head pair
        to itself, so a renamed term holds the lead product only if the term
        held it, and being a bijection it merges no two terms.
        """
        plan = self._rename_plans.get(perm)
        if plan is None:
            masks = {}
            for src, dst in enumerate(perm):
                shift = EXPONENT_BITS * (dst - src)
                masks[shift] = masks.get(shift, 0) | _FIELD << EXPONENT_BITS * src
            moves = tuple((mask, max(shift, 0), max(-shift, 0)) for shift, mask in masks.items())
            normal = self.relation is None or sorted(perm[h] for h in self._heads) == sorted(self._heads)
            plan = self._rename_plans[perm] = (moves, normal)
        return plan

    def substitute_vars(self, u, mapping):
        """Rename variables per ``mapping`` (a permutation of variable names) by moving exponent fields.

        The renamed terms are normalized only when the permutation moves the
        relation's head pair (see :meth:`_rename_plan`); the involutions of
        the uosp and sphere rings do not.
        """
        moves, normal = self._rename_plan(tuple(self._var_pos[mapping.get(v, v)] for v in self.variables))

        def renamed(exps):
            new = 0
            for mask, left, right in moves:
                new |= (exps & mask) << left >> right
            return new

        terms = (((renamed(exps), s), c) for (exps, s), c in u.items())
        return dict(terms) if normal else self.normal_form_dict(terms)

    def to_str(self, u):
        if not u:
            return "0"
        parts = []
        for exps, c in sorted(self.monomials(u), key=lambda kv: (sum(kv[0]), kv[0])):
            factors = []
            for v, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            cs = _coeff_str(self.base, c)
            if factors and cs == "1":
                parts.append("*".join(factors))
            elif factors:
                parts.append(cs + "*" + "*".join(factors))
            else:
                parts.append(cs)
        return " + ".join(parts)

    def value_to_json(self, u):
        return [
            {"exps": {v: e for v, e in zip(self.variables, exps) if e}, "c": self.base.value_to_json(c)}
            for exps, c in self.monomials(u)
        ]

    def value_from_json(self, data):
        """Terms ``{"exps": {var: exponent}, "c": scalar}``; repeated exponent maps are summed."""
        if not isinstance(data, list):
            raise DomainError("a polynomial value must be a list of terms")

        def terms():
            for item in data:
                item = json_mapping(item, "a polynomial term")
                if "c" not in item:
                    raise DomainError("a polynomial term needs a coefficient 'c'")
                exps = [0] * len(self.variables)
                for v, e in json_mapping(item.get("exps"), "'exps'").items():
                    if v not in self._var_pos:
                        raise DomainError(f"{v!r} is not a variable of the ring")
                    exps[self._var_pos[v]] = json_count(e, f"the exponent of {v}")
                yield from self._terms(self._pack(exps), self.base.value_from_json(item["c"]))

        return self.normal_form_dict(terms())

    def to_json(self):
        rel = None
        if self.relation is not None:
            u, v = self.relation.heads
            rel = {"lead": u if u == v else [u, v], "rhs": self.value_to_json(self.relation.rhs)}
        return {
            "kind": "poly_quotient",
            "vars": list(self.variables),
            "relation": rel,
            "base": self.base.to_json(),
        }


def json_mapping(data, what: str, *required: str) -> dict:
    """``data`` if it is a JSON object with every ``required`` key; ``DomainError`` names the fault."""
    if not isinstance(data, dict):
        raise DomainError(f"{what} must be a JSON object, not {type(data).__name__}")
    for key in required:
        if key not in data:
            raise DomainError(f"{what} has no {key!r}")
    return data


IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"  # a ring variable or odd generator name, in descriptors and expressions


def json_names(data, what: str) -> tuple:
    """``data`` as a tuple if it is a JSON list of :data:`IDENTIFIER` strings; ``DomainError`` otherwise."""
    if not isinstance(data, (list, tuple)) or not all(isinstance(name, str) for name in data):
        raise DomainError(f"{what} must be a list of strings")
    for name in data:
        if not re.fullmatch(IDENTIFIER, name):
            raise DomainError(f"{what}: {name!r} is not a name (a letter or _, then letters, digits or _)")
    return tuple(data)


def _json_int(data):
    """``data`` as an ``int`` if it is a string of decimal digits, else ``data`` unchanged."""
    if isinstance(data, str) and re.fullmatch(r"\s*[+-]?[0-9]+\s*", data):
        try:
            return int(data)
        except ValueError:
            raise digit_limit_error(f"integer {_echo(data)}") from None
    return data


def json_count(data, what: str) -> int:
    """``data`` if it is a JSON integer ``>= 0``; ``DomainError`` names ``what`` otherwise."""
    if type(data) is not int or data < 0:
        raise DomainError(f"{what} must be a nonnegative integer, not {data!r}")
    return data


# Keys at which a miss empties the table; a perfbench cli cycle stores 50 (and 13 bundles, bras, samplers on rings).
INTERN_LIMIT = 256
_JSON_KEY_NODES = 1 << 16  # a descriptor with more values, or a cyclic one, is built uncached
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))
_rings = {}  # intern key or descriptor -> ring
_building = 0  # how many interned builds are running, one inside another


def canonical(ring):
    """The first ring stored with ``ring``'s descriptor (``ring._identity()``): ``ring`` itself if none was.

    A ring whose descriptor cannot be written (an integer past
    :func:`_digit_limit`) is its own canonical ring and is not stored.
    """
    try:
        descriptor = ring._identity()
    except (DomainError, ValueError):
        return ring
    return _rings.setdefault(descriptor, ring)


def interned(key, build):
    """The ring stored under ``key``; on a miss ``build()``, made :func:`canonical` and stored under ``key``.

    So every key of one descriptor gives one object.  A miss from outside any
    build first empties a table of :data:`INTERN_LIMIT` keys, so a ring is
    stored with the rings it was built over.  A ``build`` that raises stores
    nothing; a key of ``None``, or one that does not hash, is built on every
    call and not stored.
    """
    global _building
    if key is None:
        return build()
    try:
        found = _rings.get(key)
    except (TypeError, ValueError, DomainError):  # an argument that does not hash, or a ring with no descriptor
        return build()
    if found is None:
        if not _building and len(_rings) >= INTERN_LIMIT:
            _rings.clear()
        _building += 1
        try:
            found = canonical(build())
        finally:
            _building -= 1
        _rings[key] = found
    return found


def shared(ring, key, build):
    """The object kept on the ``SuperRing`` ``ring`` under ``key``; on a miss ``build()``, kept once it returns.

    It lives and dies with ``ring``, out of the table; a ``build`` that raises keeps nothing.
    """
    found = ring._shared.get(key)
    return found if found is not None else ring._shared.setdefault(key, build())


def factory_key(factory, *args):
    """The intern key of ``factory(*args)``: the arguments and their types, so ``1.0`` never finds the ring of ``1``."""
    return (factory, *args, *map(type, args))


def json_key(owner, data):
    """``(owner, repr(data))`` if ``data`` is JSON, the intern key of a descriptor ``owner`` reads; else ``None``.

    JSON means dicts with string keys, lists, strings, numbers, booleans and
    ``None``, each of exactly that type: a tuple or another object may print
    like JSON and read differently.  Data of more than :data:`_JSON_KEY_NODES`
    values, so cyclic data too, and an integer past :func:`_digit_limit` have no key.
    """
    todo, budget = [data], _JSON_KEY_NODES
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is dict and all(type(name) is str for name in item):
            item = item.values()
        elif kind is not list:
            if kind in _JSON_SCALARS:
                continue
            return None
        budget -= len(item)
        if budget < 0:
            return None
        todo.extend(item)
    try:
        return owner, repr(data)
    except ValueError:  # an integer past the digit limit
        return None


def coeff_ring_from_json(data) -> CoeffRing:
    """The coefficient ring of the descriptor ``data``, one object per descriptor (see :func:`interned`)."""
    return interned(json_key(coeff_ring_from_json, data), lambda: _coeff_ring_from_json(data))


def _coeff_ring_from_json(data) -> CoeffRing:
    kind = json_mapping(data, "a coefficient ring descriptor").get("kind")
    if kind == "rational":
        return RationalRing()
    if kind == "gaussian_rational":
        return GaussianRationalRing()
    if kind == "integer_mod":
        n = _json_int(data.get("n"))
        if type(n) is not int:
            raise DomainError(f"integer_mod modulus 'n' must be an integer, not {n!r}")
        return IntegerModRing(n)
    if kind == "gaussian_radical":
        return RadicalGaussianRing()
    if kind == "poly_quotient":
        base = coeff_ring_from_json(data.get("base"))
        variables = json_names(data.get("vars"), "'vars'")
        relation, rel = None, data.get("relation")
        if rel is not None:
            lead = json_mapping(rel, "'relation'", "rhs").get("lead")
            if isinstance(lead, str):  # "x" is x*x; "x*y" and "x*x" name both factors
                lead = lead.split("*") if "*" in lead else [lead, lead]
            heads = json_names(lead, "'lead'")
            if len(heads) != 2:
                raise DomainError("'lead' must name one variable or a product of two")
            if not isinstance(rel["rhs"], (str, list)):  # a JSON object would pass unread, as a ring value
                raise DomainError("a polynomial value must be a list of terms")
            relation = Relation(heads, rel["rhs"])
        return PolyQuotientRing(base, variables, relation)
    raise DomainError(f"unknown coefficient ring kind {kind!r}")
