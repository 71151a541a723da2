"""Truncated-jet superanalysis.

A jet is a finite derivative table at a body point.  Analytic continuation
shifts the argument by a nilpotent soul, so the Taylor sum is finite and
exact.  Super sine and cosine are such continuations on every ring.  Over
the trig ring ``Q[S, C] / (S^2 + C^2 - 1)``, S and C stand for the sine and
cosine of a symbolic base angle and differentiation cycles through
``(S, C, -S, -C)``; on any other ring the jets are taken at 0.

The truncation bound of a jet is a contract with the caller: for
transcendental jets choose the order at least the odd generator count of the
ring the soul lives in, so dropped terms are genuinely zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from . import multiindex as mi
from .errors import DomainError, ParityError
from .scalars import PolyQuotientRing, RationalRing, Relation, collect
from .superring import SuperElement, SuperRing


@dataclass(frozen=True)
class SuperPoint:
    """A point of superspace: even coordinates and odd coordinates."""

    evens: tuple
    odds: tuple

    def __post_init__(self):
        for x in self.evens:
            if x.parity() not in (0,):
                raise ParityError("even coordinates must be even elements")
        for x in self.odds:
            if not x.is_zero() and x.parity() != 1:
                raise ParityError("odd coordinates must be odd elements")
        if not self.evens + self.odds:
            raise DomainError("a point with no coordinates has no ring")

    @property
    def arity(self):
        return (len(self.evens), len(self.odds))


def body_point(p: SuperPoint):
    """Componentwise body of the even coordinates; odd coordinates are dropped."""
    return tuple(x.body() for x in p.evens)


def _check_degree(k, arity, order):
    """``DomainError`` unless ``k`` is ``arity`` integers ``>= 0`` of total degree at most ``order``."""
    if len(k) != arity or not all(type(d) is int and d >= 0 for d in k) or sum(k) > order:
        raise DomainError(f"table degree {k} out of range for order {order}")


@dataclass(frozen=True)
class Jet:
    """Derivative table of a smooth function at a body point.

    ``table`` is a dict from multi-degrees ``(i1, .., im)``, integers ``>= 0``
    with total degree <= order, to nonzero coefficient-ring values, in no
    order; missing entries are zero derivatives.  ``base`` is the body point,
    or None when the base point is symbolic (the trig backend), in which case
    continuation arguments must be pure souls.  A sum or product of two jets
    has the smaller order of the two.
    """

    arity: int
    order: int
    ring: object  # CoeffRing of the values
    table: dict
    base: tuple = None

    @classmethod
    def from_dict(cls, arity, order, ring, table, base=None):
        """The jet of ``table``, checked once; ``DomainError`` names a degree out of range."""
        clean = {}
        for k, v in table.items():
            k = tuple(k)
            _check_degree(k, arity, order)
            if v:
                clean[k] = v
        return cls(arity, order, ring, clean, base)

    @classmethod
    def constant(cls, value, ring, arity=1, order=0, base=None):
        return cls.from_dict(arity, order, ring, {(0,) * arity: value}, base)

    def __add__(self, other):
        self._compat(other)
        order = min(self.order, other.order)
        terms = chain(self.table.items(), other.table.items())
        out = collect(self.ring, ((k, v) for k, v in terms if sum(k) <= order))
        return Jet(self.arity, order, self.ring, out, self.base)

    def __mul__(self, other):
        """Leibniz product: the jet of the pointwise product, truncated."""
        self._compat(other)
        order = min(self.order, other.order)
        ring = self.ring
        right = other.table.items()

        def products():
            for k1, v1 in self.table.items():
                for k2, v2 in right:
                    k = tuple(a + b for a, b in zip(k1, k2))
                    if sum(k) > order:
                        continue
                    binom = 1
                    for total, part in zip(k, k1):
                        binom *= math.comb(total, part)
                    term = ring.mul(v1, v2)
                    if binom != 1:
                        term = ring.mul(term, ring.from_int(binom))
                    yield k, term

        return Jet(self.arity, order, ring, collect(ring, products()), self.base)

    def _compat(self, other):
        if self.arity != other.arity or self.ring != other.ring or self.base != other.base:
            raise DomainError("jets are not compatible")

    def derivative(self, axis: int = 0):
        """The jet of the partial derivative along ``axis``; order drops by one."""
        if not (type(axis) is int and 0 <= axis < self.arity):
            raise DomainError(f"axis {axis} out of range for arity {self.arity}")
        out = {}
        for k, v in self.table.items():
            if k[axis]:
                out[k[:axis] + (k[axis] - 1,) + k[axis + 1 :]] = v
        return Jet(self.arity, self.order - 1, self.ring, out, self.base)

    def is_zero(self):
        return not self.table


def continue_analytically(jet: Jet, xs) -> SuperElement:
    """Grassmann analytic continuation: the finite Taylor sum over souls."""
    xs = list(xs)
    if not xs:
        raise DomainError("continuation needs an even coordinate to fix its ring")
    return _continue(jet, xs, xs[0].ring)


def _continue(jet: Jet, xs, ring) -> SuperElement:
    """:func:`continue_analytically` in ``ring``, where an arity-0 jet continues to its constant."""
    if len(xs) != jet.arity:
        raise DomainError(f"expected {jet.arity} even coordinates, got {len(xs)}")
    if ring.coeff != jet.ring:
        raise DomainError("jet values and coordinates live over different coefficient rings")
    powers = []
    for i, x in enumerate(xs):
        if x.parity() != 0:
            raise ParityError("continuation arguments must be even")
        constant = x.terms.get(0, ring.coeff.zero())
        if jet.base is None:
            if constant:
                raise DomainError("symbolic-base jets accept pure souls only")
        elif not ring.coeff.eq(constant, jet.base[i]):
            raise DomainError("body of the argument does not match the jet base point")
        powers.append({1: SuperElement(ring, {b: c for b, c in x.terms.items() if b})})

    def soul_power(memo, d):
        """``s^d``, kept for this call in ``memo = {k: s^k}`` and filled upward by ``s^k = s^(k-2) s^2``."""
        if d >= 2 and 2 not in memo:
            memo[2] = memo[1] * memo[1]
        e = d
        while e not in memo:
            e -= 2
        for k in range(e + 2, d + 1, 2):
            memo[k] = memo[k - 2] * memo[2]
        return memo[d]

    def taylor_terms():
        for degrees, value in jet.table.items():
            _check_degree(degrees, jet.arity, jet.order)  # a jet built with ``Jet(...)`` skipped from_dict's check
            factors = [soul_power(memo, d) for memo, d in zip(powers, degrees) if d]
            if any(f.is_zero() for f in factors):
                continue  # before 1/k! is formed: it need not exist in the coefficient ring
            fact = math.prod(math.factorial(d) for d in degrees)
            term = ring.from_coeff(value).scale(Fraction(1, fact))
            for f in factors:
                term = term * f
            yield term

    return ring.sum(taylor_terms())


@dataclass(frozen=True)
class SuperSmoothFn:
    """A family of jets indexed by odd multi-indices (finite G-infinity data)."""

    odd_arity: int
    jets: dict  # odd bitmask -> Jet

    @classmethod
    def from_dict(cls, odd_arity, jets):
        if any(b >> odd_arity for b in jets):
            raise DomainError("jet index exceeds the odd arity")
        return cls(odd_arity, dict(jets))


def eval_g_infinity(fn: SuperSmoothFn, point: SuperPoint) -> SuperElement:
    """``sum_mu continuation(jet_mu)(x) * xi_mu`` with factors in index order."""
    if len(point.odds) != fn.odd_arity:
        raise DomainError("odd arity mismatch")
    ring = (point.evens + point.odds)[0].ring

    def terms():
        for bits, jet in fn.jets.items():
            term = _continue(jet, point.evens, ring)
            for i in mi.indices_from_bits(bits):
                term = term * point.odds[i - 1]
            yield term

    return ring.sum(terms())


# -- super sine and cosine -------------------------------------------------------


def trig_coeff_ring() -> PolyQuotientRing:
    """``Q[S, C]`` with ``S^2 = 1 - C^2``."""
    base = RationalRing()
    plain = PolyQuotientRing(base, ("S", "C"))
    rhs = plain.sub(plain.one(), plain.mul(plain.var("C"), plain.var("C")))
    return PolyQuotientRing(base, ("S", "C"), Relation(("S", "S"), rhs))


def trig_super_ring(L: int) -> SuperRing:
    return SuperRing(trig_coeff_ring(), tuple(f"b{i}" for i in range(1, L + 1)))


@lru_cache(maxsize=32)  # rings hash by their descriptor, so equal rings share an entry
def _is_trig_ring(ring) -> bool:
    """Whether ``ring`` rewrites ``S^2`` to ``1 - C^2``, so that ``S`` and ``C`` are a sine and a cosine."""
    rel = ring.relation
    if rel is None or rel.heads != ("S", "S") or "C" not in ring.variables:
        return False
    return rel.rhs == ring.sub(ring.one(), ring.mul(ring.var("C"), ring.var("C")))


def _trig_jet(order: int, ring, phase: int) -> Jet:
    """Sine's derivatives ``(s, c, -s, -c)`` from ``phase`` on, with ``s, c`` sine and cosine at the base.

    On the trig ring the base is the symbolic angle, so ``s, c = S, C``; on any
    other ring it is 0, so ``s, c = 0, 1``.
    """
    ring = ring or trig_coeff_ring()
    if _is_trig_ring(ring):
        s, c, base = ring.var("S"), ring.var("C"), None
    else:
        s, c = ring.zero(), ring.one()
        base = (s,)
    cycle = (s, c, ring.neg(s), ring.neg(c))
    return Jet.from_dict(1, order, ring, {(k,): cycle[(k + phase) % 4] for k in range(order + 1)}, base)


def sin_jet(order: int, ring=None) -> Jet:
    """The jet of sine: at the symbolic base angle on the trig ring (the default), else at 0."""
    return _trig_jet(order, ring, 0)


def cos_jet(order: int, ring=None) -> Jet:
    """The jet of cosine; see :func:`sin_jet`."""
    return _trig_jet(order, ring, 1)


def _continue_trig(theta: SuperElement, jet_of) -> SuperElement:
    ring = theta.ring
    if theta.terms.get(0):
        raise DomainError("the angle must have zero constant term (its soul only)")
    return continue_analytically(jet_of(ring.odd_count, ring.coeff), [theta])


def super_sin(theta: SuperElement) -> SuperElement:
    """Exact super sine of an even angle with zero constant term.

    Over the trig quotient ring the angle is ``(symbolic base) + soul`` and
    ``theta`` carries the soul; elsewhere it is the angle itself.  Either way
    this is the continuation of :func:`sin_jet` of order ``odd_count``.
    """
    return _continue_trig(theta, sin_jet)


def super_cos(theta: SuperElement) -> SuperElement:
    """Exact super cosine; see :func:`super_sin`."""
    return _continue_trig(theta, cos_jet)


# -- even square roots and the supercircle -----------------------------------------


def fraction_sqrt(fr: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, or DomainError."""
    fr = Fraction(fr)
    if fr < 0:
        raise DomainError("cannot take the square root of a negative rational")
    num = math.isqrt(fr.numerator)
    den = math.isqrt(fr.denominator)
    if num * num != fr.numerator or den * den != fr.denominator:
        raise DomainError(f"{fr} is not a perfect square in Q")
    return Fraction(num, den)


def sqrt_even(z: SuperElement, root0) -> SuperElement:
    """The even square root with prescribed body, by induction on index length.

    Solves ``x_lam = (z_lam - sum over proper partitions mu|nu of lam of
    sign(mu,nu) x_mu x_nu) / (2 x_0)`` in increasing index length, for each
    mask ``lam`` the root can reach; the result is verified by squaring.  Only
    even ``mu, nu`` carry a coefficient, and for those ``x_mu x_nu = x_nu
    x_mu``, so each unordered partition is visited once, with ``mu`` holding
    the lowest bit of ``lam``, and the sum is doubled.
    """
    ring = z.ring
    coeff = ring.coeff
    z._require_pure_grassmann()
    if z.parity() != 0:
        raise ParityError("square roots are defined for even elements only")
    root0 = coeff.from_fraction(root0) if isinstance(root0, (int, Fraction)) else root0
    if not coeff.eq(coeff.mul(root0, root0), z.body()):
        raise DomainError("root0 squared does not equal the body of z")
    double = coeff.add(root0, root0)
    if not double:
        raise DomainError("2*root0 is not invertible")
    if not hasattr(coeff, "div"):
        raise DomainError("the coefficient ring does not support exact division")
    inverse = coeff.div(coeff.one(), double)

    # The root, root0 times a series in powers of z's soul, can reach only the unions of
    # pairwise disjoint masks of z; a mask already reached adds no union not already there.
    reach = {0}
    for b in sorted(z.terms, key=int.bit_count):
        if b not in reach:
            reach |= {r | b for r in reach if not r & b}
    grades = {}
    for b in reach - {0}:
        grades.setdefault(b.bit_count(), []).append(b)
    coeffs = {0: root0}
    for grade in sorted(grades):
        # Every partition of a mask of this grade has parts of lower grades, all
        # solved: clear their denominators once and sum the partitions in ``sums``.
        sums, d, x, _ = coeff.cleared(coeffs, coeffs)
        mul, add, neg = sums.mul, sums.add, sums.neg
        halves = {}
        for lam in grades[grade]:
            low = lam & -lam
            rest = lam ^ low
            half = sums.zero()
            # Sum over partitions mu | nu = lam with low in mu and nu nonzero:
            # mu = low | sub for the proper submasks sub of rest.
            sub = rest
            while sub:
                sub = (sub - 1) & rest
                mu = low | sub
                if mu.bit_count() & 1:
                    continue  # odd mu and nu carry no coefficient
                nu = rest ^ sub
                xmu = x.get(mu)
                xnu = x.get(nu)
                if xmu is not None and xnu is not None:
                    term = mul(xmu, xnu)
                    half = add(half, neg(term) if (mi.sign_mask(mu) & nu).bit_count() & 1 else term)
            if half:
                halves[lam] = half
        halves = coeff.divided(halves, d)  # only the nonzero sums become rationals
        for lam in grades[grade]:
            half = halves.get(lam, coeff.zero())
            acc = coeff.sub(z.terms.get(lam, coeff.zero()), coeff.add(half, half))
            if acc:  # a ring with ``div`` is a field, so only a zero ``acc`` gives a zero coefficient
                coeffs[lam] = coeff.mul(acc, inverse)
    x = ring.element(coeffs)
    if x * x != z:
        raise DomainError("square-root recursion failed to verify")  # arithmetic bug
    return x


def sqrt_even_binomial(z: SuperElement, root0) -> SuperElement:
    """Independent oracle: ``root0 * sum_k binom(1/2, k) w^k`` with ``w = z/root0^2 - 1``."""
    ring = z.ring
    coeff = ring.coeff
    root0 = coeff.from_fraction(root0) if isinstance(root0, (int, Fraction)) else root0
    root_sq = coeff.mul(root0, root0)
    if not coeff.eq(root_sq, z.body()):
        raise DomainError("root0 squared does not equal the body of z")
    inv_sq = coeff.div(coeff.one(), root_sq)
    w = ring.from_coeff(inv_sq) * z - ring.one()
    result = ring.zero()
    power = ring.one()
    binom = Fraction(1)
    k = 0
    while not power.is_zero():
        result = result + power.scale(binom)
        binom *= Fraction(1, 2) - k
        k += 1
        binom /= k
        power = power * w
    return result * ring.from_coeff(root0)


def supercircle_chart(y: SuperElement, branch: str = "+") -> SuperPoint:
    """Inverse chart of the supercircle: ``y -> (+-sqrt(1 - y^2), y)``."""
    if branch not in ("+", "-"):
        raise DomainError("branch must be '+' or '-'")
    ring = y.ring
    body = y.body()
    if not isinstance(ring.coeff, RationalRing):
        raise DomainError("supercircle charts require rational bodies")
    if not (-1 < body < 1):
        raise DomainError("body of y must lie in (-1, 1)")
    root = fraction_sqrt(1 - body * body)
    if branch == "-":
        root = -root
    z = ring.one() - y * y
    x = sqrt_even(z, root)
    return SuperPoint((x, y), ())


def circle_tangent(point: SuperPoint, lam: SuperElement):
    """Tangent vector ``(-lam*y, lam*x)`` at an on-circle point ``(x, y)``."""
    if len(point.evens) != 2:
        raise DomainError("expected a point of the supercircle")
    x, y = point.evens
    ring = x.ring
    if x * x + y * y != ring.one():
        raise DomainError("point does not lie on the supercircle")
    tangent = (-(lam * y), lam * x)
    if not (x * tangent[0] + y * tangent[1]).is_zero():
        raise DomainError("tangency identity failed")  # arithmetic bug
    return tangent
