"""Expression parsing and canonical printing.

Grammar: ``+ - * ^``, rational literals ``p/q``, generator names taken from
the ring descriptor, parentheses, unary minus.  Whitespace-insensitive.
Parse errors carry the character position.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, ParseError
from .scalars import IDENTIFIER, MAX_EXPONENT, GaussianRational, PolyQuotientRing, _digit_limit, digit_limit_error
from .superring import SuperElement, SuperRing

_TOKEN_RE = re.compile(rf"\s*(?:(\d+)|({IDENTIFIER})|([+\-*^()/]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = pos + len(text[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("num", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _check_body_power(coeff, body, exp: int):
    """``DomainError`` if ``body ** exp``, the body of a power, could not be printed: checked before it is formed.

    An integer ``m`` of D digits is at least ``10**(D-1)``, so ``m**exp`` has
    more than ``exp*(D-1)`` digits: a rational body's power is past the digit
    limit when that reaches it.  A Gaussian ``(a + b*i)/d`` with ``b`` nonzero
    prints as two reduced fractions, and only a power of 2, at most
    ``2**(exp/2)``, cancels from its power's ``(a, b, d)``; so the square of
    the largest printed integer is at least ``M**exp / 2**((exp+1)/2)``, M the
    largest of ``|a|``, ``|b|`` and ``d``, and the rule there is ``exp*(D-2)``
    against twice the limit.  A constant quotient value of one term without a
    radical is read through its scalar.  So a power that prints is never refused.
    """
    limit = _digit_limit()
    while isinstance(coeff, PolyQuotientRing) and body and list(body) == [(0, 1)]:
        coeff, body = coeff.base.term_scalars, body[(0, 1)]
    if type(body) is GaussianRational:  # two printed fractions, or one, a/d, when b is 0
        parts, fractions = (body.a, body.b, body.d), 2 if body.b else 1
    elif type(body) in (int, Fraction):
        parts, fractions = (body.numerator, body.denominator), 1
    else:
        return
    try:
        digits = len(str(max(map(abs, parts))))
    except ValueError:  # a Gaussian's two fractions can print while its common denominator cannot
        digits = limit + 1
    if limit and exp * (digits - fractions) >= fractions * limit:
        raise digit_limit_error("a coefficient")


class _Parser:
    def __init__(self, tokens, ring: SuperRing):
        self.tokens = tokens
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> SuperElement:
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return result

    def expr(self):
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self):
        result = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.unary()
            else:
                return result

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self):
        result = self.primary()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                kind, exp, pos = self.advance()
                if kind != "num":
                    raise ParseError("exponent must be a nonnegative integer", pos)
                if exp > MAX_EXPONENT:
                    raise DomainError(f"exponent {exp} is past {MAX_EXPONENT}, the largest a power takes")
                for c in result.terms.values():  # a coefficient past the digit limit raises at once: no chain runs away
                    self.ring.coeff.to_str(c)
                _check_body_power(self.ring.coeff, result.terms.get(0), exp)
                result = result ** exp
            else:
                return result

    def primary(self):
        kind, value, pos = self.advance()
        if kind == "num":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "/":
                self.advance()
                dkind, denom, dpos = self.advance()
                if dkind != "num" or denom == 0:
                    raise ParseError("malformed rational literal", dpos)
                return self.ring.from_fraction(Fraction(value, denom))
            return self.ring.from_fraction(value)
        if kind == "name":
            if value == "i":
                unit = self.ring.coeff.imaginary_unit()
                if unit is not None:
                    return self.ring.from_coeff(unit)
            try:
                return self.ring.generator(value)
            except DomainError:
                raise ParseError(f"unknown generator {value!r}", pos) from None
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a value", pos)


def parse_element(text: str, ring: SuperRing) -> SuperElement:
    """Parse ``text`` into a normalized element of ``ring``."""
    return _Parser(_tokenize(text), ring).parse()


def parse_polynomial(text: str, coeff_ring: PolyQuotientRing):
    """Parse a purely even polynomial over a quotient coefficient ring."""
    ring = SuperRing(coeff_ring)
    element = parse_element(text, ring)
    extra = {b for b in element.terms if b}
    if extra:
        raise DomainError("expected an even polynomial without odd generators")
    return element.terms.get(0, coeff_ring.zero())
