"""Expression parsing and canonical printing.

Grammar: ``+ - * ^``, rational literals ``p/q``, generator names taken from
the ring descriptor, parentheses, unary minus.  Whitespace-insensitive.
Parse errors carry the character position.

Every product an expression forms, each ``*`` and each step of a ``^``
(:func:`superring.power`), goes through :meth:`_Parser.product`: both
factors must print, and the products of their printed lengths are summed
over the expression up to :data:`PRODUCT_BUDGET`.  A power's base and its
finished value must print too.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, ParseError
from .scalars import IDENTIFIER, MAX_EXPONENT, PolyQuotientRing
from .superring import SuperElement, SuperRing, power

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


PRODUCT_BUDGET = 2 * 10**8  # the most printed characters times printed characters one expression's products multiply


def _printed(x: SuperElement) -> int:
    """The characters of ``x``'s coefficients; ``DomainError`` for one past the digit limit."""
    to_str = x.ring.coeff.to_str
    return sum(len(to_str(c)) for c in x.terms.values())


class _Parser:
    def __init__(self, tokens, ring: SuperRing):
        self.tokens = tokens
        self.i = 0
        self.ring = ring
        self.spent = 0  # the sum, over the products so far, of their factors' printed lengths multiplied

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

    def product(self, x: SuperElement, y: SuperElement) -> SuperElement:
        """``x * y``; both factors must print, and the product of their printed lengths is charged to the expression."""
        self.spent += _printed(x) * _printed(y)
        if self.spent > PRODUCT_BUDGET:
            raise DomainError(f"the expression's products would multiply {self.spent} printed characters, past {PRODUCT_BUDGET}")
        return x * y

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
                result = self.product(result, self.unary())
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
                _printed(result)  # the base must print, whatever the exponent
                result = power(result, exp, self.product)
                _printed(result)  # and so must the finished power
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
    return parse_element(text, ring).terms.get(0, coeff_ring.zero())
