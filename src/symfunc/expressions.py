"""Parser for the symmetric-function expression grammar.

Expressions are sums of terms; a term is a product, joined by ``*``, of
rationals and basis atoms ``b[parts]`` with b one of p, m, e, h, s, f,
e.g. ``3/2*s[2,1] - p[3]*h[1]``.  ``h[1]^4`` and ``2^3`` are power
shorthand and a bare rational like ``1`` is a constant.  Numbers are
decimal digits, the characters int() reads.  Whitespace between tokens is
ignored.  A term's rationals multiply into one coefficient and its atoms
into one product, and the expression is one SymFunc.sum of those pairs.
Printing is the inverse, via BasisExpansion.to_text().
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .partitions import Partition
from .ring import BASES, ScalarLike, SymFunc, basis_element


class ParseError(ValueError):
    """Syntax error with a 1-based position into the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos + 1})")
        self.pos = pos


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.i = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, min(self.i, max(len(self.src) - 1, 0)))

    def skip_ws(self) -> None:
        while self.i < len(self.src) and self.src[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.i] if self.i < len(self.src) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.i += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.i
        while self.i < len(self.src) and self.src[self.i].isdecimal():
            self.i += 1
        if self.i == start:
            raise self.error("expected an integer")
        return int(self.src[start : self.i])

    def rational(self) -> ScalarLike:
        num = self.integer()
        if self.peek() == "/":
            self.i += 1
            pos = self.i
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", pos)
            return Fraction(num, den)
        return num

    def atom(self) -> SymFunc:
        self.skip_ws()
        pos = self.i
        b = self.peek()
        if b not in BASES:
            raise self.error(f"expected a basis letter {'/'.join(BASES)} or a number")
        self.i += 1
        self.take("[")
        parts: list[int] = []
        if self.peek() != "]":
            parts.append(self.integer())
            while self.peek() == ",":
                self.i += 1
                parts.append(self.integer())
        self.take("]")
        try:
            lam = Partition(parts)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        return basis_element(b, lam)

    def factor(self) -> SymFunc | ScalarLike:
        base = self.rational() if self.peek().isdecimal() else self.atom()
        if self.peek() == "^":
            self.i += 1
            return base ** self.integer()
        return base

    def term(self) -> tuple[ScalarLike, SymFunc]:
        coeff, atoms = 1, None
        while True:
            f = self.factor()
            if isinstance(f, SymFunc):
                atoms = f if atoms is None else atoms * f
            else:
                coeff *= f
            if self.peek() != "*":
                return coeff, SymFunc.one() if atoms is None else atoms
            self.i += 1

    def expression(self) -> SymFunc:
        return SymFunc.sum(self.signed_terms())

    def signed_terms(self) -> Iterator[tuple[ScalarLike, SymFunc]]:
        first = True
        while True:
            ch = self.peek()
            if ch in ("+", "-"):  # the first term's sign is optional
                self.i += 1
            elif not first:
                return
            first = False
            coeff, atoms = self.term()
            yield -coeff if ch == "-" else coeff, atoms


def parse_expression(src: str) -> SymFunc:
    """Parse ``src`` into a SymFunc.  Raises ParseError on bad syntax."""
    parser = _Parser(src)
    out = parser.expression()
    parser.skip_ws()
    if parser.i != len(src):
        raise parser.error("unexpected trailing input")
    return out
