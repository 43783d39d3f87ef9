"""Parser for the symmetric-function expression grammar.

Expressions are sums of terms; a term is a product, joined by ``*``, of
rationals and basis atoms ``b[parts]`` with b one of p, m, e, h, s, f,
e.g. ``3/2*s[2,1] - p[3]*h[1]``.  ``h[1]^4`` and ``2^3`` are power
shorthand and a bare rational like ``1`` is a constant.  A token is a run
of decimal digits or one other non-space character; whitespace between
tokens is ignored.  One regex pass lists the tokens and a recursive descent
reads them.  A term's sign and rationals multiply into one coefficient and
its atoms into one product, and the expression is one SymFunc.sum of those
pairs.  Printing is the inverse, via BasisExpansion.to_text().
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator

from .partitions import Partition
from .ring import BASES, ScalarLike, SymFunc, basis_element

# \d is exactly str.isdecimal, the digits int() reads, and \s exactly str.isspace
_TOKEN = re.compile(r"\s*(\d+|\S)")


class ParseError(ValueError):
    """Syntax error with a 1-based position into the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos + 1})")
        self.pos = pos


def _take(tokens: list, expected: str) -> None:
    tok, pos = tokens[-1]
    if tok != expected:
        raise ParseError(f"expected {expected!r}", pos)
    tokens.pop()


def _integer(tokens: list) -> int:
    tok, pos = tokens[-1]
    if not tok.isdecimal():
        raise ParseError("expected an integer", pos)
    tokens.pop()
    return int(tok)


def _atom(tokens: list) -> SymFunc:
    b, pos = tokens.pop()
    if b not in BASES:
        raise ParseError(f"expected a basis letter {'/'.join(BASES)} or a number", pos)
    _take(tokens, "[")
    parts = [] if tokens[-1][0] == "]" else [_integer(tokens)]
    while tokens[-1][0] == ",":
        tokens.pop()
        parts.append(_integer(tokens))
    _take(tokens, "]")
    try:
        lam = Partition(parts)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None
    return basis_element(b, lam)


def _factor(tokens: list) -> SymFunc | ScalarLike:
    if tokens[-1][0].isdecimal():
        base = _integer(tokens)
        if tokens[-1][0] == "/":
            tokens.pop()
            pos = tokens[-1][1]
            den = _integer(tokens)
            if den == 0:
                raise ParseError("zero denominator", pos)
            base = Fraction(base, den)
    else:
        base = _atom(tokens)
    if tokens[-1][0] == "^":
        tokens.pop()
        return base ** _integer(tokens)
    return base


def _terms(tokens: list) -> Iterator[tuple[ScalarLike, SymFunc]]:
    while True:
        sign = tokens[-1][0]
        if sign in ("+", "-"):  # the first term's sign is optional
            tokens.pop()
        coeff, atoms = -1 if sign == "-" else 1, None
        while True:
            f = _factor(tokens)
            if isinstance(f, SymFunc):
                atoms = f if atoms is None else atoms * f
            else:
                coeff *= f
            if tokens[-1][0] != "*":
                break
            tokens.pop()
        yield coeff, SymFunc.one() if atoms is None else atoms
        if tokens[-1][0] not in ("+", "-"):
            return


def parse_expression(src: str) -> SymFunc:
    """Parse ``src`` into a SymFunc.  Raises ParseError on bad syntax."""
    # the next token is tokens[-1]; errors at the end point at the last character
    tokens = [("", max(len(src) - 1, 0))]
    tokens += reversed([(m[1], m.start(1)) for m in _TOKEN.finditer(src)])
    out = SymFunc.sum(_terms(tokens))
    tok, pos = tokens[-1]
    if tok:
        raise ParseError("unexpected trailing input", pos)
    return out
