"""Parser for the symmetric-function expression grammar.

Expressions are sums of terms; a term is a product, joined by ``*``, of
rationals and basis atoms ``b[parts]`` with b one of p, m, e, h, s, f,
e.g. ``3/2*s[2,1] - p[3]*h[1]``.  ``h[1]^4`` and ``2^3`` are power
shorthand and a bare rational like ``1`` is a constant.  A token is a
well-formed part list such as ``[2,1]`` (no space inside), a run of decimal
digits, or one other non-space character; whitespace between tokens is
ignored.  One regex pass lists the tokens, a recursive descent walks them by
index, and an error's position is found by a second pass.  A term's sign
and rationals multiply into one coefficient and its atoms into one product,
and the expression is one SymFunc.sum of those pairs.  Printing is the
inverse, via BasisExpansion.to_text().
"""

from __future__ import annotations

import re
from fractions import Fraction

from .partitions import Partition
from .ring import BASES, ScalarLike, SymFunc, basis_element

# \d is exactly str.isdecimal, the digits int() reads, and \s exactly str.isspace
_TOKEN = re.compile(r"\s*(\[(?:\d+(?:,\d+)*)?\]|\d+|\S)")


class ParseError(ValueError):
    """Syntax error with a 1-based position into the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos + 1})")
        self.pos = pos


class _AtToken(Exception):
    """A syntax error (message, index of its token), positioned on the way out."""


def _take(tokens: list[str], i: int, expected: str) -> int:
    if tokens[i] != expected:
        raise _AtToken(f"expected {expected!r}", i)
    return i + 1


def _integer(tokens: list[str], i: int) -> int:
    if not tokens[i].isdecimal():
        raise _AtToken("expected an integer", i)
    return int(tokens[i])


def _atom(tokens: list[str], i: int) -> tuple[SymFunc, int]:
    b, parts, j = tokens[i], [], i + 1
    if b not in BASES:
        raise _AtToken(f"expected a basis letter {'/'.join(BASES)} or a number", i)
    if tokens[j] != "[" and tokens[j][:1] == "[":  # a whole part list
        if tokens[j] != "[]":
            parts = [int(p) for p in tokens[j][1:-1].split(",")]
        j += 1
    else:  # part by part, the reader of every malformed list
        j = _take(tokens, j, "[")
        if tokens[j] != "]":
            parts.append(_integer(tokens, j))
            j += 1
            while tokens[j] == ",":
                parts.append(_integer(tokens, j + 1))
                j += 2
        j = _take(tokens, j, "]")
    try:
        lam = Partition(parts)
    except ValueError as exc:
        raise _AtToken(str(exc), i) from None
    return basis_element(b, lam), j


def _factor(tokens: list[str], i: int) -> tuple[SymFunc | ScalarLike, int]:
    if tokens[i].isdecimal():
        base = int(tokens[i])
        i += 1
        if tokens[i] == "/":
            den = _integer(tokens, i + 1)
            if den == 0:
                raise _AtToken("zero denominator", i + 1)
            base = Fraction(base, den)
            i += 2
    else:
        base, i = _atom(tokens, i)
    if tokens[i] == "^":
        return base ** _integer(tokens, i + 1), i + 2
    return base, i


def _terms(tokens: list[str]) -> tuple[list[tuple[ScalarLike, SymFunc]], int]:
    """Each term's (coefficient, product) pair, and the index past the last."""
    pairs, i = [], 0
    while True:
        sign = tokens[i]
        if sign in ("+", "-"):  # the first term's sign is optional
            i += 1
        coeff, atoms = -1 if sign == "-" else 1, None
        while True:
            f, i = _factor(tokens, i)
            if isinstance(f, SymFunc):
                atoms = f if atoms is None else atoms * f
            else:
                coeff *= f
            if tokens[i] != "*":
                break
            i += 1
        pairs.append((coeff, SymFunc.one() if atoms is None else atoms))
        if tokens[i] not in ("+", "-"):
            return pairs, i


def parse_expression(src: str) -> SymFunc:
    """Parse ``src`` into a SymFunc.  Raises ParseError on bad syntax."""
    tokens = _TOKEN.findall(src) + [""]  # "" is the end
    try:
        pairs, i = _terms(tokens)
        if tokens[i]:
            raise _AtToken("unexpected trailing input", i)
    except _AtToken as exc:
        message, index = exc.args
        # errors at the end point at the last character
        starts = [m.start(1) for m in _TOKEN.finditer(src)] + [max(len(src) - 1, 0)]
        raise ParseError(message, starts[index]) from None
    return SymFunc.sum(pairs)
