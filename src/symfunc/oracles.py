"""Second routes: values the library computes, each computed another way.

The checks in ``verify`` and the tests compare each library route with its
second route here or in ``polyoracle``, so a fault shows unless both routes
share it.  Four rules keep them apart, and tests/test_verify.py holds them
on the import graph of ``src/symfunc``:

  1. ``partitions``, ``names``, ``ring``, ``vertex``, ``tableaux``,
     ``expressions`` and ``__init__`` import nothing from ``oracles``,
     ``polyoracle`` or ``verify``; ``cli`` imports ``verify`` and nothing
     from ``oracles`` or ``polyoracle``.
  2. ``oracles`` imports no name from ``vertex``.
  3. ``oracles``, ``verify`` and ``polyoracle`` never name ``_perp_sum``,
     the kernel every operator sums through: the sums here skew by
     ``ring.skew``.
  4. ``polyoracle`` imports only ``BASES``, ``SymFunc`` and
     ``basis_element`` from ``ring``.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, Optional

from .partitions import (
    Partition,
    add_columns,
    binomial,
    insert_parts,
    mult_count,
    partitions_upto,
    straighten,
)
from .ring import SymFunc, basis_element, expand, hn, skew
from .tableaux import bounded_height_schur_sum


def action_law(
    op: str, a: Optional[int], k: Optional[int], family: str, mu: Partition
) -> SymFunc:
    """The image of b_mu (b = ``family``) under ``op`` as the paper states
    it, built from partition helpers and never through ``vertex``.  Column
    adders give b_{mu + a^k} (a = 1 for CH and CE), or 0 where that shape
    is undefined; RS straightens (a) + mu, which is s_{mu + (a)} when
    a >= mu_1; the other row adders insert a^k (k = 1 for RM1, RM and RF),
    RM1 and RMK with the factor C(n_a(mu) + k, k)."""
    if op == "RS":
        res = straighten((a,) + tuple(mu))
        return SymFunc.zero() if res.is_zero else res.sign * basis_element("s", res.shape)
    if op.startswith("C"):
        shape = add_columns(mu, 1 if a is None else a, k)
        return SymFunc.zero() if shape is None else basis_element(family, shape)
    rows = 1 if k is None else k
    coeff = binomial(mult_count(mu, a) + rows, rows) if op in ("RM1", "RMK") else 1
    return coeff * basis_element(family, insert_parts(mu, Partition((a,) * rows)))


def signed_perp_sum(
    g: SymFunc,
    lams: Iterable[Partition],
    by: Callable[[Partition], SymFunc],
    image: Callable[[Partition], tuple[int, SymFunc]],
) -> SymFunc:
    """sum over lam in ``lams`` of (-1)^{|lam|} c * f * by(lam)^perp g for
    (c, f) = image(lam), built only where the skew is nonzero.  The oracles
    keep this loop of their own, apart from the one the operators sum
    through, so that a fault in that loop cannot show on both sides of a check."""
    return SymFunc.sum(
        ((-1) ** sum(lam) * c, f * skewed)
        for lam in lams
        if not (skewed := skew(by(lam), g)).is_zero
        for c, f in (image(lam),)
    )


# The literal defining sums of the three omega-mirrored operators, which the
# library computes as omega o X o omega.
def ce_column_literal(k: int, g: SymFunc) -> SymFunc:
    """sum over l(lam) <= k of (-1)^{|lam|} h_{lam + 1^k} f_lam^perp."""
    return signed_perp_sum(
        g,
        partitions_upto(g.degree(), max_length=k),
        partial(basis_element, "f"),
        lambda lam: (1, basis_element("h", add_columns(lam, 1, k))),
    )


def cf_column_literal(a: int, k: int, g: SymFunc) -> SymFunc:
    """sum over lam of (-1)^{|lam|} C(n_a(lam) + k, k) f_{lam + (a^k)} h_lam^perp
    for a >= 1; at a = 0 the forgotten expansion projected onto length <= k."""
    if a == 0:
        return SymFunc.sum(
            (c, basis_element("f", mu)) for mu, c in expand(g, "f").terms.items() if len(mu) <= k
        )
    return signed_perp_sum(
        g,
        partitions_upto(g.degree()),
        partial(basis_element, "h"),
        lambda lam: (
            binomial(mult_count(lam, a) + k, k),
            basis_element("f", insert_parts(lam, Partition((a,) * k))),
        ),
    )


def rf_row_literal(a: int, g: SymFunc) -> SymFunc:
    """sum over k >= 0, l(lam) <= k + 1 of
    (-1)^{|lam| + k} f_{lam + a^{k+1}} h_lam^perp (e_a^k)^perp, for a >= 1."""
    deg = g.degree()
    return SymFunc.sum(
        (
            (-1) ** k,
            signed_perp_sum(
                skew(basis_element("e", Partition((a,) * k)), g),
                partitions_upto(deg - a * k, max_length=k + 1),
                partial(basis_element, "h"),
                lambda lam: (1, basis_element("f", add_columns(lam, a, k + 1))),
            ),
        )
        for k in range(deg // a + 1)
    )


def everything_op(
    b: str, assignment: Callable[[Partition], Optional[SymFunc]], g: SymFunc
) -> SymFunc:
    """The operator sending the basis element b_mu to assignment(mu), applied
    linearly to ``g``.  Raises LookupError naming any partition present in
    the expansion of ``g`` for which the assignment returns None."""
    terms = []
    for mu, c in expand(g, b).terms.items():
        image = assignment(mu)
        if image is None:
            raise LookupError(f"assignment undefined for partition {mu}")
        terms.append((c, image))
    return SymFunc.sum(terms)


def littlewood_richardson(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """{nu: c^nu_{lam,mu}} over every nu with a nonzero coefficient: the
    number of semistandard fillings of nu/lam with content mu whose reverse
    reading word (rows top to bottom, each right to left) is a lattice word
    (Macdonald ch. I section 9).  The value i goes in as a horizontal strip
    of mu_i boxes over the shape filled so far; the word stays a lattice
    word iff, for each row r, the i's in rows up to r number at most the
    (i-1)'s in rows above r.  A state is the shape so far and the count of
    the last value in each row, the only counts a later strip reads.
    Partitions alone: no power sums, no characters, no ring."""
    states = {(tuple(lam), None): 1}
    for size in mu:
        grown: dict = {}
        for (shape, last), ways in states.items():
            for strip in _lattice_strips(shape, last, size):
                rows = tuple(a + x for a, x in zip_longest(shape, strip, fillvalue=0))
                key = (tuple(r for r in rows if r), strip)
                grown[key] = grown.get(key, 0) + ways
        states = grown
    out: dict[Partition, int] = {}
    for (shape, _), ways in states.items():
        nu = Partition(shape)
        out[nu] = out.get(nu, 0) + ways
    return out


def _lattice_strips(
    shape: tuple[int, ...], last: Optional[tuple[int, ...]], size: int
) -> Iterator[tuple[int, ...]]:
    """Each horizontal strip of ``size`` boxes over ``shape``, as the boxes
    it adds to rows 0..len(shape): row r > 0 takes at most shape[r-1] -
    shape[r] (the strip's bound is the inner shape), and, unless ``last`` is
    None (the first value), rows up to r take at most the boxes ``last``
    put in rows above r."""
    bounds = [size] + [shape[r - 1] - (shape[r] if r < len(shape) else 0)
                       for r in range(1, len(shape) + 1)]

    def walk(r: int, left: int, placed: int, above: int) -> Iterator[tuple[int, ...]]:
        if r == len(bounds):
            if not left:
                yield ()
            return
        room = min(left, bounds[r])
        if last is not None:
            room = min(room, above - placed)
        below = above + (last[r] if last is not None and r < len(last) else 0)
        for x in range(room, -1, -1):
            for rest in walk(r + 1, left - x, placed + x, below):
                yield (x,) + rest

    return walk(0, size, 0, 0)


def syt_count_brute(lam: Partition) -> int:
    """Count standard tableaux by backtracking over valid insertion corners.

    Exponential; test oracle only.
    """
    lam = Partition(lam)
    n = sum(lam)
    fills = [0] * len(lam)  # cells already filled per row

    def place(step: int) -> int:
        if step > n:
            return 1
        total = 0
        for i, row in enumerate(lam):
            if fills[i] < row and (i == 0 or fills[i - 1] > fills[i]):
                fills[i] += 1
                total += place(step + 1)
                fills[i] -= 1
        return total

    return place(1)


def rs0_power_expansion(n: int, k: int) -> SymFunc:
    """Expansion of the k-th power of the width-zero Schur row adder on h_1^n:

        sum over 0 <= l <= n, s a composition of n - l into k parts of
            (-1)^{n-l} * multinomial(n; l, s) * h_1^l * det|h_{s_j - j + i}|,

    which, as multinomial(n; l, s) = C(n, l) * multinomial(n - l; s), is
    sum over l of (-1)^{n-l} C(n, l) h_1^l times the bounded-height Schur
    sum of degree n - l.  Must agree with rs_rows(0, k, h_1^n).
    """
    return SymFunc.sum(
        ((-1) ** (n - l) * math.comb(n, l), hn(1) ** l * bounded_height_schur_sum(n - l, k))
        for l in range(n + 1)
    )
