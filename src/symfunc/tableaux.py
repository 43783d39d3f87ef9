"""Standard Young tableaux counting and bounded-height pair enumeration.

The headline quantity is

    pairs(n, k) = sum of f_lam^2 over partitions lam of n with at most k rows,

the number of pairs of same-shape standard tableaux of height <= k.  Three
independent routes compute it:

  closed  a composition-indexed multinomial/Vandermonde formula,
  det     n! times the x^n coefficient of theta(bounded-height Schur sum),
          its nonvanishing determinants summed over h and converted to p
          once,
  brute   literal enumeration: square the hook-length count per shape.

The bounded-height Schur generating function itself also has two routes
(direct composition-indexed determinant sum, or the Schur column adder at
width zero), which the test suite plays against each other.  The
brute-force tableau count and the expansion of the width-zero Schur row
adder's powers, second routes that only checks run, live in ``oracles``.

At module level this module loads only ``partitions`` and the names table,
so ``closed`` and ``brute`` counts run without the ring.  The routes that
need the ring import it when called, and only the operator route loads the
vertex operators.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

from .names import PAIR_METHODS
from .partitions import (
    Composition,
    Partition,
    compositions_of,
    conjugate,
    need_int,
    partitions_of,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .ring import SymFunc


def syt_count(lam: Partition) -> int:
    """Number of standard tableaux of shape ``lam``, by hook lengths."""
    lam = Partition(lam)
    n = sum(lam)
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row + conj[j] - i - j - 1
    count, rem = divmod(math.factorial(n), hooks)
    if rem:
        raise ArithmeticError(f"hook product does not divide {n}! for shape {lam}")
    return count


def theta(g: SymFunc) -> dict[int, Fraction]:
    """The exponential specialization: the algebra map with h_n -> x^n / n!,
    as a polynomial {exponent: coefficient} with no zero coefficients.

    In power-sum coordinates it keeps exactly the all-ones indices, sending
    p_{1^m} to x^m and every other power-sum monomial to zero; a Schur
    function s_lam maps to f_lam x^{|lam|} / |lam|!.  Each exponent m has
    the single all-ones index 1^m, so nothing accumulates.
    """
    from .ring import _need_symfunc

    _need_symfunc(g)
    return {len(lam): c for lam, c in g.items() if all(part == 1 for part in lam)}


def _multinomial(n: int, parts: Composition) -> int:
    out = math.factorial(n)
    for s in parts:
        out //= math.factorial(s)
    return out


def bounded_height_schur_sum(n: int, k: int, method: str = "formula") -> SymFunc:
    """sum of f_lam * s_lam over partitions lam of n with l(lam) <= k.

    method="formula": the composition-indexed determinant sum
        sum over s in compositions of n into k parts of
            multinomial(n; s) * det|h_{s_j - j + i}|;
    method="operator": apply the width-zero Schur column adder to h_1^n.
    """
    need_int(n, 0, "n")
    need_int(k, 1, "k")
    if method == "operator":
        from .ring import hn
        from .vertex import cs_column

        return cs_column(0, k, hn(1) ** n)
    if method != "formula":
        raise ValueError("method must be 'formula' or 'operator'")
    from .ring import _from_h, _jacobi_trudi_h

    terms: dict[Partition, int] = {}
    for s in compositions_of(n, k):
        if len({p - j for j, p in enumerate(s)}) < k:
            continue  # two equal shifted parts s_j - j: two equal columns, det 0
        weight = _multinomial(n, s)
        for nu, c in _jacobi_trudi_h(s).items():
            terms[nu] = terms.get(nu, 0) + weight * c
    return _from_h(terms)


def bounded_height_pairs(n: int, k: int, method: str = PAIR_METHODS[0]) -> int:
    """Number of pairs of same-shape standard tableaux with at most k rows,
    by ``method``, closed (``PAIR_METHODS[0]``, the one default) unless named.

    closed: sum over compositions s of n into k parts of
        multinomial(n; s) * prod_{i<j} (s_j + j - (s_i + i))
                          / prod_i (s_i + i - 1)!  * n!,
            summed as integer numerators by ``_closed_total``, which returns
            the total of each prefix's subtree in place of listing its
            compositions, with one exact division at the end.
    det:    n! times the x^n coefficient of theta(bounded_height_schur_sum).
    brute:  sum the squared hook-length counts directly.
    """
    need_int(n, 0, "n")
    need_int(k, 1, "k")
    # a shape of n boxes has at most n rows, so heights past n count alike
    k = min(k, max(n, 1))
    if method == "brute":
        return sum(syt_count(lam) ** 2 for lam in partitions_of(n, max_length=k))
    if method == "det":
        poly = theta(bounded_height_schur_sum(n, k, method="formula"))
        value = poly.get(n, 0) * math.factorial(n)
        if value.denominator != 1:
            raise ArithmeticError("pair count came out non-integral")
        return int(value)
    if method != "closed":
        raise ValueError(f"method must be one of {', '.join(map(repr, PAIR_METHODS))}")
    total = _closed_total(n, k)
    count, rem = divmod(total * math.factorial(n), math.factorial(n + k * (k - 1) // 2))
    if rem:
        raise ArithmeticError("pair count came out non-integral")
    return count


def closed_form_terms(n: int, k: int) -> Iterator[tuple[Composition, Fraction]]:
    """(s, n!/N! * multinomial(n; s) * multinomial(N; u) * prod_{i<j} (u_j - u_i))
    for each composition s of n into k parts, in ``compositions_of`` order,
    zeros included, where u_i = s_i + i and N = n + k(k-1)/2: the terms of
    the sum that ``bounded_height_pairs`` computes, at the height it clamps k to.
    """
    need_int(n, 0, "n")
    need_int(k, 1, "k")
    from fractions import Fraction
    from itertools import combinations

    k = min(k, max(n, 1))
    big = n + k * (k - 1) // 2
    scale = Fraction(math.factorial(n), math.factorial(big))

    def term(s: Composition) -> Fraction:
        u = [part + i for i, part in enumerate(s)]
        vandermonde = math.prod(uj - ui for ui, uj in combinations(u, 2))
        return scale * (_multinomial(n, s) * _multinomial(big, u) * vandermonde)

    return ((s, term(s)) for s in compositions_of(n, k))


def _closed_total(n: int, k: int) -> int:
    """The sum over compositions s of n into k parts of
    multinomial(n; s) * multinomial(N; u) * prod_{i<j} (u_j - u_i), with
    u_i = s_i + i and N = n + k(k-1)/2: the numerators of
    ``closed_form_terms(n, k)``, without their common factor n!/N!.

    Both multinomials are products over the parts of binomials of prefix
    sums, so choosing s_j after a prefix with sums S and U multiplies the
    prefix weight by row(j, S)[s_j] = C(S + s_j, s_j) * C(U + u_j, u_j), and
    the last part, whose prefix sums are n and N, by last[s_l].  Each level
    returns the integer total of a prefix's subtree, which the level above
    multiplies by the prefix's own binomial and Vandermonde factors, so a
    factor shared by a subtree is applied once and a zero factor prunes it.
    The last level is one loop over the second-to-last part: its leaf
    multiplies the Vandermonde factors
    (u_l - u_j) * prod_i (u_j - u_i)(u_l - u_i) as small integers first, and
    the two big binomial rows come in with two multiplications.
    """
    if k == 1:
        return 1
    big = n + k * (k - 1) // 2
    last = [math.comb(n, s) * math.comb(big, s + k - 1) for s in range(n + 1)]
    # a row of level j >= 2 serves every prefix with the same sum, so it is
    # kept; a level-1 row serves exactly one prefix
    rows: dict[tuple[int, int], list[int]] = {}

    def row(j: int, S: int) -> list[int]:
        """C(S + s, s) * C(U + u, u) for s = 0 .. n - S, where u = s + j and
        U = S + j(j-1)/2 are the shifted part and prefix sum."""
        out = rows.get((j, S))
        if out is None:
            U = S + j * (j - 1) // 2
            a, b = 1, math.comb(U + j, j)
            out = [b]
            for s in range(1, n - S + 1):
                a = a * (S + s) // s
                b = b * (U + j + s) // (j + s)
                out.append(a * b)
            if j > 1:
                rows[j, S] = out
        return out

    def subtree(j: int, rest: int, u: tuple) -> int:
        binom = row(j, n - rest)
        total = 0
        if j < k - 2:
            for sj in range(rest + 1):
                uj = sj + j
                v = binom[sj]
                for ui in u:
                    v *= uj - ui
                if v:
                    total += v * subtree(j + 1, rest - sj, u + (uj,))
            return total
        for sj in range(rest + 1):
            uj = sj + j
            ul = rest - sj + k - 1  # the last part takes what is left
            v = ul - uj
            for ui in u:
                v *= (uj - ui) * (ul - ui)
            if v:
                total += binom[sj] * last[rest - sj] * v
        return total

    return subtree(0, n, ())


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1)."""
    need_int(n, 0, "n")
    return math.comb(2 * n, n) // (n + 1)
