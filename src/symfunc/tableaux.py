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
width zero), which the test suite plays against each other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator

from .partitions import (
    Composition,
    Partition,
    compositions_of,
    conjugate,
    need_int,
    partitions_of,
)
from .ring import SymFunc, _from_h, _jacobi_trudi_h, _need_symfunc, hn
from .vertex import cs_column

PAIR_METHODS = ("closed", "det", "brute")


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


def theta(g: SymFunc) -> dict[int, Fraction]:
    """The exponential specialization: the algebra map with h_n -> x^n / n!,
    as a polynomial {exponent: coefficient} with no zero coefficients.

    In power-sum coordinates it keeps exactly the all-ones indices, sending
    p_{1^m} to x^m and every other power-sum monomial to zero; a Schur
    function s_lam maps to f_lam x^{|lam|} / |lam|!.  Each exponent m has
    the single all-ones index 1^m, so nothing accumulates.
    """
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
        return cs_column(0, k, hn(1) ** n)
    if method != "formula":
        raise ValueError("method must be 'formula' or 'operator'")
    terms: dict[Partition, int] = {}
    for s in compositions_of(n, k):
        if len({p - j for j, p in enumerate(s)}) < k:
            continue  # two equal shifted parts s_j - j: two equal columns, det 0
        weight = _multinomial(n, s)
        for nu, c in _jacobi_trudi_h(s).items():
            terms[nu] = terms.get(nu, 0) + weight * c
    return _from_h(terms)


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
        value = poly.get(n, Fraction(0)) * math.factorial(n)
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
    """Per-composition contributions of the closed-form pair count."""
    need_int(n, 0, "n")
    need_int(k, 1, "k")
    scale = Fraction(math.factorial(n), math.factorial(n + k * (k - 1) // 2))
    return ((s, scale * w) for s, w in _closed_numerators(n, k))


def _closed_tables(n: int, k: int) -> tuple[list[int], Callable[[int, int], list[int]]]:
    """The binomial tables of the closed-form numerators, for k >= 2: the
    row ``last`` of the last part, whose prefix sums are n and N, and
    ``row(j, S)``, the row of part j >= 0 after a prefix summing to S.

    Here u_i = s_i + i and N = n + k(k-1)/2.  Both multinomials of the
    closed form are products over the parts of binomials of prefix sums, so
    choosing s_j after a prefix with sums S and U multiplies the prefix
    weight by row(j, S)[s_j] = C(S + s_j, s_j) * C(U + u_j, u_j).
    """
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

    return last, row


def _closed_total(n: int, k: int) -> int:
    """The sum of the closed-form numerators of ``_closed_numerators(n, k)``.

    Each level returns the integer total of a prefix's subtree, which the
    level above multiplies by the prefix's own binomial and Vandermonde
    factors, so a factor shared by a subtree is applied once and a zero
    factor prunes it.  The last level is one loop over the second-to-last
    part: its leaf multiplies the Vandermonde factors
    (u_l - u_j) * prod_i (u_j - u_i)(u_l - u_i) as small integers first, and
    the two big binomial rows come in with two multiplications.
    """
    if k == 1:
        return 1
    last, row = _closed_tables(n, k)

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


def _closed_numerators(n: int, k: int) -> Iterator[tuple[Composition, int]]:
    """(s, multinomial(n; s) * multinomial(N; u) * V(u)) for each composition
    s of n into k parts, in ``compositions_of`` order, zeros included: the
    per-composition listing behind ``closed_form_terms``.

    Here u_i = s_i + i, N = n + k(k-1)/2 and V(u) = prod_{i<j} (u_j - u_i).
    Since n! / prod_i u_i! = (n!/N!) * multinomial(N; u), the closed-form term
    of s is n!/N! times its value.  Each prefix weight, a product of the
    ``_closed_tables`` rows and the Vandermonde factors so far, is shared by
    its whole subtree; the count sums the same values by ``_closed_total``.
    """
    if k == 1:
        yield (n,), 1
        return
    last, row = _closed_tables(n, k)

    def extend(j: int, rest: int, weight: int, s: tuple, u: tuple) -> Iterator:
        binom = row(j, n - rest)
        for sj in range(rest, -1, -1):
            uj = sj + j
            w = weight * binom[sj]
            for ui in u:
                w *= uj - ui
            if j < k - 2:
                yield from extend(j + 1, rest - sj, w, s + (sj,), u + (uj,))
                continue
            # the last part takes what is left
            sl = rest - sj
            ul = sl + k - 1
            w *= last[sl] * (ul - uj)
            for ui in u:
                w *= ul - ui
            yield s + (sj, sl), w

    yield from extend(0, n, 1, (), ())


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1)."""
    need_int(n, 0, "n")
    return math.comb(2 * n, n) // (n + 1)
