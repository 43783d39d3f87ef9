"""Independent ground truth: explicit polynomials in finitely many variables.

A polynomial in v variables is a plain dict {exponent vector of length v:
nonzero coefficient}, new on every call and owned by the caller.  Integral
coefficients are ``int``, the rest ``Fraction``; the two compare and hash
alike, so comparing dicts stays exact.

Each basis element is realized directly from its combinatorial definition,
from exponent vectors alone, with no use of the ring's transition
machinery: m_lam is the orbit sum of x^lam, and p and e are products of
the orbit sums p_n = m_(n) and e_n = m_(1^n); h sums every multiset of
variables, and s every semistandard tableau; f counts, up to the sign
(-1)^{|lam| - l(lam)}, the rearrangements of lam's parts that refine each
monomial's index (Doubilet 1972).  Realizing a SymFunc goes the other way,
through its power-sum coordinates.  Comparing the two catches conversion
bugs: the projection onto v variables is injective on symmetric functions
of degree <= v, so equality at v >= degree is conclusive.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, permutations
from typing import Iterable, Optional

from .partitions import Partition, partitions_of
from .ring import BASES, SymFunc, basis_element

Monomial = tuple[int, ...]
Poly = dict  # {Monomial: nonzero int or Fraction}


def mul(f: Poly, g: Poly) -> Poly:
    """The product of two polynomials, without the terms that cancel."""
    out: Poly = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def _product(factors: Iterable[Poly], v: int) -> Poly:
    out: Poly = {(0,) * v: 1}
    for f in factors:
        out = mul(out, f)
    return out


def _homogeneous(n: int, v: int) -> Poly:
    # one monomial per multiset of n variables, each with coefficient 1
    multisets = combinations_with_replacement(range(v), n)
    return {tuple(ms.count(i) for i in range(v)): 1 for ms in multisets}


def _monomial_orbit(lam: Partition, v: int) -> Poly:
    if len(lam) > v:
        return {}
    padded = tuple(lam) + (0,) * (v - len(lam))
    return dict.fromkeys(set(permutations(padded)), 1)


def _schur_ssyt(lam: Partition, v: int) -> Poly:
    """Sum of x^{weight(T)} over semistandard tableaux of shape lam with
    entries in 1..v: rows weakly increase, columns strictly increase."""
    if len(lam) > v:
        return {}
    tab = [[0] * part for part in lam]
    cells = [(i, j) for i, part in enumerate(lam) for j in range(part)]
    terms: Poly = {}

    def fill(idx: int) -> None:
        if idx == len(cells):
            mono = [0] * v
            for i, j in cells:
                mono[tab[i][j] - 1] += 1
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + 1
        else:
            i, j = cells[idx]
            lo = max(tab[i][j - 1] if j else 1, tab[i - 1][j] + 1 if i else 1)
            for entry in range(lo, v + 1):
                tab[i][j] = entry
                fill(idx + 1)
            tab[i][j] = 0

    fill(0)
    return terms


def _forgotten(lam: Partition, v: int) -> Poly:
    """f_lam = eps_lam * sum over nu |- |lam| of a_{lam,nu} m_nu, with
    eps_lam = (-1)^{|lam| - l(lam)} (Doubilet 1972; Stanley, EC2 Ex. 7.9).

    a_{lam,nu} counts the distinct rearrangements of lam's parts whose
    prefix sums include nu_1, nu_1 + nu_2, ...; the orbits of distinct nu
    are disjoint, so each monomial takes one count."""
    n = sum(lam)
    sign = -1 if (n - len(lam)) % 2 else 1
    cuts = [set(accumulate(alpha)) for alpha in set(permutations(lam))]
    out: Poly = {}
    for nu in partitions_of(n, max_length=v):
        marks = set(accumulate(nu))
        if count := sum(marks <= cut for cut in cuts):
            out.update(dict.fromkeys(_monomial_orbit(nu, v), sign * count))
    return out


@lru_cache(maxsize=None)
def _realize_p(lam: Partition, v: int) -> Poly:
    """Memoized, so never handed out: callers read it or copy it."""
    return _product((_monomial_orbit((part,), v) for part in lam), v)  # p_n = m_(n)


def realize(b: str, lam: Partition, v: int) -> Poly:
    """Realize the basis element b_lam as a polynomial in ``v`` variables.

    For m and s with l(lam) > v the realization is 0 (too few variables).
    """
    lam = Partition(lam)
    if b == "p":
        return dict(_realize_p(lam, v))
    if b == "m":
        return _monomial_orbit(lam, v)
    if b == "s":
        return _schur_ssyt(lam, v)
    if b == "e":  # e_n = m_(1^n)
        return _product((_monomial_orbit((1,) * part, v) for part in lam), v)
    if b == "h":
        return _product((_homogeneous(part, v) for part in lam), v)
    if b == "f":
        return _forgotten(lam, v)
    raise ValueError(f"unknown basis {b!r}; expected one of {BASES}")


def realize_symfunc(g: SymFunc, v: int) -> Poly:
    """Realize through power-sum coordinates: each p_lam becomes a product
    of power sums in ``v`` variables.  The sums run over g's integer
    numerators, divided by its one denominator per monomial at the end,
    into an ``int`` where the division is exact."""
    out: Poly = {}
    for lam, c in g._terms.items():
        for mono, x in _realize_p(lam, v).items():
            out[mono] = out.get(mono, 0) + x * c
    den = g._den
    return {mono: c // den if c % den == 0 else Fraction(c, den) for mono, c in out.items() if c}


def first_mismatch(
    b: str, lam: Partition, v: int
) -> Optional[tuple[Monomial, Fraction | int, Fraction | int]]:
    """None when the direct realization matches the converted one, else the
    lexicographically first differing monomial with both coefficients."""
    direct = realize(b, lam, v)
    converted = realize_symfunc(basis_element(b, lam), v)
    if direct == converted:
        return None
    mono = min(
        m for m in direct.keys() | converted.keys()
        if direct.get(m, 0) != converted.get(m, 0)
    )
    return mono, direct.get(mono, 0), converted.get(mono, 0)


def check_conversion(b: str, lam: Partition, v: int) -> bool:
    """True iff the direct realization of b_lam equals the realization of its
    power-sum conversion.  Conclusive when v >= |lam|."""
    return first_mismatch(b, Partition(lam), v) is None
