"""Independent ground truth: explicit polynomials in finitely many variables.

Each basis element is realized directly from its combinatorial definition,
from exponent vectors alone, with no use of the ring's transition
machinery: m_lam is the orbit sum of x^lam, and p and e are products of
the orbit sums p_n = m_(n) and e_n = m_(1^n); h sums every multiset of
variables, and s every semistandard tableau.  Realizing a SymFunc goes the
other way, through its power-sum coordinates.  Comparing the two catches conversion
bugs: the projection onto v variables is injective on symmetric functions
of degree <= v, so equality at v >= degree is conclusive.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import Mapping, Optional

from .partitions import Partition
from .ring import BASES, SymFunc, basis_element

Monomial = tuple[int, ...]


class MultiPoly:
    """A sparse polynomial in ``nvars`` variables over the rationals.

    Integral coefficients are kept as ``int``, so products of integral
    polynomials run on integers; an ``int`` equals and hashes like the
    ``Fraction`` of the same value, so equality stays exact."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction | int] | None = None):
        self.nvars = nvars
        clean: dict[Monomial, Fraction | int] = {}
        if terms:
            for mono, c in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"exponent vector {mono} has wrong arity")
                c = Fraction(c)
                if c:
                    clean[tuple(mono)] = c.numerator if c.denominator == 1 else c
        self._terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: 1})

    def items(self):
        return iter(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[Monomial, Fraction | int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(m1, m2))
                out[key] = out.get(key, 0) + c1 * c2
        return self._raw(self.nvars, out)

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Monomial, Fraction | int]) -> "MultiPoly":
        """Wrap clean coefficients, dropping the zeros a sum left behind."""
        if 0 in terms.values():
            terms = {mono: c for mono, c in terms.items() if c}
        self = object.__new__(cls)
        self.nvars = nvars
        self._terms = terms
        return self

    def swap_vars(self, i: int, j: int) -> "MultiPoly":
        out: dict[Monomial, Fraction] = {}
        for mono, c in self._terms.items():
            m = list(mono)
            m[i], m[j] = m[j], m[i]
            out[tuple(m)] = c
        return self._raw(self.nvars, out)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self._terms == other._terms
        return NotImplemented

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for mono, c in sorted(self._terms.items(), reverse=True):
            vars_txt = "*".join(
                f"x{i+1}" if e == 1 else f"x{i+1}^{e}" for i, e in enumerate(mono) if e
            )
            bits.append(f"{c}*{vars_txt}" if vars_txt else str(c))
        return " + ".join(bits)


def _homogeneous(n: int, v: int) -> MultiPoly:
    # one monomial per multiset of n variables, each with coefficient 1
    multisets = combinations_with_replacement(range(v), n)
    return MultiPoly(v, {tuple(ms.count(i) for i in range(v)): 1 for ms in multisets})


def _monomial_orbit(lam: Partition, v: int) -> MultiPoly:
    if not lam:
        return MultiPoly.one(v)
    if len(lam) > v:
        return MultiPoly.zero(v)
    padded = tuple(lam) + (0,) * (v - len(lam))
    return MultiPoly(v, dict.fromkeys(set(permutations(padded)), 1))


def _schur_ssyt(lam: Partition, v: int) -> MultiPoly:
    """Sum of x^{weight(T)} over semistandard tableaux of shape lam with
    entries in 1..v: rows weakly increase, columns strictly increase."""
    if not lam:
        return MultiPoly.one(v)
    if len(lam) > v:
        return MultiPoly.zero(v)
    rows = len(lam)
    tab = [[0] * lam[i] for i in range(rows)]
    cells = [(i, j) for i in range(rows) for j in range(lam[i])]
    terms: dict[Monomial, int] = {}

    def fill(idx: int) -> None:
        if idx == len(cells):
            mono = [0] * v
            for i, j in cells:
                mono[tab[i][j] - 1] += 1
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + 1
        else:
            i, j = cells[idx]
            lo = 1
            if j > 0:
                lo = max(lo, tab[i][j - 1])
            if i > 0:
                lo = max(lo, tab[i - 1][j] + 1)
            for entry in range(lo, v + 1):
                tab[i][j] = entry
                fill(idx + 1)
            tab[i][j] = 0

    fill(0)
    return MultiPoly(v, terms)


@lru_cache(maxsize=None)
def _realize_p(lam: Partition, v: int) -> MultiPoly:
    out = MultiPoly.one(v)
    for part in lam:
        out = out * _monomial_orbit(Partition((part,)), v)  # p_n = m_(n)
    return out


def realize(b: str, lam: Partition, v: int) -> MultiPoly:
    """Realize the basis element b_lam as a polynomial in ``v`` variables.

    For m and s with l(lam) > v the realization is 0 (too few variables).
    The forgotten basis has no direct combinatorial expansion here, so it is
    realized through its power-sum coordinates.
    """
    lam = Partition(lam)
    if b == "p":
        return _realize_p(lam, v)
    if b == "m":
        return _monomial_orbit(lam, v)
    if b == "s":
        return _schur_ssyt(lam, v)
    if b in ("e", "h"):
        out = MultiPoly.one(v)
        for part in lam:
            if b == "e":  # e_n = m_(1^n)
                out = out * _monomial_orbit(Partition((1,) * part), v)
            else:
                out = out * _homogeneous(part, v)
        return out
    if b == "f":
        return realize_symfunc(basis_element("f", lam), v)
    raise ValueError(f"unknown basis {b!r}; expected one of {BASES}")


def realize_symfunc(g: SymFunc, v: int) -> MultiPoly:
    """Realize through power-sum coordinates: each p_lam becomes a product
    of power sums in ``v`` variables.  The sums run over g's integer
    numerators, divided by its one denominator per monomial at the end."""
    out: dict[Monomial, int] = {}
    for lam, c in g._terms.items():
        for mono, x in _realize_p(lam, v).items():
            out[mono] = out.get(mono, 0) + x * c
    return MultiPoly(v, {mono: Fraction(c, g._den) for mono, c in out.items()})


def first_mismatch(
    b: str, lam: Partition, v: int
) -> Optional[tuple[Monomial, Fraction, Fraction]]:
    """None when the direct realization matches the converted one, else the
    lexicographically first differing monomial with both coefficients."""
    direct = realize(b, lam, v)
    converted = realize_symfunc(basis_element(b, lam), v)
    if direct == converted:
        return None
    monos = set(direct._terms) | set(converted._terms)
    mono = min(
        m for m in monos if direct.coefficient(m) != converted.coefficient(m)
    )
    return mono, direct.coefficient(mono), converted.coefficient(mono)


def check_conversion(b: str, lam: Partition, v: int) -> bool:
    """True iff the direct realization of b_lam equals the realization of its
    power-sum conversion.  Conclusive when v >= |lam|."""
    return first_mismatch(b, Partition(lam), v) is None
