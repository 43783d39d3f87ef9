"""The graded ring of symmetric functions over the rationals.

Every symmetric function is stored in power-sum coordinates, as integer
numerators over one shared denominator: a SymFunc is a finite map
{partition -> nonzero int} with a denominator D >= 1, representing
sum (c_lam / D) * p_lam, always reduced so that D and the numerators have
no common factor; that form is canonical.  Every linear combination, from
a + b to a parsed expression, is one SymFunc.sum of (coefficient,
function) pairs: one pass into one dict over one lcm of the denominators,
whose zeros SymFunc._reduced drops once.  In these
coordinates the product is a multiset union of indices, the Hall inner
product is diagonal (<p_lam, p_mu> = z_lam * delta), the involution omega is
a sign flip, and skewing by p_lam deletes the parts of lam from each index
mu, scaled by the integer z_mu / z_{mu - lam}, so every operation runs on
integers and is exact.  Coefficients leave the ring as Fractions.

Six classical bases are supported, named by single letters:

  p  power sums            h  complete homogeneous   e  elementary
  s  Schur                 m  monomial               f  forgotten

h is multiplicative, with h_n = sum_{mu |- n} p_mu / z_mu; e = omega h and
f = omega m.  z_mu divides n! for mu |- n (n!/z_mu is the size of a class of
S_n), so h_n and s_lam have integer numerators over n!, read from one memo
of class rows (mu, beta code, n!/z_mu) per degree: for s_lam the character
chi^lam(mu), by the Murnaghan-Nakayama rule over one bounded memo of
sub-states, keyed by two beta codes, that all shapes share.  m_lam has
integer numerators over prod_i m_i(lam)!: Doubilet's Moebius sum over the
set partitions of lam's labelled parts, memoized per sub-multiset, so it
reads only the coarsenings of lam and no other partition of its degree.
The Jacobi-Trudi determinant, expanded over the commuting h's and
converted to p once, is a second route to s.  One memo, keyed by basis and
partition, holds every conversion.  Skew reads, for each target index mu,
a cached table of the sub-multisets of mu with their remainders and z
ratios, and the product reads the merged index of each pair of indices from
a memo.  A vertex operator's signed sum of products and skews,
sum c_lam f_lam * b_lam^perp g, is one kernel, _perp_sum: it reads those
tables once into the coproduct table of g, rho -> [(mu - rho,
g_mu z_mu / z_{mu - rho})], skews every b_lam against its rows, and adds
every product into one accumulator over one lcm, reduced once.  SymFunc
values are immutable once built and all functions are pure; concurrent
readers are safe and refills are idempotent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .names import BASES
from .partitions import (
    EMPTY,
    Partition,
    _wrap,
    insert_parts,
    need_int,
    partitions_of,
    z_value,
)

ScalarLike = Union[Fraction, int]

# Dual basis of each basis under the Hall inner product (p's dual, p/z_lam,
# is read off by expand directly).
DUAL_BASIS = {"m": "h", "h": "m", "e": "f", "f": "e", "s": "s"}

_IntDict = dict  # {Partition: int}, zeros only until SymFunc._reduced drops them


def _omega_sign(lam: tuple[int, ...]) -> int:
    return -1 if (sum(lam) - len(lam)) % 2 else 1


@lru_cache(maxsize=None)
def _merged(lam: Partition, mu: Partition) -> Partition:
    """The index of p_lam * p_mu, memoized: products meet the same pairs of
    indices again and again."""
    return insert_parts(lam, mu)


def _dict_mul(a: Mapping, b: Mapping) -> _IntDict:
    out: _IntDict = {}
    for lam, ca in a.items():
        for mu, cb in b.items():
            key = _merged(lam, mu)
            out[key] = out.get(key, 0) + ca * cb
    return out


class SymFunc:
    """A symmetric function in power-sum coordinates.  Immutable by contract."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Partition, ScalarLike] | None = None):
        g = SymFunc.sum((c, _basis_p("p", Partition(lam))) for lam, c in (terms or {}).items())
        self._terms, self._den = g._terms, g._den

    @classmethod
    def _raw(cls, terms: _IntDict, den: int = 1) -> "SymFunc":
        """Wrap numerators over ``den`` that are already in lowest terms."""
        self = object.__new__(cls)
        self._terms = terms
        self._den = den
        return self

    @classmethod
    def _reduced(cls, terms: _IntDict, den: int) -> "SymFunc":
        """Numerators over ``den`` > 0, zeros dropped, in lowest terms."""
        if 0 in terms.values():
            terms = {lam: c for lam, c in terms.items() if c}
        if den != 1:
            common = gcd(den, *terms.values())  # den itself when there are no terms
            if common != 1:
                terms = {lam: c // common for lam, c in terms.items()}
                den //= common
        return cls._raw(terms, den)

    @classmethod
    def zero(cls) -> "SymFunc":
        return cls._raw({})

    @classmethod
    def one(cls) -> "SymFunc":
        return cls._raw({EMPTY: 1})

    @classmethod
    def sum(cls, pairs: Iterable[tuple[ScalarLike, "SymFunc"]]) -> "SymFunc":
        """The linear combination of ``pairs`` (c, g), for int or Fraction c (any
        other c, a bool or 0.0 too, is a TypeError) and SymFunc g (any other g is
        a TypeError), in one pass into one dict over the lcm of every
        c.denominator * g._den.  Zero terms are then skipped, a lone g with c = 1
        comes back whole, and no input's dict is written."""
        live = []
        for c, g in pairs:
            if type(c) not in (int, Fraction):
                raise TypeError(f"coefficients are int or Fraction, not {type(c).__name__}")
            if not isinstance(g, SymFunc):
                _need_symfunc(g)  # raises; the inline test spares a call per pair
            if c and g._terms:
                live.append((c, g))
        if not live:
            return cls.zero()
        if len(live) == 1 and live[0][0] == 1:
            return live[0][1]
        den = lcm(*(c.denominator * g._den for c, g in live))
        out: _IntDict = {}
        for c, g in live:
            scale = c.numerator * (den // (c.denominator * g._den))
            if not out:  # the first term: a copy, so no input's dict is written
                out = dict(g._terms) if scale == 1 else {lam: v * scale for lam, v in g._terms.items()}
            elif scale == 1:
                for lam, v in g._terms.items():
                    out[lam] = out.get(lam, 0) + v
            else:
                for lam, v in g._terms.items():
                    out[lam] = out.get(lam, 0) + v * scale
        return cls._reduced(out, den)

    def items(self) -> Iterator[tuple[Partition, Fraction]]:
        den = self._den
        return ((lam, Fraction(c, den)) for lam, c in self._terms.items())

    def coefficient(self, lam: Iterable[int]) -> Fraction:
        return Fraction(self._terms.get(Partition(lam), 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Top degree present (0 for the zero function)."""
        return max((sum(lam) for lam in self._terms), default=0)

    def degrees(self) -> set[int]:
        return {sum(lam) for lam in self._terms}

    def homogeneous_part(self, d: int) -> "SymFunc":
        part = {lam: c for lam, c in self._terms.items() if sum(lam) == d}
        return SymFunc._reduced(part, self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get(EMPTY, 0), self._den)

    def __add__(self, other: "SymFunc") -> "SymFunc":
        return SymFunc.sum(((1, self), (1, other)))

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return SymFunc.sum(((1, self), (-1, other)))

    def __neg__(self) -> "SymFunc":
        return SymFunc._raw({lam: -c for lam, c in self._terms.items()}, self._den)

    def __mul__(self, other: Union["SymFunc", ScalarLike]) -> "SymFunc":
        if isinstance(other, SymFunc):
            return _product(self, other)
        return SymFunc.sum(((other, self),))  # which refuses any other scalar

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SymFunc":
        need_int(n, 0, "exponent")
        if len(self._terms) == 1:
            # c * p_lam over d, to the n, is c^n * p_lam^n over d^n, still in
            # lowest terms: n products would add n ever longer indices to _merged
            ((lam, c),) = self._terms.items()
            return SymFunc._raw({Partition(sorted(lam * n, reverse=True)): c**n}, self._den**n)
        out = SymFunc.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SymFunc):
            return self._den == other._den and self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((frozenset(self._terms.items()), self._den))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return expand(self, "p").to_text() if self._terms else "0"


def _need_symfunc(*operands: object) -> None:
    """The one check of a SymFunc operand: a TypeError for anything else."""
    for g in operands:
        if not isinstance(g, SymFunc):
            raise TypeError(f"operands are SymFunc, not {type(g).__name__}")


def _product(a: SymFunc, b: SymFunc) -> SymFunc:
    return SymFunc._reduced(_dict_mul(a._terms, b._terms), a._den * b._den)


class BasisExpansion(NamedTuple):
    """A symmetric function written in one named basis."""

    basis: str
    terms: Mapping[Partition, Fraction]

    def sorted_terms(self) -> list[tuple[Partition, Fraction]]:
        """The terms in display order: by degree, then lexicographically by
        parts."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def to_symfunc(self) -> SymFunc:
        return SymFunc.sum((c, basis_element(self.basis, lam)) for lam, c in self.terms.items())

    def to_text(self) -> str:
        """Render in the expression grammar, e.g. ``3/2*s[2,1] - p[3]``."""
        basis = self.basis
        out = []
        for lam, c in self.sorted_terms():
            num, den = c.numerator, c.denominator
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if not lam:
                body = mag
            else:
                atom = f"{basis}[{','.join(map(str, lam))}]"
                body = atom if mag == "1" else f"{mag}*{atom}"
            if out:
                out.append(f" + {body}" if num > 0 else f" - {body}")
            else:
                out.append(body if num > 0 else f"-{body}")
        return "".join(out) if out else "0"

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"partition": list(lam), "coeff": str(c)} for lam, c in self.sorted_terms()
            ],
        }


# ---------------------------------------------------------------------------
# Basis conversions into power-sum coordinates (cached & shared).
# ---------------------------------------------------------------------------


def jacobi_trudi(seq: Iterable[int]) -> SymFunc:
    """The determinant det|h_{seq_j - j + i}| for 1 <= i, j <= len(seq) as a
    symmetric function, expanded over the commuting h's and converted to
    power sums once.  On a partition this is the Schur function; an arbitrary
    integer sequence straightens to a signed Schur function or vanishes."""
    return _from_h(_jacobi_trudi_h(tuple(seq)))


def _jacobi_trudi_h(seq: tuple[int, ...]) -> _IntDict:
    """The determinant in h-coordinates {nu: c}, zeros kept, by Laplace
    expansion along the last used row with memoization over column subsets:
    the h's commute, so a minor times h_idx inserts idx into each index nu."""
    size = len(seq)
    dets: dict[int, _IntDict] = {0: {EMPTY: 1}}
    for mask in range(1, 1 << size):  # each sub-mask is smaller, so filled first
        rows = mask.bit_count()
        out: _IntDict = {}
        sign = (-1) ** rows  # (-1)^(rows + rank) once each used column flips it
        for j in range(size):
            if not (mask >> j) & 1:
                continue
            sign = -sign
            idx = seq[j] - (j + 1) + rows
            if idx < 0 or not (sub := dets[mask ^ (1 << j)]):
                continue
            row = _wrap((idx,))
            for nu, c in sub.items():
                key = _merged(row, nu) if idx else nu
                out[key] = out.get(key, 0) + sign * c
        dets[mask] = out
    return dets[(1 << size) - 1]


def _from_h(terms: Mapping[Partition, int]) -> SymFunc:
    """sum c h_nu for integer h-coordinates {nu: c}, in power sums."""
    return SymFunc.sum((c, _basis_p("h", nu)) for nu, c in terms.items())


def _beta_code(mu: tuple[int, ...]) -> int:
    """The beta-set of ``mu`` as a bitmask: bit mu_i + l - i for each row i.
    Its first part is bit_length - bit_count, and clearing its top bit
    leaves the code of mu without that part."""
    top = len(mu) - 1
    return sum(1 << (p + top - j) for j, p in enumerate(mu))


@lru_cache(maxsize=None)
def _degree_rows(n: int) -> tuple[tuple[Partition, int, int], ...]:
    """(mu, beta code of mu, n! // z_mu) for each mu |- n, in the order of
    partitions_of."""
    nf = factorial(n)
    return tuple((mu, _beta_code(mu), nf // z_value(mu)) for mu in partitions_of(n))


def _class_sum(n: int, coordinate) -> SymFunc:
    """sum over mu |- n of coordinate(code) p_mu / z_mu, for integer coordinates
    of mu's beta code, as numerators coordinate(code) * (n! / z_mu) over n!."""
    terms = {mu: c * size for mu, code, size in _degree_rows(n) if (c := coordinate(code))}
    return SymFunc._reduced(terms, factorial(n))


@lru_cache(maxsize=1 << 13)
def _chi(mask: int, rest: int) -> int:
    """chi^lam(mu) by the Murnaghan-Nakayama rule on beta-sets, for ``mask``
    and ``rest`` the beta codes of lam and of the parts of mu still to
    remove, largest first: bit b of ``mask`` marks a hook length
    lam_i + l - i, and a rim hook of size r moves a set bit b to a clear bit
    b - r, with sign (-1)^(bits jumped over).  A sub-state drops its
    trailing one bits (empty rows), so all shapes share it; the sign holds,
    as a hook lands on a clear bit above them."""
    if not rest:
        return 1
    top = rest.bit_length()
    r = top - rest.bit_count()
    rest ^= 1 << (top - 1)
    between = (1 << (r - 1)) - 1
    total = 0
    movable = (mask & ~(mask << r)) >> r << r
    while movable:
        low = movable & -movable
        movable ^= low
        moved = mask ^ low ^ (low >> r)
        sub = _chi(moved >> ((~moved & (moved + 1)).bit_length() - 1), rest)
        if sub:
            jumped = (mask >> (low.bit_length() - r)) & between
            total += -sub if jumped.bit_count() % 2 else sub
    return total


def _s_p(lam: Partition) -> SymFunc:
    """Schur function: <s_lam, p_mu> = chi^lam(mu).  Each top-level (lam, mu)
    skips the memo: it never recurs once s_lam is in _basis_p, and would
    evict the shared sub-states."""
    start = _beta_code(lam)
    return _class_sum(sum(lam), lambda code: _chi.__wrapped__(start, code))


@lru_cache(maxsize=None)
def _blocks(lam: Partition) -> dict:
    """sum over the set partitions pi of the labelled parts of lam of
    mu(0, pi) p_{block sums of pi}, an integer dict {nu: c}, where
    mu(0, pi) = prod_B (-1)^{|B|-1} (|B|-1)! (Doubilet).  The block holding
    the first part also holds a sub-multiset rho of the rest, chosen in
    prod_i C(m_i(rest), m_i(rho)) = (z_rest / z_{rest - rho}) / z_rho ways.
    Every pi with block sums nu has the sign (-1)^{l(lam) - l(nu)}, so no
    coefficient cancels to zero."""
    if not lam:
        return {EMPTY: 1}
    out: _IntDict = {}
    for rho, (nu, ratio) in _sub_table(_wrap(lam[1:])).items():
        size = len(rho)
        weight = (-1) ** size * factorial(size) * (ratio // z_value(rho))
        block = _wrap((lam[0] + sum(rho),))
        for kappa, c in _blocks(nu).items():
            key = _merged(block, kappa)
            out[key] = out.get(key, 0) + weight * c
    return out


def _m_p(lam: Partition) -> SymFunc:
    """Monomial symmetric function: prod_i m_i(lam)! m_lam is _blocks(lam)
    (Doubilet's Moebius inversion of p_lam = sum_pi of the augmented
    monomials of the block sums), and prod_i m_i(lam)! = z_lam / prod(lam)."""
    return SymFunc._reduced(dict(_blocks(lam)), z_value(lam) // prod(lam))


@lru_cache(maxsize=None)
def _basis_p(b: str, lam: Partition) -> SymFunc:
    """b_lam in power-sum coordinates: the one cached conversion, shared by
    every caller, so no caller may write into the value it returns.  Keys
    are exact Partitions, so the p index is the key itself."""
    if b == "p":
        return SymFunc._raw({lam: 1})
    if b == "h":
        if len(lam) > 1:
            return _product(_basis_p("h", _wrap(lam[:1])), _basis_p("h", _wrap(lam[1:])))
        # h_n = sum over mu |- n of p_mu / z_mu (h_0 = 1)
        return _class_sum(sum(lam), lambda code: 1)
    if b in ("e", "f"):
        return omega(_basis_p("h" if b == "e" else "m", lam))
    if b == "s":
        return _s_p(lam)
    if b == "m":
        return _m_p(lam)
    raise ValueError(f"unknown basis {b!r}; expected one of {BASES}")


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def basis_element(b: str, lam: Iterable[int]) -> SymFunc:
    """The basis element b_lam as a SymFunc (power-sum coordinates)."""
    return _basis_p(b, Partition(lam))


def inner_product(g1: SymFunc, g2: SymFunc) -> Fraction:
    """Hall inner product, diagonal in power-sum coordinates."""
    _need_symfunc(g1, g2)
    small, big = sorted((g1._terms, g2._terms), key=len)
    total = sum(c * big[lam] * z_value(lam) for lam, c in small.items() if lam in big)
    return Fraction(total, g1._den * g2._den)


def omega(g: SymFunc) -> SymFunc:
    """The involution: p_lam -> (-1)^{|lam| - l(lam)} p_lam.

    Consequently omega h = e, omega m = f and omega s_lam = s_{lam'}.
    """
    _need_symfunc(g)
    return SymFunc._raw({lam: c * _omega_sign(lam) for lam, c in g._terms.items()}, g._den)


@lru_cache(maxsize=None)
def _sub_table(mu: Partition) -> dict:
    """{rho: (mu - rho, z_mu // z_{mu - rho})} over every sub-multiset rho of
    the parts of mu, prod_i (m_i(mu) + 1) rows.  Taking j of the m parts
    equal to i contributes i^j * m! / (m - j)! to the ratio."""
    rows = [((), (), 1)]
    for i in sorted(set(mu), reverse=True):
        m = mu.count(i)
        grown = []
        for rho, nu, ratio in rows:
            for j in range(m + 1):
                grown.append((rho + (i,) * j, nu + (i,) * (m - j), ratio))
                ratio *= i * (m - j)
        rows = grown
    return {_wrap(rho): (_wrap(nu), ratio) for rho, nu, ratio in rows}


def skew(g: SymFunc, target: SymFunc) -> SymFunc:
    """Apply g^perp, the Hall-adjoint of multiplication by g, to ``target``:
    p_lam^perp p_mu = (z_mu / z_nu) p_nu with nu = mu minus the parts of lam,
    and 0 when mu lacks some part of lam.  Each target index mu reads its
    table of sub-multisets, walking g's terms or the table, whichever is
    shorter."""
    _need_symfunc(g, target)
    out: _IntDict = {}
    terms = g._terms
    for mu, d in target._terms.items():
        table = _sub_table(mu)
        if len(terms) <= len(table):
            for lam, c in terms.items():
                row = table.get(lam)
                if row is not None:
                    nu, ratio = row
                    out[nu] = out.get(nu, 0) + c * d * ratio
        else:
            for lam, (nu, ratio) in table.items():
                c = terms.get(lam)
                if c is not None:
                    out[nu] = out.get(nu, 0) + c * d * ratio
    return SymFunc._reduced(out, g._den * target._den)


def _perp_sum(g: SymFunc, lams: Iterable, by: Callable, image: Callable) -> SymFunc:
    """sum over lam in ``lams`` of c * f * by(lam)^perp g for the pair
    (c, f) = image(lam), asked for only where the skew is nonzero: the kernel
    of every vertex operator.  g's coproduct is read once into a table
    {rho: [(mu - rho, g_mu * z_mu / z_{mu - rho}) for mu in g containing rho]},
    each skew walks by(lam)'s terms against its rows into integer numerators,
    and every product f * skew lands in one accumulator over one lcm of the
    denominators, reduced once."""
    terms = g._terms
    if not terms:  # rm_row's inner skews often vanish; skip the walk over lams
        return g
    table: dict = {}
    for mu, d in terms.items():
        for rho, (nu, ratio) in _sub_table(mu).items():
            table.setdefault(rho, []).append((nu, d * ratio))
    live = []
    for lam in lams:
        b = by(lam)
        skewed: _IntDict = {}
        for rho, c in b._terms.items():
            for nu, v in table.get(rho, ()):
                skewed[nu] = skewed.get(nu, 0) + c * v
        if any(skewed.values()):
            c, f = image(lam)
            if c and f._terms:
                live.append((c, f._terms, skewed, c.denominator * f._den * b._den))
    den = lcm(*(term_den for *_, term_den in live))
    acc: _IntDict = {}
    for c, f_terms, skewed, term_den in live:
        scale = c.numerator * (den // term_den)
        for kappa, x in f_terms.items():
            x *= scale
            for nu, y in skewed.items():
                key = _merged(kappa, nu)
                acc[key] = acc.get(key, 0) + x * y
    return SymFunc._reduced(acc, den * g._den)


def expand(g: SymFunc, b: str) -> BasisExpansion:
    """Expansion of ``g`` in basis ``b`` via pairing against the dual basis."""
    _need_symfunc(g)
    if b not in BASES:
        raise ValueError(f"unknown basis {b!r}; expected one of {BASES}")
    if b == "p":
        return BasisExpansion("p", dict(g.items()))
    dual = DUAL_BASIS[b]
    terms: dict[Partition, Fraction] = {}
    for d in sorted(g.degrees()):
        # the pairing <g_d, dual_lam> is sum_mu c_mu z_mu d_mu over g's denominator
        weighted = {mu: c * z_value(mu) for mu, c in g._terms.items() if sum(mu) == d}
        for lam in partitions_of(d):
            other = _basis_p(dual, lam)
            small, big = sorted((weighted, other._terms), key=len)
            total = sum(c * big.get(mu, 0) for mu, c in small.items())
            if total:
                terms[lam] = Fraction(total, g._den * other._den)
    return BasisExpansion(b, terms)


def r_coefficient(mu: Partition) -> int:
    """Signed multinomial (-1)^{|mu|-l(mu)} * l(mu)! / prod_i n_i(mu)!.

    These are the coefficients of the expansion e_k = sum_{mu |- k} r_mu h_mu.
    """
    mu = Partition(mu)
    num = 1
    for j in range(2, len(mu) + 1):
        num *= j
    i = 0
    run = 0
    for p in mu:
        if p == i:
            run += 1
        else:
            i, run = p, 1
        num //= run
    return -num if (sum(mu) - len(mu)) % 2 else num


def _row(n: int) -> Partition:
    need_int(n, 0, "n")
    return _wrap((n,)) if n else EMPTY


def hn(n: int) -> SymFunc:
    return _basis_p("h", _row(n))


def en(n: int) -> SymFunc:
    return _basis_p("e", _row(n))


def pn(n: int) -> SymFunc:
    return _basis_p("p", _row(n))
