"""Exhaustive small-instance verification suites.

Every algebraic law the library promises is checked here on bounded index
ranges, with exact equality everywhere.  The suites are pure functions of a
Bounds value, and every range in it follows from one depth: the command
line runs depth 4 by default (--max-degree), and the acceptance gate runs
depth 8.

Operator identities are verified on the power-sum basis elements of each
degree: the checks are linear in the input, so equality on a spanning
family is equality of operators.
"""

from __future__ import annotations

import sys
import time
from functools import lru_cache, partial
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Optional, TextIO

from . import polyoracle, tableaux, vertex
from .partitions import (
    Partition,
    add_columns,
    binomial,
    compositions_of,
    conjugate,
    count_partitions,
    insert_parts,
    mult_count,
    partitions_of,
    partitions_upto,
    remove_parts,
    straighten,
    z_value,
)
from .ring import (
    BASES,
    SymFunc,
    basis_element,
    en,
    expand,
    hn,
    inner_product,
    omega,
    pn,
    r_coefficient,
    skew,
)


class Bounds:
    """Index ranges for the verification sweeps, all derived from one depth
    ``degree`` (the command line's --max-degree).  ``oracle`` runs the
    polynomial-oracle sweep at its full size: degree 6 in six variables."""

    def __init__(self, degree: int = 4, oracle: bool = False) -> None:
        deep = degree >= 6
        self.degree = degree  # partition size for action laws and pairing tables
        self.identity_degree = min(degree, 6)  # total degree for operator identities
        self.a_max = 3 if deep else 2
        self.k_max = 4 if deep else 2
        self.pairs_n = max(degree + 2, 6)
        self.pairs_k = 5 if deep else 3
        self.lemma_n = min(degree + 1, 8)
        self.lemma_k = 4 if deep else 3
        self.rsform_n = min(degree, 6)
        self.rsform_k = 3 if deep else 2
        self.oracle_degree = 6 if oracle else min(degree, 6)
        self.oracle_vars = max(self.oracle_degree, 2)


Check = tuple[str, int, list[str]]  # (name, cases run, failure messages)


def _basis_upto(b: str, n: int) -> Iterator[tuple[Partition, SymFunc]]:
    for lam in partitions_upto(n):
        yield lam, basis_element(b, lam)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def check_conjugate_involution(b: Bounds) -> Check:
    bad, cases = [], 0
    for lam in partitions_upto(max(b.degree, 12)):
        cases += 1
        if conjugate(conjugate(lam)) != lam:
            bad.append(f"conjugate not an involution at {lam}")
    return "partitions: conjugate involution", cases, bad


def check_add_columns_size(b: Bounds) -> Check:
    bad, cases = [], 0
    for lam in partitions_upto(b.degree):
        for a in range(b.a_max + 1):
            for k in range(b.k_max + 1):
                cases += 1
                col = add_columns(lam, a, k)
                if col is None:
                    if len(lam) <= k:
                        bad.append(f"add_columns({lam},{a},{k}) unexpectedly undefined")
                elif sum(col) != sum(lam) + a * k:
                    bad.append(f"|{lam} + {a}^{k}| wrong")
    return "partitions: add_columns size law", cases, bad


def check_insert_remove_roundtrip(b: Bounds) -> Check:
    bad, cases = [], 0
    n = min(b.degree, 8)
    for lam in partitions_upto(n):
        for mu in partitions_upto(n):
            cases += 1
            if remove_parts(insert_parts(lam, mu), mu) != lam:
                bad.append(f"insert/remove roundtrip failed at {lam}, {mu}")
    return "partitions: insert/remove roundtrip", cases, bad


def check_straighten_permutations(b: Bounds) -> Check:
    from itertools import permutations

    bad, cases = [], 0
    for lam in partitions_upto(min(b.degree, 6), max_length=4):
        shifted = [lam[j] - (j + 1) for j in range(len(lam))]
        for perm in permutations(range(len(lam))):
            cases += 1
            seq = [shifted[perm[j]] + (j + 1) for j in range(len(lam))]
            inv = sum(
                1
                for x in range(len(perm))
                for y in range(x + 1, len(perm))
                if perm[x] > perm[y]
            )
            res = straighten(seq)
            if res.is_zero or res.shape != lam or res.sign != (-1) ** inv:
                bad.append(f"straighten({seq}) != {(-1)**inv} * {lam}")
    return "partitions: straighten of permuted index sequences", cases, bad


def check_partition_counts(b: Bounds) -> Check:
    bad, cases = [], 0
    for n in range(max(b.degree, 9) + 1):
        cases += 1
        got = sum(1 for _ in partitions_of(n))
        if got != count_partitions(n):
            bad.append(f"p({n}) = {got}, pentagonal recurrence says {count_partitions(n)}")
    return "partitions: enumeration count vs recurrence", cases, bad


def check_composition_counts(b: Bounds) -> Check:
    bad, cases = [], 0
    for n in range(max(b.degree, 6) + 1):
        for k in range(1, b.pairs_k + 1):
            cases += 1
            got = sum(1 for _ in compositions_of(n, k))
            seen = set(compositions_of(n, k))
            if got != comb(n + k - 1, k - 1) or len(seen) != got:
                bad.append(f"compositions_of({n},{k}) count wrong")
    return "partitions: composition count (stars and bars)", cases, bad


# ---------------------------------------------------------------------------
# core ring
# ---------------------------------------------------------------------------

_DUAL_PAIRS = (("m", "h"), ("f", "e"), ("s", "s"))


def check_dual_pairings(b: Bounds) -> Check:
    bad, cases = [], 0
    shapes = list(partitions_upto(b.degree))
    for lam in shapes:
        for mu in shapes:
            delta = Fraction(1 if lam == mu else 0)
            cases += 3
            for b1, b2 in _DUAL_PAIRS:
                got = inner_product(basis_element(b1, lam), basis_element(b2, mu))
                if got != delta:
                    bad.append(f"<{b1}_{lam}, {b2}_{mu}> = {got}")
            cases += 1
            got = inner_product(
                basis_element("p", lam), basis_element("p", mu) * Fraction(1, z_value(mu))
            )
            if got != delta:
                bad.append(f"<p_{lam}, p_{mu}/z> = {got}")
    return "ring: dual-basis pairing tables", cases, bad


def check_omega(b: Bounds) -> Check:
    bad, cases = [], 0
    for base in BASES:
        for lam, g in _basis_upto(base, b.degree):
            cases += 1
            if omega(omega(g)) != g:
                bad.append(f"omega^2 != id on {base}_{lam}")
    for lam in partitions_upto(b.degree):
        cases += 3
        if omega(basis_element("h", lam)) != basis_element("e", lam):
            bad.append(f"omega h_{lam} != e_{lam}")
        if omega(basis_element("m", lam)) != basis_element("f", lam):
            bad.append(f"omega m_{lam} != f_{lam}")
        if omega(basis_element("s", lam)) != basis_element("s", conjugate(lam)):
            bad.append(f"omega s_{lam} != s_{conjugate(lam)}")
    return "ring: omega involution and basis swaps", cases, bad


def check_expand_roundtrip(b: Bounds) -> Check:
    bad, cases = [], 0
    for src in BASES:
        for lam, g in _basis_upto(src, b.degree):
            for dst in BASES:
                cases += 1
                if expand(g, dst).to_symfunc() != g:
                    bad.append(f"expand roundtrip {src}_{lam} via {dst}")
    return "ring: expansion/rebuild roundtrip", cases, bad


def check_jacobi_trudi(b: Bounds) -> Check:
    def naive_det(lam: Partition) -> SymFunc:
        size = len(lam)

        def minor(rows: list[int], cols: list[int]) -> SymFunc:
            if not cols:
                return SymFunc.one()
            i = rows[0]
            return SymFunc.sum(
                (-1) ** t * hn(idx) * minor(rows[1:], cols[:t] + cols[t + 1 :])
                for t, j in enumerate(cols)
                if (idx := lam[j] - (j + 1) + i) >= 0
            )

        return minor(list(range(1, size + 1)), list(range(size)))

    bad, cases = [], 0
    for lam in partitions_upto(min(b.degree, 8)):
        cases += 1
        if basis_element("s", lam) != naive_det(lam):
            bad.append(f"Jacobi-Trudi mismatch at {lam}")
    return "ring: Schur = naive h-determinant", cases, bad


def check_alternating_eh(b: Bounds) -> Check:
    bad, cases = [], 0
    for n in range(1, max(b.degree, 8) + 1):
        cases += 1
        total = SymFunc.sum((-1) ** r * en(r) * hn(n - r) for r in range(n + 1))
        if not total.is_zero:
            bad.append(f"sum_r (-1)^r e_r h_(n-r) != 0 at n={n}")
    return "ring: alternating e/h convolution vanishes", cases, bad


def check_e_to_h(b: Bounds) -> Check:
    bad, cases = [], 0
    for n in range(1, max(b.degree, 8) + 1):
        cases += 1
        total = SymFunc.sum(r_coefficient(mu) * basis_element("h", mu) for mu in partitions_of(n))
        if total != en(n):
            bad.append(f"e_{n} != sum r_mu h_mu")
    return "ring: e_n as signed multinomial h-combination", cases, bad


def check_alternating_r_sum(b: Bounds) -> Check:
    bad, cases = [], 0
    for n in range(1, max(b.degree, 8) + 1):
        for mu in partitions_of(n):
            cases += 1
            total = r_coefficient(mu)  # j = 0 term
            for j in range(1, n + 1):
                reduced = remove_parts(mu, Partition((j,)))
                if reduced is not None:
                    total += (-1) ** j * r_coefficient(reduced)
            if total != 0:
                bad.append(f"alternating r-sum != 0 at {mu}")
    return "ring: alternating r-coefficient sum vanishes", cases, bad


def check_skew_adjointness(b: Bounds) -> Check:
    bad, cases = [], 0
    n = b.identity_degree
    for glam in partitions_upto(n):
        g = basis_element("p", glam)
        for qlam in partitions_upto(n - sum(glam)):
            q = basis_element("p", qlam)
            gq = g * q
            for plam in partitions_of(sum(glam) + sum(qlam)):
                p = basis_element("p", plam)
                cases += 1
                if inner_product(skew(g, p), q) != inner_product(p, gq):
                    bad.append(f"adjointness fails at g={glam} P={plam} Q={qlam}")
    return "ring: skew adjointness on power-sum triples", cases, bad


def check_coproduct_rules(b: Bounds) -> Check:
    bad, cases = [], 0
    n = b.identity_degree
    for lam1 in partitions_upto(n):
        p1 = basis_element("p", lam1)
        for lam2 in partitions_upto(n - sum(lam1)):
            p2 = basis_element("p", lam2)
            prod = p1 * p2
            for k in range(1, sum(lam1) + sum(lam2) + 1):
                cases += 3
                want_h, want_e = (
                    SymFunc.sum(skew(x(i), p1) * skew(x(k - i), p2) for i in range(k + 1))
                    for x in (hn, en)
                )
                if skew(hn(k), prod) != want_h:
                    bad.append(f"h_{k} coproduct rule fails at {lam1},{lam2}")
                if skew(en(k), prod) != want_e:
                    bad.append(f"e_{k} coproduct rule fails at {lam1},{lam2}")
                want_p = skew(pn(k), p1) * p2 + p1 * skew(pn(k), p2)
                if skew(pn(k), prod) != want_p:
                    bad.append(f"p_{k} derivation rule fails at {lam1},{lam2}")
    return "ring: coproduct product rules for h/e/p skews", cases, bad


# ---------------------------------------------------------------------------
# skew-commutation lemmas and the monomial product rule
# ---------------------------------------------------------------------------


def _check_skew_past_monomial(
    b: Bounds, x: str, shed: Callable[[int], Iterable[tuple[Partition, int]]]
) -> Check:
    """x_k^perp (m_lam P) = sum over (mu, c) in shed(k) of
    c m_{lam - mu} x_{k - |mu|}^perp P, for x = h or e."""
    bad, cases = [], 0
    n = b.identity_degree
    x_n = {"h": hn, "e": en}[x]
    for lam in partitions_upto(n):
        mlam = basis_element("m", lam)
        for plam in partitions_upto(n - sum(lam)):
            target = basis_element("p", plam)
            for k in range(1, n + 1):
                cases += 1
                rhs = SymFunc.sum(
                    c * basis_element("m", reduced) * skew(x_n(k - sum(mu)), target)
                    for mu, c in shed(k)
                    if (reduced := remove_parts(lam, mu)) is not None
                )
                if skew(x_n(k), mlam * target) != rhs:
                    bad.append(f"{x}_{k} skew-commutation fails at {lam},{plam}")
    return f"lemmas: {x}-skew past a monomial factor", cases, bad


def check_h_skew_commutation(b: Bounds) -> Check:
    """h_k^perp sheds at most one part of m_lam, of any size i <= k."""
    return _check_skew_past_monomial(
        b, "h", lambda k: ((Partition((i,) if i else ()), 1) for i in range(k + 1))
    )


def check_e_skew_commutation(b: Bounds) -> Check:
    """e_k^perp sheds any mu with |mu| <= k, with coefficient r_mu."""
    return _check_skew_past_monomial(
        b, "e", lambda k: ((mu, r_coefficient(mu)) for mu in partitions_upto(k))
    )


def check_monomial_product_rule(b: Bounds) -> Check:
    bad, cases = [], 0
    for k in range(1, min(b.k_max + 2, 5)):
        for lam in partitions_upto(b.identity_degree):
            cases += 1
            lhs = basis_element("m", Partition((k,))) * basis_element("m", lam)
            rhs = SymFunc.sum(
                (1 + mult_count(lam, k + i))
                * basis_element("m", insert_parts(reduced, Partition((k + i,))))
                for i in range(sum(lam) + 1)
                if (reduced := remove_parts(lam, Partition((i,) if i else ()))) is not None
            )
            if lhs != rhs:
                bad.append(f"m_({k}) * m_{lam} product rule fails")
    return "lemmas: one-part monomial product rule", cases, bad


# ---------------------------------------------------------------------------
# vertex operator action laws
# ---------------------------------------------------------------------------


def _action_law(
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


# check name -> (OPERATORS name, input family, least a, least k) per operator
# checked; a and k run up to Bounds.a_max and k_max, None marks a parameter
# the operator does not take, and a callable least k is a function of l(mu).
# RSK, the k-th power of RS, has no row of its own.
ACTION_LAWS: dict[str, tuple[tuple[str, str, Optional[int], object], ...]] = {
    "actions: power column adder (strictly short inputs)": (("CP", "p", 0, lambda n: n + 1),),
    "actions: homogeneous/elementary column adders": (
        ("CH", "h", None, lambda n: max(n, 1)),
        ("CE", "e", None, lambda n: max(n, 1)),
    ),
    "actions: monomial row adders (coefficient laws)": (
        ("RM1", "m", 1, None),
        ("RM", "m", 1, None),
        ("RMK", "m", 1, 0),
    ),
    "actions: forgotten row adder": (("RF", "f", 1, None),),
    "actions: monomial/forgotten column adders with vanishing": (
        ("CM", "m", 0, 1),
        ("CF", "f", 0, 1),
    ),
    "actions: Schur row adder incl. straightening": (("RS", "s", 0, None),),
    "actions: Schur column adder with vanishing": (("CS", "s", 0, 0),),
}


def check_action_laws(name: str, b: Bounds) -> Check:
    """Each operator of ACTION_LAWS[name] on every b_mu with |mu| <= degree,
    applied through the command line's dispatch, against its law."""
    bad, cases = [], 0
    for mu in partitions_upto(b.degree):
        for op, family, least_a, least_k in ACTION_LAWS[name]:
            g = basis_element(family, mu)
            k_from = least_k(len(mu)) if callable(least_k) else least_k
            for a in (None,) if least_a is None else range(least_a, b.a_max + 1):
                for k in (None,) if k_from is None else range(k_from, b.k_max + 1):
                    cases += 1
                    got = vertex.apply_operator(vertex.OperatorSpec(op, a, k), g)
                    if got != _action_law(op, a, k, family, mu):
                        bad.append(f"{op} a={a} k={k} on {family}_{mu}")
    return name, cases, bad


# ---------------------------------------------------------------------------
# operator identities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _image(op: Callable[..., SymFunc], params: tuple, basis: str, lam: Partition) -> SymFunc:
    """op(*params, b_lam): the relation checks reuse the operator images of
    single basis elements.  Keyed by the function object, so an operator
    replaced at run time never reads another's images."""
    return op(*params, basis_element(basis, lam))


def _signed_perp_sum(
    g: SymFunc,
    lams: Iterable[Partition],
    by: Callable[[Partition], SymFunc],
    image: Callable[[Partition], SymFunc],
) -> SymFunc:
    """sum over lam in ``lams`` of (-1)^{|lam|} image(lam) * by(lam)^perp g,
    building image(lam) only where the skew is nonzero.  The oracles keep
    this loop of their own, apart from the one the operators sum through, so
    that a fault in that loop cannot show on both sides of a check."""
    return SymFunc.sum(
        (-1) ** sum(lam) * image(lam) * skewed
        for lam in lams
        if not (skewed := skew(by(lam), g)).is_zero
    )


def check_rs_anticommutation(b: Bounds) -> Check:
    bad, cases = [], 0
    for mu, g in _basis_upto("s", b.identity_degree):
        for a in range(b.a_max + 1):
            for bb in range(1, b.a_max + 1):
                cases += 1
                lhs = vertex.rs_row(a, vertex.rs_row(bb, g))
                rhs = vertex.rs_row(bb - 1, vertex.rs_row(a + 1, g))
                if lhs != -1 * rhs:
                    bad.append(f"RS_{a} RS_{bb} != -RS_{bb-1} RS_{a+1} on s_{mu}")
            cases += 1
            if not vertex.rs_row(a, vertex.rs_row(a + 1, g)).is_zero:
                bad.append(f"RS_{a} RS_{a+1} != 0 on s_{mu}")
    return "identities: Schur row adder anticommutation", cases, bad


def check_rsk_vs_composition(b: Bounds) -> Check:
    bad, cases = [], 0
    for mu, g in _basis_upto("s", b.identity_degree):
        for a in range(b.a_max + 1):
            for k in range(min(b.k_max, 3) + 1):
                cases += 1
                composed = g
                for _ in range(k):
                    composed = vertex.rs_row(a, composed)
                if vertex.rs_rows(a, k, g) != composed:
                    bad.append(f"RSK_{a}^{k} != RS_{a} composed {k} times on s_{mu}")
    return "identities: closed-form Schur power vs composition", cases, bad


def check_rm1_power_law(b: Bounds) -> Check:
    bad, cases = [], 0
    n = min(b.identity_degree, 5)
    for lam, g in _basis_upto("p", n):
        for a in range(1, b.a_max + 1):
            for k in range(min(b.k_max, 3) + 1):
                cases += 1
                powered = g
                for _ in range(k):
                    powered = vertex.rm_row_one(a, powered)
                if powered != factorial(k) * vertex.rm_rows(a, k, g):
                    bad.append(f"RM1^{k} != {k}! RMK on p_{lam}, a={a}")
    return "identities: iterated one-row adder vs k-row adder", cases, bad


def check_rm_commutativity(b: Bounds) -> Check:
    bad, cases = [], 0
    n = min(b.identity_degree, 5)
    for lam, g in _basis_upto("m", n):
        for a in range(1, b.a_max + 1):
            for a2 in range(a, b.a_max + 1):
                cases += 1
                if vertex.rm_row(a, vertex.rm_row(a2, g)) != vertex.rm_row(
                    a2, vertex.rm_row(a, g)
                ):
                    bad.append(f"RM_{a} RM_{a2} not commuting on m_{lam}")
    return "identities: monomial row adders commute", cases, bad


# The literal defining sums of the three omega-mirrored operators, which the
# library computes as omega o X o omega.
def ce_column_literal(k: int, g: SymFunc) -> SymFunc:
    """sum over l(lam) <= k of (-1)^{|lam|} h_{lam + 1^k} f_lam^perp."""
    return _signed_perp_sum(
        g,
        partitions_upto(g.degree(), max_length=k),
        partial(basis_element, "f"),
        lambda lam: basis_element("h", add_columns(lam, 1, k)),
    )


def cf_column_literal(a: int, k: int, g: SymFunc) -> SymFunc:
    """sum over lam of (-1)^{|lam|} C(n_a(lam) + k, k) f_{lam + (a^k)} h_lam^perp
    for a >= 1; at a = 0 the forgotten expansion projected onto length <= k."""
    if a == 0:
        return SymFunc.sum(
            c * basis_element("f", mu) for mu, c in expand(g, "f").terms.items() if len(mu) <= k
        )
    return _signed_perp_sum(
        g,
        partitions_upto(g.degree()),
        partial(basis_element, "h"),
        lambda lam: binomial(mult_count(lam, a) + k, k)
        * basis_element("f", insert_parts(lam, Partition((a,) * k))),
    )


def rf_row_literal(a: int, g: SymFunc) -> SymFunc:
    """sum over k >= 0, l(lam) <= k + 1 of
    (-1)^{|lam| + k} f_{lam + a^{k+1}} h_lam^perp (e_a^k)^perp, for a >= 1."""
    deg = g.degree()
    return SymFunc.sum(
        (-1) ** k
        * _signed_perp_sum(
            skew(basis_element("e", Partition((a,) * k)), g),
            partitions_upto(deg - a * k, max_length=k + 1),
            partial(basis_element, "h"),
            lambda lam: basis_element("f", add_columns(lam, a, k + 1)),
        )
        for k in range(deg // a + 1)
    )


def check_omega_conjugation(b: Bounds) -> Check:
    bad, cases = [], 0
    for lam, g in _basis_upto("p", b.identity_degree):
        for k in range(1, b.k_max + 1):
            cases += 1
            if vertex.ce_column(k, g) != ce_column_literal(k, g):
                bad.append(f"CE != its literal sum on p_{lam}, k={k}")
            for a in range(b.a_max + 1):
                cases += 1
                if vertex.cf_column(a, k, g) != cf_column_literal(a, k, g):
                    bad.append(f"CF != its literal sum on p_{lam}, a={a}, k={k}")
        for a in range(1, b.a_max + 1):
            cases += 1
            if vertex.rf_row(a, g) != rf_row_literal(a, g):
                bad.append(f"RF != its literal sum on p_{lam}, a={a}")
    return "identities: omega conjugation for CE/CF/RF", cases, bad


# Skew families of the paired relations, by their names in the messages.
_SKEW_BY: dict[str, Callable[[Partition], SymFunc]] = {
    **{x: partial(basis_element, x) for x in "mfe"},
    "s'": lambda mu: basis_element("s", conjugate(mu)),
}
_LABEL = {fn.__name__: name for name, (fn, _, _) in vertex.OPERATORS.items()}


def _check_paired(
    name: str, least_a: Optional[int], least_k: int, short: bool, sides: tuple, b: Bounds
) -> Check:
    """For both sides (x, by, y, basis) and every power sum g,

        x(g) = sum over mu of (-1)^{|mu|} y(basis_mu) by_mu^perp g,

    mu of length <= k when ``short``; by is a key of _SKEW_BY, and x, y name
    ``vertex`` functions of (k,) when ``least_a`` is None, else of (a, k),
    looked up when the check runs so that a replaced operator is checked."""
    bad, cases = [], 0
    for a in (None,) if least_a is None else range(least_a, b.a_max + 1):
        for k in range(least_k, b.k_max + 1):
            params, at = ((k,), f"k={k}") if a is None else ((a, k), f"a={a}, k={k}")
            for lam, g in _basis_upto("p", b.identity_degree):
                mus = list(partitions_upto(g.degree(), max_length=k if short else None))
                for x, by, y, basis in sides:
                    cases += 1
                    image = partial(_image, getattr(vertex, y), params, basis)
                    if getattr(vertex, x)(*params, g) != _signed_perp_sum(
                        g, mus, _SKEW_BY[by], image
                    ):
                        bad.append(
                            f"{_LABEL[x]} != sum {_LABEL[y]}({basis}) {by}-skew at {at}, p_{lam}"
                        )
    return name, cases, bad


check_eerie_he = partial(
    _check_paired, "identities: paired h/e column-adder relation", None, 1, True,
    (("ch_column", "m", "ce_column", "e"), ("ce_column", "f", "ch_column", "h")),
)
check_eerie_cm = partial(
    _check_paired, "identities: paired monomial row/column relation", 1, 1, False,
    (("cm_column", "e", "rm_rows", "m"), ("rm_rows", "e", "cm_column", "m")),
)
check_eerie_cs = partial(
    _check_paired, "identities: paired Schur row/column relation", 0, 0, False,
    (("rs_rows", "s'", "cs_column", "s"), ("cs_column", "s'", "rs_rows", "s")),
)


def check_cs_everything(b: Bounds) -> Check:
    bad, cases = [], 0

    def assignment(a: int, k: int) -> Callable[[Partition], SymFunc]:
        def image(mu: Partition) -> SymFunc:
            col = add_columns(mu, a, k)
            return SymFunc.zero() if col is None else basis_element("s", col)

        return image

    for a in range(b.a_max + 1):
        for k in range(b.k_max + 1):
            for lam, g in _basis_upto("p", b.identity_degree):
                cases += 1
                if vertex.cs_column(a, k, g) != vertex.everything_op(
                    "s", assignment(a, k), g
                ):
                    bad.append(f"CS != everything-operator at a={a}, k={k}, p_{lam}")
    return "identities: Schur column adder via everything operator", cases, bad


def check_tx_forms(b: Bounds) -> Check:
    bad, cases = [], 0
    for base in BASES:
        for lam, g in _basis_upto(base, b.degree):
            want = vertex.t_minus_x(g)
            for pair in ("ss", "hm", "ef", "pz"):
                cases += 1
                if vertex.t_minus_x_sum(g, pair) != want:
                    bad.append(f"constant-term sum form ({pair}) on {base}_{lam}")
    return "identities: constant-term operator sum forms", cases, bad


def check_schur_skew_h1n(b: Bounds) -> Check:
    bad, cases = [], 0
    # n <= 7 whatever the bounds, so every run checks the same 120 cases.
    for n in range(8):
        h1n = hn(1) ** n
        for lam in partitions_upto(n):
            cases += 1
            got = skew(basis_element("s", lam), h1n)
            want = comb(n, sum(lam)) * tableaux.syt_count(lam) * hn(1) ** (n - sum(lam))
            if got != want:
                bad.append(f"s_{lam}-skew of h_1^{n}")
    return "identities: Schur skew of h_1^n counts tableaux", cases, bad


def check_power_commutation(b: Bounds) -> Check:
    bad, cases = [], 0
    n = b.identity_degree
    for mu, g in _basis_upto("p", n):
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                cases += 1
                lhs = skew(pn(k), pn(j) * g) - pn(j) * skew(pn(k), g)
                want = k * g if k == j else SymFunc.zero()
                if lhs != want:
                    bad.append(f"p_{k}-skew / p_{j}-multiply commutator on p_{mu}")
    for mu, g in _basis_upto("p", n):
        for lam, plam in _basis_upto("p", n):
            for k in range(1, n + 1):
                cases += 1
                terms = [pn(k) * skew(plam, g)]
                if cnt := mult_count(lam, k):
                    reduced = basis_element("p", remove_parts(lam, Partition((k,))))
                    terms.append(k * cnt * skew(reduced, g))
                if skew(plam, pn(k) * g) != SymFunc.sum(terms):
                    bad.append(f"p_lam-skew commutation at lam={lam}, k={k}, p_{mu}")
    return "ring: power skew/multiply commutation", cases, bad


# ---------------------------------------------------------------------------
# tableaux application
# ---------------------------------------------------------------------------


def check_pairs_agreement(b: Bounds) -> Check:
    bad, cases = [], 0
    for n in range(b.pairs_n + 1):
        for k in range(1, b.pairs_k + 1):
            cases += 1
            closed = tableaux.bounded_height_pairs(n, k, "closed")
            det = tableaux.bounded_height_pairs(n, k, "det")
            brute = tableaux.bounded_height_pairs(n, k, "brute")
            if not (closed == det == brute):
                bad.append(f"pair counts disagree at n={n}, k={k}: {closed},{det},{brute}")
    return "tableaux: closed/det/brute pair counts agree", cases, bad


CATALAN_FIRST_ELEVEN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)


def check_pairs_catalan(b: Bounds) -> Check:
    bad, cases = [], 0
    for n in range(b.pairs_n + 1):
        cases += 1
        got = tableaux.bounded_height_pairs(n, 2, "closed")
        if got != tableaux.catalan(n):
            bad.append(f"height-2 count is not Catalan at n={n}")
        if n < len(CATALAN_FIRST_ELEVEN) and got != CATALAN_FIRST_ELEVEN[n]:
            bad.append(f"height-2 count differs from frozen Catalan value at n={n}")
    return "tableaux: height-2 pair counts are Catalan numbers", cases, bad


def check_pairs_one_row(b: Bounds) -> Check:
    bad, cases = [], 0
    for n in range(b.pairs_n + 1):
        cases += 1
        if tableaux.bounded_height_pairs(n, 1, "closed") != 1:
            bad.append(f"height-1 count != 1 at n={n}")
    return "tableaux: height-1 pair count is 1", cases, bad


def check_pairs_saturation(b: Bounds) -> Check:
    bad, cases = [], 0
    for n in range(min(b.pairs_n, 8) + 1):
        for k in range(n, n + 2):
            if k < 1:
                continue
            cases += 1
            if tableaux.bounded_height_pairs(n, k, "closed") != factorial(n):
                bad.append(f"unbounded-height count != n! at n={n}, k={k}")
    return "tableaux: pair count saturates at n!", cases, bad


def check_schur_sum_lemma(b: Bounds) -> Check:
    bad, cases = [], 0
    for n in range(b.lemma_n + 1):
        for k in range(1, b.lemma_k + 1):
            cases += 1
            formula = tableaux.bounded_height_schur_sum(n, k, "formula")
            operator = tableaux.bounded_height_schur_sum(n, k, "operator")
            direct = SymFunc.sum(
                tableaux.syt_count(lam) * basis_element("s", lam)
                for lam in partitions_of(n, max_length=k)
            )
            if not (formula == operator == direct):
                bad.append(f"bounded-height Schur sum mismatch at n={n}, k={k}")
    return "tableaux: bounded-height Schur sum, three routes", cases, bad


def check_rsform(b: Bounds) -> Check:
    bad, cases = [], 0
    for n in range(b.rsform_n + 1):
        for k in range(1, b.rsform_k + 1):
            cases += 1
            if tableaux.rs0_power_expansion(n, k) != vertex.rs_rows(0, k, hn(1) ** n):
                bad.append(f"width-zero power expansion mismatch at n={n}, k={k}")
    return "tableaux: width-zero Schur power expansion", cases, bad


def _convolve(f: dict[int, Fraction], g: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for i, x in f.items():
        for j, y in g.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def check_theta(b: Bounds) -> Check:
    bad, cases = [], 0
    n = b.identity_degree
    for base in BASES:
        for lam1 in partitions_upto(n):
            g1 = basis_element(base, lam1)
            for lam2 in partitions_upto(n - sum(lam1)):
                cases += 1
                g2 = basis_element(base, lam2)
                if tableaux.theta(g1 * g2) != _convolve(tableaux.theta(g1), tableaux.theta(g2)):
                    bad.append(f"theta not multiplicative at {base}, {lam1},{lam2}")
    for lam in partitions_upto(max(b.degree, 8)):
        cases += 1
        d = sum(lam)
        want = {d: Fraction(tableaux.syt_count(lam), factorial(d))}
        if tableaux.theta(basis_element("s", lam)) != want:
            bad.append(f"theta(s_{lam}) wrong")
    for nn in range(max(b.degree, 8) + 1):
        cases += 1
        if tableaux.theta(hn(nn)) != {nn: Fraction(1, factorial(nn))}:
            bad.append(f"theta(h_{nn}) wrong")
    return "tableaux: exponential specialization", cases, bad


def check_syt_brute(b: Bounds) -> Check:
    bad, cases = [], 0
    for lam in partitions_upto(max(b.degree, 8)):
        cases += 1
        if tableaux.syt_count(lam) != tableaux.syt_count_brute(lam):
            bad.append(f"hook count != enumeration at {lam}")
    return "tableaux: hook-length count vs enumeration", cases, bad


# ---------------------------------------------------------------------------
# polynomial oracle
# ---------------------------------------------------------------------------


def check_oracle_conversions(b: Bounds) -> Check:
    bad, cases = [], 0
    for base in BASES:
        for lam in partitions_upto(b.oracle_degree):
            cases += 1
            if not polyoracle.check_conversion(base, lam, b.oracle_vars):
                mismatch = polyoracle.first_mismatch(base, lam, b.oracle_vars)
                bad.append(f"conversion of {base}_{lam} off at monomial {mismatch}")
    return "oracle: basis conversions vs direct realizations", cases, bad


def check_oracle_ring_hom(b: Bounds) -> Check:
    bad, cases = [], 0
    v = b.oracle_vars
    n = b.oracle_degree
    for base in BASES:
        for lam1 in partitions_upto(n):
            g1 = basis_element(base, lam1)
            r1 = polyoracle.realize_symfunc(g1, v)
            for lam2 in partitions_upto(n - sum(lam1)):
                cases += 1
                g2 = basis_element(base, lam2)
                lhs = polyoracle.realize_symfunc(g1 * g2, v)
                if lhs != r1 * polyoracle.realize_symfunc(g2, v):
                    bad.append(f"realization not multiplicative at {base}, {lam1},{lam2}")
    return "oracle: realization is a ring homomorphism", cases, bad


def check_oracle_symmetry(b: Bounds) -> Check:
    bad, cases = [], 0
    v = min(b.oracle_vars, 5)
    for base in BASES:
        for lam in partitions_upto(min(b.oracle_degree, 5)):
            poly = polyoracle.realize(base, lam, v)
            for i in range(v - 1):
                cases += 1
                if poly.swap_vars(i, i + 1) != poly:
                    bad.append(f"realization of {base}_{lam} not symmetric in x{i+1},x{i+2}")
    return "oracle: realizations are symmetric polynomials", cases, bad


# ---------------------------------------------------------------------------
# command-line surface
# ---------------------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    import contextlib
    import io

    from . import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_cli_examples(b: Bounds) -> Check:
    bad, cases = [], 0

    cases += 1
    code, out, _ = _run_cli(["expand", "--basis", "h", "e[2]"])
    if code != 0 or out != "h[1,1] - h[2]\n":
        bad.append(f"expand example produced {out!r} (exit {code})")

    cases += 1
    code, out, _ = _run_cli(["count", "--n", "4", "--k", "2"])
    if code != 0 or out != "14\n":
        bad.append(f"count example produced {out!r} (exit {code})")

    cases += 1
    code, out, _ = _run_cli(
        ["apply", "--op", "CS", "--a", "0", "--k", "2", "h[1]^4", "--basis", "s"]
    )
    want = SymFunc.sum(
        tableaux.syt_count(lam) * basis_element("s", lam) for lam in partitions_of(4, max_length=2)
    )
    if code != 0 or out != expand(want, "s").to_text() + "\n":
        bad.append(f"apply example produced {out!r} (exit {code})")

    cases += 1
    code, out, _ = _run_cli(["verify", "--suite", "partitions"])
    if code != 0:
        bad.append(f"verify --suite partitions exited {code}")

    cases += 1
    code, _, err = _run_cli(["expand", "h[2,"])
    if code != 2 or "position" not in err:
        bad.append(f"parse error should exit 2 with a position, got {code}, {err!r}")

    cases += 1
    out1 = _run_cli(["expand", "--basis", "s", "--json", "h[2]*e[2]"])
    out2 = _run_cli(["expand", "--basis", "s", "--json", "h[2]*e[2]"])
    if out1 != out2 or out1[0] != 0:
        bad.append("JSON output not byte-stable across runs")

    return "cli: documented example invocations", cases, bad


def check_cli_roundtrip(b: Bounds) -> Check:
    from .expressions import parse_expression

    bad, cases = [], 0
    for base in BASES:
        for lam, g in _basis_upto(base, min(b.degree, 6)):
            for dst in BASES:
                cases += 1
                text = expand(g, dst).to_text()
                if parse_expression(text) != g:
                    bad.append(f"print/parse roundtrip of {base}_{lam} via {dst}")
    return "cli: expansion text parses back to the same function", cases, bad


def check_cli_default_verify(b: Bounds) -> Check:
    code, out, _ = _run_cli(["verify"])
    bad = [] if code == 0 else [f"default verify exited {code}:\n{out}"]
    return "cli: default verify run exits 0", 1, bad


# ---------------------------------------------------------------------------
# suite registry and runner
# ---------------------------------------------------------------------------

SUITES: dict[str, list[Callable[[Bounds], Check]]] = {
    "partitions": [
        check_conjugate_involution,
        check_add_columns_size,
        check_insert_remove_roundtrip,
        check_straighten_permutations,
        check_partition_counts,
        check_composition_counts,
    ],
    "ring": [
        check_dual_pairings,
        check_omega,
        check_expand_roundtrip,
        check_jacobi_trudi,
        check_alternating_eh,
        check_e_to_h,
        check_alternating_r_sum,
        check_skew_adjointness,
        check_coproduct_rules,
        check_power_commutation,
    ],
    "lemmas": [
        check_h_skew_commutation,
        check_e_skew_commutation,
        check_monomial_product_rule,
    ],
    "actions": [partial(check_action_laws, name) for name in ACTION_LAWS],
    "identities": [
        check_rs_anticommutation,
        check_rsk_vs_composition,
        check_rm1_power_law,
        check_rm_commutativity,
        check_omega_conjugation,
        check_eerie_he,
        check_eerie_cm,
        check_eerie_cs,
        check_cs_everything,
        check_tx_forms,
        check_schur_skew_h1n,
    ],
    "tableaux": [
        check_pairs_agreement,
        check_pairs_catalan,
        check_pairs_one_row,
        check_pairs_saturation,
        check_schur_sum_lemma,
        check_rsform,
        check_theta,
        check_syt_brute,
    ],
    "oracle": [
        check_oracle_conversions,
        check_oracle_ring_hom,
        check_oracle_symmetry,
    ],
    "cli": [
        check_cli_examples,
        check_cli_roundtrip,
    ],
}

# The acceptance gate: criterion number, description, checks, all run at
# depth 8.  Everything is exact equality; the depth is part of the contract.
ACCEPTANCE: tuple[tuple[int, str, tuple[Callable[[Bounds], Check], ...]], ...] = (
    (
        1,
        "vertex-operator action laws, |lam| <= 8, a <= 3, k <= 4",
        tuple(SUITES["actions"]),
    ),
    (
        2,
        "operator identities on basis elements of degree <= 6",
        tuple(SUITES["identities"]),
    ),
    (
        3,
        "core-ring properties: pairing tables to degree 8, identities to total degree 6",
        tuple(SUITES["ring"] + SUITES["lemmas"]),
    ),
    (
        4,
        "bounded-height pair counts agree and hit Catalan/1/n!, n <= 10, k <= 5",
        (
            check_pairs_agreement,
            check_pairs_catalan,
            check_pairs_one_row,
            check_pairs_saturation,
        ),
    ),
    (
        5,
        "bounded-height Schur sum (n <= 8, k <= 4) and width-zero expansion (n <= 6, k <= 3)",
        (check_schur_sum_lemma, check_rsform),
    ),
    (
        6,
        "polynomial-oracle sweep, all bases, degree <= 6 in six variables",
        tuple(SUITES["oracle"]),
    ),
    (
        7,
        "command-line examples byte-exact and default verify exits 0",
        (check_cli_examples, check_cli_roundtrip, check_cli_default_verify),
    ),
)


def run_checks(
    checks: Iterable[Callable[[Bounds], Check]], bounds: Bounds
) -> tuple[list[Check], bool]:
    results = [fn(bounds) for fn in checks]
    return results, all(not failures for _, _, failures in results)


def run_criterion(num: int) -> tuple[str, bool, list[str]]:
    """Run acceptance criterion ``num``: its one-line report
    ``criterion N [PASS] desc (C cases, T.Ts)``, whether it passed, and its
    failures as ``check name: message``."""
    desc, checks = next((desc, checks) for n, desc, checks in ACCEPTANCE if n == num)
    start = time.perf_counter()
    results, ok = run_checks(checks, Bounds(8))
    elapsed = time.perf_counter() - start
    cases = sum(c for _, c, _ in results)
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {desc} ({cases} cases, {elapsed:.1f}s)"
    failures = [f"{name}: {msg}" for name, _, msgs in results for msg in msgs]
    return line, ok, failures


def run_suites(
    names: Iterable[str], bounds: Bounds, out: TextIO = sys.stdout
) -> bool:
    ok = True
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results, suite_ok = run_checks(SUITES[name], bounds)
        for check_name, cases, failures in results:
            if failures:
                out.write(f"FAIL {check_name} [{cases} cases]\n")
                for msg in failures[:5]:
                    out.write(f"     {msg}\n")
                if len(failures) > 5:
                    out.write(f"     ... and {len(failures) - 5} more\n")
            else:
                out.write(f"ok   {check_name} [{cases} cases]\n")
        ok = ok and suite_ok
    return ok
