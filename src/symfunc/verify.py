"""Exhaustive small-instance verification suites.

Every algebraic law the library promises is checked here on bounded index
ranges, with exact equality everywhere.  A check is a generator over a
Bounds value that yields once per case: None when the case passes, and the
failure message, built only then, when it fails.  ``@check`` registers each
check under its name, and the name's prefix before ": " is its suite in
SUITES, the one list of suite names.  One runner, run_check, counts the
cases and collects the failures; run_suites and run_criterion use it.
This module holds only the checks and their runners: the second routes
they compare the library with live in ``oracles`` and ``polyoracle``.

Every range in Bounds follows from one depth: the command line runs depth
4 by default (--max-degree), and the acceptance gate runs depth 8.

Operator identities are verified on the power-sum basis elements of each
degree: the checks are linear in the input, so equality on a spanning
family is equality of operators.
"""

from __future__ import annotations

import sys
import time
from functools import cache, partial
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Optional

from . import oracles, polyoracle, tableaux, vertex
from .partitions import (
    Partition,
    add_columns,
    compositions_of,
    conjugate,
    count_partitions,
    insert_parts,
    mult_count,
    need_int,
    partitions_of,
    partitions_upto,
    remove_parts,
    straighten,
    z_value,
)
from .ring import (
    BASES,
    DUAL_BASIS,
    SymFunc,
    basis_element,
    en,
    expand,
    hn,
    inner_product,
    jacobi_trudi,
    omega,
    pn,
    r_coefficient,
    skew,
)


class Bounds:
    """Index ranges for the verification sweeps, all derived from one depth
    ``degree`` (the command line's --max-degree), an int >= 0."""

    def __init__(self, degree: int) -> None:
        need_int(degree, 0, "degree")
        deep = degree >= 6
        self.degree = degree  # partition size for action laws and pairing tables
        self.identity_degree = min(degree, 6)  # total degree for operator identities
        self.a_max = 3 if deep else 2
        self.k_max = 4 if deep else 2
        self.pairs_n = max(degree + 2, 6)
        self.pairs_k = 5 if deep else 3
        self.lemma_n = min(degree + 1, 8)
        self.lemma_k = 4 if deep else 3
        self.rsform_k = 3 if deep else 2
        self.oracle_vars = max(self.identity_degree, 2)


# suite name -> its checks in definition order, filled by @check
SUITES: dict[str, list[Callable[[Bounds], Iterator[Optional[str]]]]] = {}


def check(name: str) -> Callable:
    """Name a check ``name`` and file it in the suite that the prefix of
    ``name`` before ": " names."""

    def register(fn):
        fn.check_name = name
        SUITES.setdefault(name.split(": ")[0], []).append(fn)
        return fn

    return register


def _basis_upto(b: str, n: int) -> Iterator[tuple[Partition, SymFunc]]:
    for lam in partitions_upto(n):
        yield lam, basis_element(b, lam)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@check("partitions: conjugate involution")
def check_conjugate_involution(b: Bounds) -> Iterator[Optional[str]]:
    for lam in partitions_upto(max(b.degree, 12)):
        ok = conjugate(conjugate(lam)) == lam
        yield None if ok else f"conjugate not an involution at {lam}"


@check("partitions: add_columns size law")
def check_add_columns_size(b: Bounds) -> Iterator[Optional[str]]:
    for lam in partitions_upto(b.degree):
        for a in range(b.a_max + 1):
            for k in range(b.k_max + 1):
                col = add_columns(lam, a, k)
                if col is None:
                    ok = len(lam) > k
                    yield None if ok else f"add_columns({lam},{a},{k}) unexpectedly undefined"
                else:
                    ok = sum(col) == sum(lam) + a * k
                    yield None if ok else f"|{lam} + {a}^{k}| wrong"


@check("partitions: insert/remove roundtrip")
def check_insert_remove_roundtrip(b: Bounds) -> Iterator[Optional[str]]:
    n = min(b.degree, 8)
    for lam in partitions_upto(n):
        for mu in partitions_upto(n):
            ok = remove_parts(insert_parts(lam, mu), mu) == lam
            yield None if ok else f"insert/remove roundtrip failed at {lam}, {mu}"


@check("partitions: straighten of permuted index sequences")
def check_straighten_permutations(b: Bounds) -> Iterator[Optional[str]]:
    from itertools import permutations

    for lam in partitions_upto(min(b.degree, 6), max_length=4):
        shifted = [lam[j] - (j + 1) for j in range(len(lam))]
        for perm in permutations(range(len(lam))):
            seq = [shifted[perm[j]] + (j + 1) for j in range(len(lam))]
            inv = sum(
                1
                for x in range(len(perm))
                for y in range(x + 1, len(perm))
                if perm[x] > perm[y]
            )
            res = straighten(seq)
            ok = not res.is_zero and res.shape == lam and res.sign == (-1) ** inv
            yield None if ok else f"straighten({seq}) != {(-1)**inv} * {lam}"


@check("partitions: enumeration count vs recurrence")
def check_partition_counts(b: Bounds) -> Iterator[Optional[str]]:
    for n in range(max(b.degree, 9) + 1):
        got = sum(1 for _ in partitions_of(n))
        ok = got == count_partitions(n)
        yield None if ok else f"p({n}) = {got}, pentagonal recurrence says {count_partitions(n)}"


@check("partitions: composition count (stars and bars)")
def check_composition_counts(b: Bounds) -> Iterator[Optional[str]]:
    for n in range(max(b.degree, 6) + 1):
        for k in range(1, b.pairs_k + 1):
            got = sum(1 for _ in compositions_of(n, k))
            seen = set(compositions_of(n, k))
            ok = got == comb(n + k - 1, k - 1) and len(seen) == got
            yield None if ok else f"compositions_of({n},{k}) count wrong"


# ---------------------------------------------------------------------------
# core ring
# ---------------------------------------------------------------------------

@check("ring: dual-basis pairing tables")
def check_dual_pairings(b: Bounds) -> Iterator[Optional[str]]:
    shapes = list(partitions_upto(b.degree))
    for lam in shapes:
        for mu in shapes:
            delta = Fraction(1 if lam == mu else 0)
            for b1 in ("m", "f", "s"):
                b2 = DUAL_BASIS[b1]
                got = inner_product(basis_element(b1, lam), basis_element(b2, mu))
                yield None if got == delta else f"<{b1}_{lam}, {b2}_{mu}> = {got}"
            got = inner_product(
                basis_element("p", lam), basis_element("p", mu) * Fraction(1, z_value(mu))
            )
            yield None if got == delta else f"<p_{lam}, p_{mu}/z> = {got}"


@check("ring: omega involution and basis swaps")
def check_omega(b: Bounds) -> Iterator[Optional[str]]:
    for base in BASES:
        for lam, g in _basis_upto(base, b.degree):
            yield None if omega(omega(g)) == g else f"omega^2 != id on {base}_{lam}"
    for lam in partitions_upto(b.degree):
        ok = omega(basis_element("h", lam)) == basis_element("e", lam)
        yield None if ok else f"omega h_{lam} != e_{lam}"
        ok = omega(basis_element("m", lam)) == basis_element("f", lam)
        yield None if ok else f"omega m_{lam} != f_{lam}"
        ok = omega(basis_element("s", lam)) == basis_element("s", conjugate(lam))
        yield None if ok else f"omega s_{lam} != s_{conjugate(lam)}"


@check("ring: expansion/rebuild roundtrip")
def check_expand_roundtrip(b: Bounds) -> Iterator[Optional[str]]:
    for src in BASES:
        for lam, g in _basis_upto(src, b.degree):
            for dst in BASES:
                ok = expand(g, dst).to_symfunc() == g
                yield None if ok else f"expand roundtrip {src}_{lam} via {dst}"


@check("ring: Schur = Jacobi-Trudi determinant")
def check_jacobi_trudi(b: Bounds) -> Iterator[Optional[str]]:
    for lam in partitions_upto(min(b.degree, 8)):
        ok = basis_element("s", lam) == jacobi_trudi(lam)
        yield None if ok else f"Jacobi-Trudi mismatch at {lam}"


@check("ring: Schur products = Littlewood-Richardson")
def check_littlewood_richardson(b: Bounds) -> Iterator[Optional[str]]:
    shapes = [lam for lam in partitions_upto(b.degree) if lam]
    for lam in shapes:
        for mu in shapes:
            if sum(lam) + sum(mu) <= b.degree:
                got = expand(basis_element("s", lam) * basis_element("s", mu), "s").terms
                ok = got == oracles.littlewood_richardson(lam, mu)
                yield None if ok else f"s_{lam} s_{mu} differs from its LR coefficients"


@check("ring: alternating e/h convolution vanishes")
def check_alternating_eh(b: Bounds) -> Iterator[Optional[str]]:
    for n in range(1, max(b.degree, 8) + 1):
        total = SymFunc.sum(((-1) ** r, en(r) * hn(n - r)) for r in range(n + 1))
        yield None if total.is_zero else f"sum_r (-1)^r e_r h_(n-r) != 0 at n={n}"


@check("ring: e_n as signed multinomial h-combination")
def check_e_to_h(b: Bounds) -> Iterator[Optional[str]]:
    for n in range(1, max(b.degree, 8) + 1):
        total = SymFunc.sum((r_coefficient(mu), basis_element("h", mu)) for mu in partitions_of(n))
        yield None if total == en(n) else f"e_{n} != sum r_mu h_mu"


@check("ring: alternating r-coefficient sum vanishes")
def check_alternating_r_sum(b: Bounds) -> Iterator[Optional[str]]:
    for n in range(1, max(b.degree, 8) + 1):
        for mu in partitions_of(n):
            total = r_coefficient(mu)  # j = 0 term
            for j in range(1, n + 1):
                reduced = remove_parts(mu, Partition((j,)))
                if reduced is not None:
                    total += (-1) ** j * r_coefficient(reduced)
            yield None if total == 0 else f"alternating r-sum != 0 at {mu}"


@check("ring: skew adjointness on power-sum triples")
def check_skew_adjointness(b: Bounds) -> Iterator[Optional[str]]:
    n = b.identity_degree
    for glam in partitions_upto(n):
        g = basis_element("p", glam)
        for qlam in partitions_upto(n - sum(glam)):
            q = basis_element("p", qlam)
            gq = g * q
            for plam in partitions_of(sum(glam) + sum(qlam)):
                p = basis_element("p", plam)
                ok = inner_product(skew(g, p), q) == inner_product(p, gq)
                yield None if ok else f"adjointness fails at g={glam} P={plam} Q={qlam}"


@check("ring: coproduct product rules for h/e/p skews")
def check_coproduct_rules(b: Bounds) -> Iterator[Optional[str]]:
    n = b.identity_degree
    for lam1 in partitions_upto(n):
        p1 = basis_element("p", lam1)
        for lam2 in partitions_upto(n - sum(lam1)):
            p2 = basis_element("p", lam2)
            prod = p1 * p2
            for k in range(1, sum(lam1) + sum(lam2) + 1):
                want_h, want_e = (
                    SymFunc.sum((1, skew(x(i), p1) * skew(x(k - i), p2)) for i in range(k + 1))
                    for x in (hn, en)
                )
                ok = skew(hn(k), prod) == want_h
                yield None if ok else f"h_{k} coproduct rule fails at {lam1},{lam2}"
                ok = skew(en(k), prod) == want_e
                yield None if ok else f"e_{k} coproduct rule fails at {lam1},{lam2}"
                want_p = skew(pn(k), p1) * p2 + p1 * skew(pn(k), p2)
                ok = skew(pn(k), prod) == want_p
                yield None if ok else f"p_{k} derivation rule fails at {lam1},{lam2}"


@check("ring: power skew/multiply commutation")
def check_power_commutation(b: Bounds) -> Iterator[Optional[str]]:
    n = b.identity_degree
    for mu, g in _basis_upto("p", n):
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = skew(pn(k), pn(j) * g) - pn(j) * skew(pn(k), g)
                want = k * g if k == j else SymFunc.zero()
                ok = lhs == want
                yield None if ok else f"p_{k}-skew / p_{j}-multiply commutator on p_{mu}"
    for mu, g in _basis_upto("p", n):
        for lam, plam in _basis_upto("p", n):
            for k in range(1, n + 1):
                terms = [(1, pn(k) * skew(plam, g))]
                if cnt := mult_count(lam, k):
                    reduced = basis_element("p", remove_parts(lam, Partition((k,))))
                    terms.append((k * cnt, skew(reduced, g)))
                ok = skew(plam, pn(k) * g) == SymFunc.sum(terms)
                yield None if ok else f"p_lam-skew commutation at lam={lam}, k={k}, p_{mu}"


# ---------------------------------------------------------------------------
# skew-commutation lemmas and the monomial product rule
# ---------------------------------------------------------------------------


def _check_skew_past_monomial(
    b: Bounds, x: str, shed: Callable[[int], Iterable[tuple[Partition, int]]]
) -> Iterator[Optional[str]]:
    """x_k^perp (m_lam P) = sum over (mu, c) in shed(k) of
    c m_{lam - mu} x_{k - |mu|}^perp P, for x = h or e."""
    n = b.identity_degree
    x_n = {"h": hn, "e": en}[x]
    for lam in partitions_upto(n):
        mlam = basis_element("m", lam)
        for plam in partitions_upto(n - sum(lam)):
            target = basis_element("p", plam)
            for k in range(1, n + 1):
                rhs = SymFunc.sum(
                    (c, basis_element("m", reduced) * skew(x_n(k - sum(mu)), target))
                    for mu, c in shed(k)
                    if (reduced := remove_parts(lam, mu)) is not None
                )
                ok = skew(x_n(k), mlam * target) == rhs
                yield None if ok else f"{x}_{k} skew-commutation fails at {lam},{plam}"


@check("lemmas: h-skew past a monomial factor")
def check_h_skew_commutation(b: Bounds) -> Iterator[Optional[str]]:
    """h_k^perp sheds at most one part of m_lam, of any size i <= k."""
    return _check_skew_past_monomial(
        b, "h", lambda k: ((Partition((i,) if i else ()), 1) for i in range(k + 1))
    )


@check("lemmas: e-skew past a monomial factor")
def check_e_skew_commutation(b: Bounds) -> Iterator[Optional[str]]:
    """e_k^perp sheds any mu with |mu| <= k, with coefficient r_mu."""
    return _check_skew_past_monomial(
        b, "e", lambda k: ((mu, r_coefficient(mu)) for mu in partitions_upto(k))
    )


@check("lemmas: one-part monomial product rule")
def check_monomial_product_rule(b: Bounds) -> Iterator[Optional[str]]:
    for k in range(1, min(b.k_max + 2, 5)):
        for lam in partitions_upto(b.identity_degree):
            lhs = basis_element("m", Partition((k,))) * basis_element("m", lam)
            rhs = SymFunc.sum(
                (
                    1 + mult_count(lam, k + i),
                    basis_element("m", insert_parts(reduced, Partition((k + i,)))),
                )
                for i in range(sum(lam) + 1)
                if (reduced := remove_parts(lam, Partition((i,) if i else ()))) is not None
            )
            yield None if lhs == rhs else f"m_({k}) * m_{lam} product rule fails"


# ---------------------------------------------------------------------------
# vertex operator action laws
# ---------------------------------------------------------------------------


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


def check_action_laws(name: str, b: Bounds) -> Iterator[Optional[str]]:
    """Each operator of ACTION_LAWS[name] on every b_mu with |mu| <= degree,
    applied through the command line's dispatch, against its law."""
    for mu in partitions_upto(b.degree):
        for op, family, least_a, least_k in ACTION_LAWS[name]:
            g = basis_element(family, mu)
            k_from = least_k(len(mu)) if callable(least_k) else least_k
            for a in (None,) if least_a is None else range(least_a, b.a_max + 1):
                for k in (None,) if k_from is None else range(k_from, b.k_max + 1):
                    got = vertex.named_operator(op, a, k)(g)
                    ok = got == oracles.action_law(op, a, k, family, mu)
                    yield None if ok else f"{op} a={a} k={k} on {family}_{mu}"


for _name in ACTION_LAWS:
    check(_name)(partial(check_action_laws, _name))


# ---------------------------------------------------------------------------
# operator identities
# ---------------------------------------------------------------------------


@check("identities: Schur row adder anticommutation")
def check_rs_anticommutation(b: Bounds) -> Iterator[Optional[str]]:
    for mu, g in _basis_upto("s", b.identity_degree):
        for a in range(b.a_max + 1):
            for bb in range(1, b.a_max + 1):
                lhs = vertex.rs_row(a, vertex.rs_row(bb, g))
                rhs = vertex.rs_row(bb - 1, vertex.rs_row(a + 1, g))
                ok = lhs == -1 * rhs
                yield None if ok else f"RS_{a} RS_{bb} != -RS_{bb-1} RS_{a+1} on s_{mu}"
            ok = vertex.rs_row(a, vertex.rs_row(a + 1, g)).is_zero
            yield None if ok else f"RS_{a} RS_{a+1} != 0 on s_{mu}"


@check("identities: closed-form Schur power vs composition")
def check_rsk_vs_composition(b: Bounds) -> Iterator[Optional[str]]:
    for mu, g in _basis_upto("s", b.identity_degree):
        for a in range(b.a_max + 1):
            for k in range(min(b.k_max, 3) + 1):
                composed = g
                for _ in range(k):
                    composed = vertex.rs_row(a, composed)
                ok = vertex.rs_rows(a, k, g) == composed
                yield None if ok else f"RSK_{a}^{k} != RS_{a} composed {k} times on s_{mu}"


@check("identities: iterated one-row adder vs k-row adder")
def check_rm1_power_law(b: Bounds) -> Iterator[Optional[str]]:
    n = min(b.identity_degree, 5)
    for lam, g in _basis_upto("p", n):
        for a in range(1, b.a_max + 1):
            for k in range(min(b.k_max, 3) + 1):
                powered = g
                for _ in range(k):
                    powered = vertex.rm_row_one(a, powered)
                ok = powered == factorial(k) * vertex.rm_rows(a, k, g)
                yield None if ok else f"RM1^{k} != {k}! RMK on p_{lam}, a={a}"


@check("identities: monomial row adders commute")
def check_rm_commutativity(b: Bounds) -> Iterator[Optional[str]]:
    n = min(b.identity_degree, 5)
    for lam, g in _basis_upto("m", n):
        for a in range(1, b.a_max + 1):
            for a2 in range(a, b.a_max + 1):
                ok = vertex.rm_row(a, vertex.rm_row(a2, g)) == vertex.rm_row(
                    a2, vertex.rm_row(a, g)
                )
                yield None if ok else f"RM_{a} RM_{a2} not commuting on m_{lam}"


@check("identities: omega conjugation for CE/CF/RF")
def check_omega_conjugation(b: Bounds) -> Iterator[Optional[str]]:
    for lam, g in _basis_upto("p", b.identity_degree):
        for k in range(1, b.k_max + 1):
            ok = vertex.ce_column(k, g) == oracles.ce_column_literal(k, g)
            yield None if ok else f"CE != its literal sum on p_{lam}, k={k}"
            for a in range(b.a_max + 1):
                ok = vertex.cf_column(a, k, g) == oracles.cf_column_literal(a, k, g)
                yield None if ok else f"CF != its literal sum on p_{lam}, a={a}, k={k}"
        for a in range(1, b.a_max + 1):
            ok = vertex.rf_row(a, g) == oracles.rf_row_literal(a, g)
            yield None if ok else f"RF != its literal sum on p_{lam}, a={a}"


# Skew families of the paired relations, by their names in the messages.
_SKEW_BY: dict[str, Callable[[Partition], SymFunc]] = {
    **{x: partial(basis_element, x) for x in "mfe"},
    "s'": lambda mu: basis_element("s", conjugate(mu)),
}


def _check_paired(
    least_a: Optional[int], least_k: int, short: bool, sides: tuple, b: Bounds
) -> Iterator[Optional[str]]:
    """For both sides (x, by, y, basis) and every power sum g,

        x(g) = sum over mu of (-1)^{|mu|} y(basis_mu) by_mu^perp g,

    mu of length <= k when ``short``; by is a key of _SKEW_BY, and x, y are
    OPERATORS names, taking k alone when ``least_a`` is None, else a and k.
    vertex.named_operator binds both when the check runs, so a replaced
    operator is checked.  Each side applies y to each basis_mu itself, once
    per (a, k), while x sums y's action law, so no image is shared."""
    for a in (None,) if least_a is None else range(least_a, b.a_max + 1):
        for k in range(least_k, b.k_max + 1):
            at = f"k={k}" if a is None else f"a={a}, k={k}"
            images = [
                cache(lambda mu, op=vertex.named_operator(y, a, k), basis=basis: (
                    1, op(basis_element(basis, mu))
                ))
                for _, _, y, basis in sides
            ]
            for lam, g in _basis_upto("p", b.identity_degree):
                mus = list(partitions_upto(g.degree(), max_length=k if short else None))
                for (x, by, y, basis), image in zip(sides, images):
                    ok = vertex.named_operator(x, a, k)(g) == oracles.signed_perp_sum(
                        g, mus, _SKEW_BY[by], image
                    )
                    yield None if ok else f"{x} != sum {y}({basis}) {by}-skew at {at}, p_{lam}"


check_eerie_he = check("identities: paired h/e column-adder relation")(partial(
    _check_paired, None, 1, True,
    (("CH", "m", "CE", "e"), ("CE", "f", "CH", "h")),
))
check_eerie_cm = check("identities: paired monomial row/column relation")(partial(
    _check_paired, 1, 1, False,
    (("CM", "e", "RMK", "m"), ("RMK", "e", "CM", "m")),
))
check_eerie_cs = check("identities: paired Schur row/column relation")(partial(
    _check_paired, 0, 0, False,
    (("RSK", "s'", "CS", "s"), ("CS", "s'", "RSK", "s")),
))


@check("identities: Schur column adder via everything operator")
def check_cs_everything(b: Bounds) -> Iterator[Optional[str]]:
    for a in range(b.a_max + 1):
        for k in range(b.k_max + 1):
            law = partial(oracles.action_law, "CS", a, k, "s")
            for lam, g in _basis_upto("p", b.identity_degree):
                ok = vertex.cs_column(a, k, g) == oracles.everything_op("s", law, g)
                yield None if ok else f"CS != everything-operator at a={a}, k={k}, p_{lam}"


@check("identities: constant-term operator sum forms")
def check_tx_forms(b: Bounds) -> Iterator[Optional[str]]:
    for base in BASES:
        for lam, g in _basis_upto(base, b.degree):
            want = vertex.t_minus_x(g)
            for pair in ("ss", "hm", "ef", "pz"):
                ok = vertex.t_minus_x_sum(g, pair) == want
                yield None if ok else f"constant-term sum form ({pair}) on {base}_{lam}"


@check("identities: Schur skew of h_1^n counts tableaux")
def check_schur_skew_h1n(b: Bounds) -> Iterator[Optional[str]]:
    # n <= 7 whatever the bounds, so every run checks the same 120 cases.
    for n in range(8):
        h1n = hn(1) ** n
        for lam in partitions_upto(n):
            got = skew(basis_element("s", lam), h1n)
            want = comb(n, sum(lam)) * tableaux.syt_count(lam) * hn(1) ** (n - sum(lam))
            yield None if got == want else f"s_{lam}-skew of h_1^{n}"


# ---------------------------------------------------------------------------
# tableaux application
# ---------------------------------------------------------------------------


@check("tableaux: closed/det/brute pair counts agree")
def check_pairs_agreement(b: Bounds) -> Iterator[Optional[str]]:
    for n in range(b.pairs_n + 1):
        for k in range(1, b.pairs_k + 1):
            closed = tableaux.bounded_height_pairs(n, k, "closed")
            det = tableaux.bounded_height_pairs(n, k, "det")
            brute = tableaux.bounded_height_pairs(n, k, "brute")
            ok = closed == det == brute
            yield None if ok else f"pair counts disagree at n={n}, k={k}: {closed},{det},{brute}"


CATALAN_FIRST_ELEVEN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)


@check("tableaux: height-2 pair counts are Catalan numbers")
def check_pairs_catalan(b: Bounds) -> Iterator[Optional[str]]:
    for n in range(b.pairs_n + 1):
        got = tableaux.bounded_height_pairs(n, 2, "closed")
        faults = []
        if got != tableaux.catalan(n):
            faults.append(f"height-2 count is not Catalan at n={n}")
        if n < len(CATALAN_FIRST_ELEVEN) and got != CATALAN_FIRST_ELEVEN[n]:
            faults.append(f"height-2 count differs from frozen Catalan value at n={n}")
        yield "; ".join(faults) or None


@check("tableaux: height-1 pair count is 1")
def check_pairs_one_row(b: Bounds) -> Iterator[Optional[str]]:
    for n in range(b.pairs_n + 1):
        ok = tableaux.bounded_height_pairs(n, 1, "closed") == 1
        yield None if ok else f"height-1 count != 1 at n={n}"


@check("tableaux: pair count saturates at n!")
def check_pairs_saturation(b: Bounds) -> Iterator[Optional[str]]:
    for n in range(min(b.pairs_n, 8) + 1):
        for k in range(n, n + 2):
            if k < 1:
                continue
            ok = tableaux.bounded_height_pairs(n, k, "closed") == factorial(n)
            yield None if ok else f"unbounded-height count != n! at n={n}, k={k}"


@check("tableaux: bounded-height Schur sum, three routes")
def check_schur_sum_lemma(b: Bounds) -> Iterator[Optional[str]]:
    for n in range(b.lemma_n + 1):
        for k in range(1, b.lemma_k + 1):
            formula = tableaux.bounded_height_schur_sum(n, k, "formula")
            operator = tableaux.bounded_height_schur_sum(n, k, "operator")
            direct = SymFunc.sum(
                (tableaux.syt_count(lam), basis_element("s", lam))
                for lam in partitions_of(n, max_length=k)
            )
            ok = formula == operator == direct
            yield None if ok else f"bounded-height Schur sum mismatch at n={n}, k={k}"


@check("tableaux: width-zero Schur power expansion")
def check_rsform(b: Bounds) -> Iterator[Optional[str]]:
    for n in range(b.identity_degree + 1):
        for k in range(1, b.rsform_k + 1):
            ok = oracles.rs0_power_expansion(n, k) == vertex.rs_rows(0, k, hn(1) ** n)
            yield None if ok else f"width-zero power expansion mismatch at n={n}, k={k}"


def _convolve(f: dict[int, Fraction], g: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for i, x in f.items():
        for j, y in g.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


@check("tableaux: exponential specialization")
def check_theta(b: Bounds) -> Iterator[Optional[str]]:
    n = b.identity_degree
    for base in BASES:
        for lam1 in partitions_upto(n):
            g1 = basis_element(base, lam1)
            for lam2 in partitions_upto(n - sum(lam1)):
                g2 = basis_element(base, lam2)
                ok = tableaux.theta(g1 * g2) == _convolve(tableaux.theta(g1), tableaux.theta(g2))
                yield None if ok else f"theta not multiplicative at {base}, {lam1},{lam2}"
    for lam in partitions_upto(max(b.degree, 8)):
        d = sum(lam)
        want = {d: Fraction(tableaux.syt_count(lam), factorial(d))}
        yield None if tableaux.theta(basis_element("s", lam)) == want else f"theta(s_{lam}) wrong"
    for nn in range(max(b.degree, 8) + 1):
        ok = tableaux.theta(hn(nn)) == {nn: Fraction(1, factorial(nn))}
        yield None if ok else f"theta(h_{nn}) wrong"


@check("tableaux: hook-length count vs enumeration")
def check_syt_brute(b: Bounds) -> Iterator[Optional[str]]:
    for lam in partitions_upto(max(b.degree, 8)):
        ok = tableaux.syt_count(lam) == oracles.syt_count_brute(lam)
        yield None if ok else f"hook count != enumeration at {lam}"


# ---------------------------------------------------------------------------
# polynomial oracle
# ---------------------------------------------------------------------------


@check("oracle: basis conversions vs direct realizations")
def check_oracle_conversions(b: Bounds) -> Iterator[Optional[str]]:
    for base in BASES:
        for lam in partitions_upto(b.identity_degree):
            mismatch = polyoracle.first_mismatch(base, lam, b.oracle_vars)
            if mismatch is None:
                yield None
                continue
            mono, direct, converted = mismatch
            yield f"{base}_{lam} off at monomial {mono}: direct {direct}, converted {converted}"


@check("oracle: realization is a ring homomorphism")
def check_oracle_ring_hom(b: Bounds) -> Iterator[Optional[str]]:
    v = b.oracle_vars
    n = b.identity_degree
    for base in BASES:
        for lam1 in partitions_upto(n):
            g1 = basis_element(base, lam1)
            r1 = polyoracle.realize_symfunc(g1, v)
            for lam2 in partitions_upto(n - sum(lam1)):
                g2 = basis_element(base, lam2)
                lhs = polyoracle.realize_symfunc(g1 * g2, v)
                ok = lhs == polyoracle.mul(r1, polyoracle.realize_symfunc(g2, v))
                yield None if ok else f"realization not multiplicative at {base}, {lam1},{lam2}"


@check("oracle: realizations are symmetric polynomials")
def check_oracle_symmetry(b: Bounds) -> Iterator[Optional[str]]:
    v = min(b.oracle_vars, 5)
    for base in BASES:
        for lam in partitions_upto(min(b.identity_degree, 5)):
            poly = polyoracle.realize(base, lam, v)
            for i in range(v - 1):
                swapped = {m[:i] + (m[i + 1], m[i]) + m[i + 2 :]: c for m, c in poly.items()}
                ok = swapped == poly
                yield None if ok else (
                    f"realization of {base}_{lam} not symmetric in x{i+1},x{i+2}"
                )


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


@check("cli: documented example invocations")
def check_cli_examples(b: Bounds) -> Iterator[Optional[str]]:
    code, out, _ = _run_cli(["expand", "--basis", "h", "e[2]"])
    ok = code == 0 and out == "h[1,1] - h[2]\n"
    yield None if ok else f"expand example produced {out!r} (exit {code})"

    code, out, _ = _run_cli(["count", "--n", "4", "--k", "2"])
    ok = code == 0 and out == "14\n"
    yield None if ok else f"count example produced {out!r} (exit {code})"

    code, out, _ = _run_cli(
        ["apply", "--op", "CS", "--a", "0", "--k", "2", "h[1]^4", "--basis", "s"]
    )
    want = tableaux.bounded_height_schur_sum(4, 2)
    ok = code == 0 and out == expand(want, "s").to_text() + "\n"
    yield None if ok else f"apply example produced {out!r} (exit {code})"

    code, out, _ = _run_cli(["verify", "--suite", "partitions"])
    yield None if code == 0 else f"verify --suite partitions exited {code}"

    code, _, err = _run_cli(["expand", "h[2,"])
    ok = code == 2 and "position" in err
    yield None if ok else f"parse error should exit 2 with a position, got {code}, {err!r}"

    out1 = _run_cli(["expand", "--basis", "s", "--json", "h[2]*e[2]"])
    out2 = _run_cli(["expand", "--basis", "s", "--json", "h[2]*e[2]"])
    ok = out1 == out2 and out1[0] == 0
    yield None if ok else "JSON output not byte-stable across runs"


@check("cli: expansion text parses back to the same function")
def check_cli_roundtrip(b: Bounds) -> Iterator[Optional[str]]:
    from .expressions import parse_expression

    for base in BASES:
        for lam, g in _basis_upto(base, min(b.degree, 6)):
            for dst in BASES:
                text = expand(g, dst).to_text()
                ok = parse_expression(text) == g
                yield None if ok else f"print/parse roundtrip of {base}_{lam} via {dst}"


def check_cli_default_verify(b: Bounds) -> Iterator[Optional[str]]:
    code, out, _ = _run_cli(["verify"])
    yield None if code == 0 else f"default verify exited {code}:\n{out}"


# Named without @check, so in no suite: in the cli suite, verify would run itself.
check_cli_default_verify.check_name = "cli: default verify run exits 0"


# ---------------------------------------------------------------------------
# runners and the acceptance gate
# ---------------------------------------------------------------------------

# The acceptance gate: criterion number, description, case count, checks,
# all run at depth 8.  Everything is exact equality; the depth and the case
# counts are part of the contract, so a sweep that shrinks fails.
ACCEPTANCE: tuple[tuple[int, str, int, tuple[Callable, ...]], ...] = (
    (
        1,
        "vertex-operator action laws, |lam| <= 8, a <= 3, k <= 4",
        5920,
        tuple(SUITES["actions"]),
    ),
    (
        2,
        "operator identities on basis elements of degree <= 6",
        6480,
        tuple(SUITES["identities"]),
    ),
    (
        3,
        "core-ring properties: pairing tables to degree 8, identities to total degree 6",
        32875,
        tuple(SUITES["ring"] + SUITES["lemmas"]),
    ),
    (
        4,
        "bounded-height pair counts agree and hit Catalan/1/n!, n <= 10, k <= 5",
        94,
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
        57,
        (check_schur_sum_lemma, check_rsform),
    ),
    (
        6,
        "polynomial-oracle sweep, all bases, degree <= 6 in six variables",
        1470,
        tuple(SUITES["oracle"]),
    ),
    (
        7,
        "command-line examples byte-exact and default verify exits 0",
        1087,
        (check_cli_examples, check_cli_roundtrip, check_cli_default_verify),
    ),
)


def run_check(
    fn: Callable[[Bounds], Iterable[Optional[str]]], bounds: Bounds
) -> tuple[str, int, list[str]]:
    """Run one check: its name, the number of cases it yielded, and the
    failure messages among them."""
    outcomes = list(fn(bounds))
    return fn.check_name, len(outcomes), [msg for msg in outcomes if msg is not None]


def run_criterion(num: int) -> tuple[str, bool, list[str]]:
    """Run acceptance criterion ``num``: its one-line report
    ``criterion N [PASS] desc (C cases, T.Ts)``, whether it passed, and its
    failures as ``check name: message``; a case count other than the pinned
    one is a failure too.  A number not in ACCEPTANCE is a ValueError."""
    need_int(num, 1, "criterion")
    rows = {row[0]: row[1:] for row in ACCEPTANCE}
    if num not in rows:
        raise ValueError(f"unknown criterion {num!r}; choose from {sorted(rows)}")
    desc, want, checks = rows[num]
    start = time.perf_counter()
    results = [run_check(fn, Bounds(8)) for fn in checks]
    elapsed = time.perf_counter() - start
    cases = sum(c for _, c, _ in results)
    failures = [f"{name}: {msg}" for name, _, msgs in results for msg in msgs]
    if cases != want:
        failures.append(f"ran {cases} cases, not the pinned {want}")
    ok = not failures
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {desc} ({cases} cases, {elapsed:.1f}s)"
    return line, ok, failures


def run_suites(names: Optional[Iterable[str]], bounds: Bounds) -> bool:
    """Run the named suites (all when ``names`` is None), each once where it
    is first named, at ``bounds``, reporting each check on the current
    sys.stdout; True iff every check passed.  An unknown name raises
    ValueError before any check runs."""
    names = list(dict.fromkeys(SUITES if names is None else names))
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    out = sys.stdout
    ok = True
    for name in names:
        for fn in SUITES[name]:
            check_name, cases, failures = run_check(fn, bounds)
            if failures:
                ok = False
                out.write(f"FAIL {check_name} [{cases} cases]\n")
                for msg in failures[:5]:
                    out.write(f"     {msg}\n")
                if len(failures) > 5:
                    out.write(f"     ... and {len(failures) - 5} more\n")
            else:
                out.write(f"ok   {check_name} [{cases} cases]\n")
    return ok
