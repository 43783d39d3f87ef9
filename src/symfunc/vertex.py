"""Vertex operators: row and column adders for the six classical bases.

Each operator is a linear map written as a sum of terms (multiply by a fixed
symmetric function) o (skew by another).  The defining sums are infinite but
a skew by anything of degree greater than deg(input) annihilates, so every
application truncates the index partition to |lam| <= deg(input).  All
arithmetic is exact, and every such sum runs through one kernel,
ring._perp_sum, which reads each skew from one coproduct table of the input
and adds every product into one accumulator.

Row adders insert one part of size a into the indexing partition; column
adders add a to each of its first k parts.  The action laws, in brief:

  cp_column(a, k):   p_mu -> p_{mu + a^k}            for l(mu) < k
  ch_column(k):      h_lam -> h_{lam + 1^k}          for l(lam) <= k
  ce_column(k):      e_lam -> e_{lam + 1^k}          for l(lam) <= k
  rm_row_one(a):     m_lam -> (1 + n_a(lam)) m_{lam + (a)}       (a >= 1)
  rm_rows(a, k):     m_lam -> C(n_a(lam) + k, k) m_{lam + (a^k)} (a >= 1)
  rm_row(a):         m_lam -> m_{lam + (a)}                      (a >= 1)
  rf_row(a):         f_lam -> f_{lam + (a)}                      (a >= 1)
  cm_column(a, k):   m_lam -> m_{lam + a^k}  (0 when l(lam) > k)
  cf_column(a, k):   f_lam -> f_{lam + a^k}  (0 when l(lam) > k)
  rs_row(a):         s_lam -> s_{lam + (a)} for a >= lam_1, else the
                     straightened signed Schur function or 0
  rs_rows(a, k):     the k-th power of rs_row(a) in closed form
  cs_column(a, k):   s_lam -> s_{lam + a^k}  (0 when l(lam) > k)
  t_minus_x:         constant-term extraction

Here lam + (a) inserts a part and lam + a^k adds a column of height k.  No
coefficient normalization of the row adders' action survives at a = 0, so
rm_row_one, rm_row and rf_row reject it (rm_rows still evaluates its
defining sum there).  The column adders handle a = 0: cm/cf through their
everything-operator reduction, which projects the basis expansion onto
terms of length <= k, and cs directly.

rm_row_one and rm_row are built from rm_rows: the first is its k = 1 case,
the second a signed sum of rm_rows(a, k + 1) after skewing by h_a^k.
Likewise rs_row is rs_rows(a, 1).  Each paired adder sums its partner's
action law and calls no operator: CH reads CE's, RMK and CM each other's,
RSK reads CS's and CS reads RSK's, the straightened s_{(a^k, lam)}.

Three operators are the omega-images of three others and are computed that
way: ce_column = omega o ch_column o omega, cf_column = omega o cm_column o
omega and rf_row = omega o rm_row o omega.  Their literal defining sums live
in ``oracles``, the second routes that the checks compare with, as does the
everything operator b_mu -> assignment(mu).  t_minus_x_sum stays here: it
sums through ring._perp_sum, so that check_tx_forms tests that kernel
against t_minus_x.

OPERATORS (stated in ``names``) names each operator as --op does, with its
function's name and its least a and k, the one statement of its domain: the
operators and named_operator(name, a, k) check against that row, so binding
calls nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .names import OPERATORS
from .partitions import (
    Partition,
    add_columns,
    binomial,
    conjugate,
    insert_parts,
    mult_count,
    need_int,
    partitions_upto,
    straighten,
    z_value,
)
from .ring import (
    BasisExpansion,
    SymFunc,
    _need_symfunc,
    _perp_sum,
    basis_element,
    expand,
    omega,
    pn,
    skew,
)


def _sign(lam: Partition) -> int:
    return -1 if sum(lam) % 2 else 1


def cp_column(a: int, k: int, g: SymFunc) -> SymFunc:
    """Add a column a^k to power-sum indices:

        sum over l(lam) <= k of  p_a^{k - l(lam)}
            * prod_i (p_{lam_i + a} - p_{lam_i} p_a) * p_lam^perp / z_lam.

    Sends p_mu to p_{mu + a^k} whenever l(mu) < k; the action at l(mu) = k
    and beyond is whatever the sum produces.  k = 0 is the identity, and so
    is a = 0 (setting p_0 = 1 collapses every term but lam = empty).
    """
    _check_params("CP", g, a=a, k=k)
    if k == 0 or a == 0 or g.is_zero:
        return g

    def image(lam: Partition) -> tuple[Fraction, SymFunc]:
        coeff = pn(a) ** (k - len(lam))
        for part in lam:
            coeff = coeff * (pn(part + a) - pn(part) * pn(a))
        return Fraction(1, z_value(lam)), coeff

    return _perp_sum(
        g, partitions_upto(g.degree(), max_length=k), lambda lam: basis_element("p", lam), image
    )


def ch_column(k: int, g: SymFunc) -> SymFunc:
    """Add a column 1^k to homogeneous indices:
    sum over l(lam) <= k of (-1)^{|lam|} e_{lam + 1^k} m_lam^perp."""
    _check_params("CH", g, k=k)
    return _perp_sum(
        g,
        partitions_upto(g.degree(), max_length=k),
        lambda lam: basis_element("m", lam),
        lambda lam: (_sign(lam), basis_element("e", add_columns(lam, 1, k))),
    )


def ce_column(k: int, g: SymFunc) -> SymFunc:
    """Add a column 1^k to elementary indices:
    sum over l(lam) <= k of (-1)^{|lam|} h_{lam + 1^k} f_lam^perp,
    which is omega o ch_column(k) o omega (the literal sum is an oracle in
    ``verify``)."""
    return omega(ch_column(k, omega(g)))


def rm_row_one(a: int, g: SymFunc) -> SymFunc:
    """Coefficient-carrying monomial row adder:
    sum over i >= 0 of (-1)^i m_{(a+i)} e_i^perp, for a >= 1.

    That is rm_rows(a, 1).  Sends m_lam to (1 + n_a(lam)) m_{lam + (a)}.
    """
    _check_params("RM1", g, a=a)
    return rm_rows(a, 1, g)


def rm_rows(a: int, k: int, g: SymFunc) -> SymFunc:
    """k-row monomial adder:
    sum over l(lam) <= k of (-1)^{|lam|} m_{lam + a^k} e_lam^perp.

    For a >= 1 it sends m_lam to C(n_a(lam) + k, k) m_{lam + (a^k)} and
    equals rm_row_one(a)^k / k!.  k = 0 is the identity.  The sum is still
    defined at a = 0 (each m_{lam + 0^k} is just m_lam), but no coefficient
    normalization of the action survives there, so the law above is stated
    for a >= 1 only.
    """
    _check_params("RMK", g, a=a, k=k)
    return _perp_sum(
        g,
        partitions_upto(g.degree(), max_length=k),
        lambda lam: basis_element("e", lam),
        lambda lam: (_sign(lam), basis_element("m", add_columns(lam, a, k))),
    )


def rm_row(a: int, g: SymFunc) -> SymFunc:
    """Monomial row adder without coefficient, for a >= 1:

        sum over k >= 0, l(lam) <= k + 1 of
            (-1)^{|lam| + k} m_{lam + a^{k+1}} e_lam^perp (h_a^k)^perp,

    which is the sum over k >= 0 of (-1)^k rm_rows(a, k + 1) o (h_a^k)^perp.
    Sends m_lam to m_{lam + (a)}.
    """
    _check_params("RM", g, a=a)
    return SymFunc.sum(
        ((-1) ** k, rm_rows(a, k + 1, skew(basis_element("h", Partition((a,) * k)), g)))
        for k in range(g.degree() // a + 1)
    )


def rf_row(a: int, g: SymFunc) -> SymFunc:
    """Forgotten row adder, for a >= 1:

        sum over k >= 0, l(lam) <= k + 1 of
            (-1)^{|lam| + k} f_{lam + a^{k+1}} h_lam^perp (e_a^k)^perp,

    which is omega o rm_row(a) o omega (the literal sum is an oracle in
    ``verify``).  Sends f_lam to f_{lam + (a)}.
    """
    return omega(rm_row(a, omega(g)))


def cm_column(a: int, k: int, g: SymFunc) -> SymFunc:
    """Column adder for monomial indices:

        sum over lam of (-1)^{|lam|} C(n_a(lam) + k, k) m_{lam + (a^k)} e_lam^perp

    for a >= 1.  Sends m_lam to m_{lam + a^k} when l(lam) <= k and to 0
    otherwise.  At a = 0 the displayed coefficient has no consistent
    reading, but the everything-operator construction this sum reduces from
    still applies, and there it collapses to projecting the monomial
    expansion onto terms of length <= k; that is how a = 0 is computed.
    """
    _check_params("CM", g, a=a, k=k)
    if a == 0:
        kept = {mu: c for mu, c in expand(g, "m").terms.items() if len(mu) <= k}
        return BasisExpansion("m", kept).to_symfunc()
    column = Partition((a,) * k)
    return _perp_sum(
        g,
        partitions_upto(g.degree()),
        lambda lam: basis_element("e", lam),
        lambda lam: (
            _sign(lam) * binomial(mult_count(lam, a) + k, k),
            basis_element("m", insert_parts(lam, column)),
        ),
    )


def cf_column(a: int, k: int, g: SymFunc) -> SymFunc:
    """Column adder for forgotten indices, mirror of cm_column:

        sum over lam of (-1)^{|lam|} C(n_a(lam) + k, k) f_{lam + (a^k)} h_lam^perp

    for a >= 1; a = 0 projects the forgotten expansion onto length <= k.
    Sends f_lam to f_{lam + a^k} (0 for l(lam) > k).  Computed as
    omega o cm_column(a, k) o omega (the literal sum is an oracle in
    ``verify``).
    """
    return omega(cm_column(a, k, omega(g)))


def rs_row(a: int, g: SymFunc) -> SymFunc:
    """Schur row adder (Bernstein operator), for a >= 0:
    sum over i >= 0 of (-1)^i h_{a+i} e_i^perp.

    That is rs_rows(a, 1), whose terms s_{(a+i)} s_{(1^i)}^perp are these.
    Sends s_lam to s_{lam + (a)} when a >= lam_1; for smaller a the result
    is the straightened signed Schur function (possibly 0), matching
    ``straighten((a,) + lam)``.
    """
    return rs_rows(a, 1, g)


def rs_rows(a: int, k: int, g: SymFunc) -> SymFunc:
    """Closed form of the k-th power of the Schur row adder:
    sum over l(lam) <= k of (-1)^{|lam|} s_{lam + a^k} s_{lam'}^perp."""
    _check_params("RSK", g, a=a, k=k)
    return _perp_sum(
        g,
        partitions_upto(g.degree(), max_length=k),
        lambda lam: basis_element("s", conjugate(lam)),
        lambda lam: (_sign(lam), basis_element("s", add_columns(lam, a, k))),
    )


def cs_column(a: int, k: int, g: SymFunc) -> SymFunc:
    """Column adder for Schur indices:

        sum over lam of (-1)^{|lam|} (RS_a^k s_lam) s_{lam'}^perp.

    Sends s_lam to s_{lam + a^k} when l(lam) <= k and to 0 when l(lam) > k.
    With a = 0 it therefore projects a Schur expansion onto shapes of at
    most k rows.  k = 0 reduces to constant-term extraction.  Each image
    RS_a^k s_lam is read from the law of that power of the row adder, the
    straightened s_{(a^k, lam)}: a sign times one Schur function, or 0.
    """
    _check_params("CS", g, a=a, k=k)

    def image(lam: Partition) -> tuple[int, SymFunc]:
        sign, shape = straighten((a,) * k + lam)  # sign 0: the image is 0
        return _sign(lam) * sign, (basis_element("s", shape) if sign else SymFunc.zero())

    return _perp_sum(
        g, partitions_upto(g.degree()), lambda lam: basis_element("s", conjugate(lam)), image
    )


def t_minus_x(g: SymFunc) -> SymFunc:
    """Constant-term extraction (the degree-0 component of ``g``).

    This is what the operator sum over (-1)^{|lam|} s_lam s_{lam'}^perp
    evaluates to; see ``t_minus_x_sum`` for that form, kept as an oracle.
    """
    _need_symfunc(g)
    return g.homogeneous_part(0)


# dual pair -> (omega(a_lam), b_lam) of the constant-term operator sum
_TX_PAIRS: dict[str, tuple[Callable[[Partition], SymFunc], Callable[[Partition], SymFunc]]] = {
    "ss": (lambda lam: basis_element("s", lam), lambda lam: basis_element("s", conjugate(lam))),
    "hm": (lambda lam: basis_element("e", lam), lambda lam: basis_element("m", lam)),
    "ef": (lambda lam: basis_element("h", lam), lambda lam: basis_element("f", lam)),
    "pz": (
        lambda lam: omega(basis_element("p", lam)),
        lambda lam: basis_element("p", lam) * Fraction(1, z_value(lam)),
    ),
}


def t_minus_x_sum(g: SymFunc, pair: str = "ss") -> SymFunc:
    """Constant-term extraction via the operator sum
    sum over lam of (-1)^{|lam|} omega(a_lam) b_lam^perp
    for a chosen dual pair (a, b): "ss", "hm", "ef" or "pz"."""
    _need_symfunc(g)
    if pair not in _TX_PAIRS:
        raise ValueError(f"pair must be one of {tuple(_TX_PAIRS)}")
    mult, by = _TX_PAIRS[pair]
    return _perp_sum(g, partitions_upto(g.degree()), by, lambda lam: (_sign(lam), mult(lam)))


# ---------------------------------------------------------------------------
# Named dispatch for the CLI.
# ---------------------------------------------------------------------------


def _check_params(
    name: str, *operands: object, a: Optional[int] = None, k: Optional[int] = None
) -> None:
    """need_int on ``a`` and ``k`` with the least values of OPERATORS[name],
    then _need_symfunc on the ``operands``."""
    for flag, value, least in zip("ak", (a, k), OPERATORS[name][1:]):
        if least is not None:
            need_int(value, least, flag)
    _need_symfunc(*operands)


def named_operator(
    name: str, a: Optional[int] = None, k: Optional[int] = None
) -> Callable[[SymFunc], SymFunc]:
    """The operator ``name`` of OPERATORS, as this module binds it now, with ``a``
    and ``k`` bound, as a function of one argument.  Refuses, in this order and
    without calling it, an unknown name, a missing or surplus a, k and an a, k out of range."""
    if name not in OPERATORS:
        raise ValueError(f"unknown operator {name!r}")
    for flag, value, least in zip("ak", (a, k), OPERATORS[name][1:]):
        if (value is None) != (least is None):
            need = "requires" if value is None else "takes no"
            raise ValueError(f"operator {name} {need} --{flag}")
    _check_params(name, a=a, k=k)
    return partial(globals()[OPERATORS[name][0]], *(x for x in (a, k) if x is not None))
