from fractions import Fraction
from unittest.mock import Mock

import pytest
from hypothesis import given, settings, strategies as st

from symfunc import partitions, ring, vertex
from symfunc.partitions import (
    Partition,
    add_columns,
    compositions_of,
    insert_parts,
    mult_count,
    partitions_of,
    partitions_upto,
    straighten,
    z_value,
)
from symfunc.ring import SymFunc, basis_element, en, hn, pn, skew
from symfunc.tableaux import (
    bounded_height_pairs,
    bounded_height_schur_sum,
    catalan,
    closed_form_terms,
    theta,
)
from symfunc.oracles import ce_column_literal, cf_column_literal, everything_op, rf_row_literal
from symfunc.vertex import (
    OPERATORS,
    ce_column,
    cf_column,
    ch_column,
    cm_column,
    cp_column,
    cs_column,
    named_operator,
    rf_row,
    rm_row,
    rm_row_one,
    rm_rows,
    rs_row,
    rs_rows,
    t_minus_x,
    t_minus_x_sum,
)

P = Partition
b = basis_element
one = SymFunc.one()

# operator sums touch shapes of size |lam| + a*k; keep the seed small
parts_strategy = st.lists(st.integers(1, 4), max_size=4).filter(
    lambda xs: sum(xs) <= 6
).map(lambda xs: P(sorted(xs, reverse=True)))


# --- documented single-shot actions ----------------------------------------


def test_cp_examples():
    assert cp_column(2, 2, one) == b("p", (2, 2))
    assert cp_column(2, 2, pn(1)) == b("p", (3, 2))
    assert cp_column(3, 0, pn(2)) == pn(2)
    assert cp_column(0, 3, pn(2)) == pn(2)


def test_cp_boundary_length_recorded_not_asserted():
    # The action law is only contractual for l(mu) < k.  At l(mu) == k the
    # defining sum still happens to add the column on these inputs; recorded
    # here as an observation, deliberately not part of the asserted law.
    assert cp_column(2, 1, pn(1)) == b("p", (3,))
    assert cp_column(2, 2, b("p", (2, 1))) == b("p", (4, 3))


def test_ch_examples():
    assert ch_column(2, b("h", (2,))) == b("h", (3, 1))
    assert ch_column(2, one) == b("h", (1, 1))
    assert ch_column(3, b("h", (2, 2))) == b("h", (3, 3, 1))
    with pytest.raises(ValueError):
        ch_column(0, one)


def test_ce_examples():
    assert ce_column(2, b("e", (2,))) == b("e", (3, 1))
    assert ce_column(2, one) == b("e", (1, 1))
    assert ce_column(1, b("e", (3,))) == b("e", (4,))


def test_rm_row_one_examples():
    assert rm_row_one(1, b("m", (1,))) == 2 * b("m", (1, 1))
    assert rm_row_one(2, one) == b("m", (2,))
    assert rm_row_one(2, b("m", (2, 1))) == 2 * b("m", (2, 2, 1))
    with pytest.raises(ValueError):
        rm_row_one(0, one)


def test_rm_rows_examples():
    assert rm_rows(1, 2, b("m", (1,))) == 3 * b("m", (1, 1, 1))
    assert rm_rows(2, 1, one) == b("m", (2,))
    assert rm_rows(7, 0, b("h", (2,))) == b("h", (2,))


def test_rm_rows_width_zero_sum_is_defined():
    # no coefficient law holds at a = 0, but the defining sum is still total
    assert rm_rows(0, 2, one) == one
    assert rm_rows(0, 1, b("m", (1,))).is_zero


def test_rm_row_examples():
    assert rm_row(2, b("m", (2, 1))) == b("m", (2, 2, 1))
    assert rm_row(1, b("m", (1, 1))) == b("m", (1, 1, 1))
    assert rm_row(3, one) == b("m", (3,))
    with pytest.raises(ValueError):
        rm_row(0, one)


def test_rf_row_examples():
    assert rf_row(2, b("f", (2, 1))) == b("f", (2, 2, 1))
    assert rf_row(1, one) == b("f", (1,))
    assert rf_row(1, b("f", (1,))) == b("f", (1, 1))
    with pytest.raises(ValueError):
        rf_row(0, one)


def test_cm_examples():
    assert cm_column(2, 2, b("m", (1,))) == b("m", (3, 2))
    assert cm_column(1, 1, b("m", (2, 1))).is_zero
    assert cm_column(2, 2, one) == b("m", (2, 2))


def test_cm_width_zero_projects_short_shapes():
    assert cm_column(0, 2, b("m", (2, 1))) == b("m", (2, 1))
    assert cm_column(0, 1, b("m", (2, 1))).is_zero
    g = b("m", (3,)) + 2 * b("m", (1, 1, 1))
    assert cm_column(0, 2, g) == b("m", (3,))


def test_cf_examples():
    assert cf_column(2, 2, b("f", (1,))) == b("f", (3, 2))
    assert cf_column(1, 1, b("f", (2, 1))).is_zero
    assert cf_column(1, 2, one) == b("f", (1, 1))
    assert cf_column(0, 2, b("f", (1, 1))) == b("f", (1, 1))


def test_rs_examples():
    assert rs_row(2, b("s", (2,))) == b("s", (2, 2))
    assert rs_row(1, b("s", (2,))).is_zero
    assert rs_row(0, b("s", (2,))) == -1 * b("s", (1, 1))
    assert rs_row(3, one) == b("s", (3,))


def test_rs_rows_examples():
    assert rs_rows(1, 2, one) == b("s", (1, 1))
    assert rs_rows(2, 2, b("s", (1,))) == b("s", (2, 2, 1))
    assert rs_rows(2, 0, b("h", (2,))) == b("h", (2,))


def test_cs_examples():
    assert cs_column(1, 2, b("s", (1,))) == b("s", (2, 1))
    assert cs_column(0, 2, b("s", (1, 1, 1))).is_zero
    assert cs_column(0, 2, b("s", (2, 1))) == b("s", (2, 1))


def test_cs_column_does_not_call_rs_rows(monkeypatch):
    # CS reads RSK's law, so the paired Schur check sees a fault in either.
    rs_rows_before = vertex.rs_rows
    monkeypatch.setattr(vertex, "rs_rows", lambda a, k, g: 2 * rs_rows_before(a, k, g))
    assert cs_column(1, 2, b("s", (1,))) == b("s", (2, 1))


def test_cs_width_zero_is_height_projection():
    g = b("s", (3, 1)) + 5 * b("s", (2, 1, 1))
    assert cs_column(0, 2, g) == b("s", (3, 1))
    assert cs_column(0, 0, g + one) == one


def test_t_minus_x():
    assert t_minus_x(one) == one
    assert t_minus_x(b("s", (2, 1))).is_zero
    assert t_minus_x(pn(2) + 3 * one) == 3 * one


@pytest.mark.parametrize("pair", ["ss", "hm", "ef", "pz"])
def test_t_minus_x_sum_forms(pair):
    g = pn(2) * pn(1) + Fraction(5, 2) * one + hn(3)
    assert t_minus_x_sum(g, pair) == t_minus_x(g)
    with pytest.raises(ValueError):
        t_minus_x_sum(g, "xy")


def test_everything_op():
    assert everything_op("h", lambda mu: b("m", mu), b("h", (2, 1))) == b("m", (2, 1))

    def add_column_1_2(mu):
        col = add_columns(mu, 1, 2)
        return SymFunc.zero() if col is None else b("s", col)

    assert everything_op("s", add_column_1_2, b("s", (1,))) == b("s", (2, 1))
    assert everything_op("p", lambda mu: SymFunc.zero(), pn(3)).is_zero
    with pytest.raises(LookupError, match=r"\[2\]"):
        everything_op("h", lambda mu: None, hn(2))


# --- property-based spot checks (full sweeps run in the acceptance gate) ----


@given(parts_strategy, st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_rm_row_action_random(lam, a):
    assert rm_row(a, b("m", lam)) == b("m", insert_parts(lam, P((a,))))


@given(parts_strategy, st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_rmk_action_random(lam, a, k):
    from symfunc.partitions import binomial

    want = binomial(mult_count(lam, a) + k, k) * b("m", insert_parts(lam, P((a,) * k)))
    assert rm_rows(a, k, b("m", lam)) == want


@given(parts_strategy, st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_rs_action_matches_straighten(lam, a):
    got = rs_row(a, b("s", lam))
    res = straighten((a,) + tuple(lam))
    want = SymFunc.zero() if res.is_zero else res.sign * b("s", res.shape)
    assert got == want


@given(parts_strategy, st.integers(0, 2), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_cs_action_random(lam, a, k):
    col = add_columns(lam, a, k)
    got = cs_column(a, k, b("s", lam))
    if col is None:
        assert got.is_zero
    else:
        assert got == b("s", col)


@given(parts_strategy, st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_omega_conjugation_random(lam, k):
    # the library computes these as omega o X o omega; compare the literal sums
    g = b("p", lam)
    assert ce_column(k, g) == ce_column_literal(k, g)
    assert cf_column(1, k, g) == cf_column_literal(1, k, g)
    assert cf_column(0, k, g) == cf_column_literal(0, k, g)
    assert rf_row(k, g) == rf_row_literal(k, g)


# --- the kernel every operator sums through ----------------------------------

# 3 p_2 - p_11 skews p_21 + p_111 to 0: 3 * 2 p_1 - 6 p_1, a numerator that cancels
_CANCELLING = 3 * pn(2) - b("p", (1, 1))
_CANCELLED = b("p", (2, 1)) + b("p", (1, 1, 1))

_small = st.lists(st.integers(1, 3), max_size=3).filter(lambda xs: sum(xs) <= 3).map(
    lambda xs: P(sorted(xs, reverse=True))
)
# non-homogeneous operands with fractional coefficients, the zero operand
# among them, sometimes plus a part that _CANCELLING annihilates
_operands = st.tuples(
    st.lists(
        st.tuples(
            st.fractions(-3, 3, max_denominator=4), st.sampled_from("pmhesf"), _small
        ),
        max_size=3,
    ),
    st.booleans(),
).map(
    lambda drawn: SymFunc.sum(
        [(c, b(x, lam)) for c, x, lam in drawn[0]] + [(int(drawn[1]), _CANCELLED)]
    )
)


def _kernel_terms(by_basis, cancel, image_basis, coefficient):
    """A (by, image) pair as the operators pass it, and by as a function for
    the literal sum: by(lam) is b_lam, or b_lam * _CANCELLING, or "p", the
    power sums the kernel walks by g's table keys; image(lam) is (c, f) with
    c one of the operators' coefficient kinds and f a basis element two
    boxes larger, or (0, 0), as CS's straighten sign 0 gives, on odd
    lengths."""

    def by(lam):
        f = b(by_basis, lam)
        return f * _CANCELLING if cancel else f

    def image(lam):
        if coefficient == "zero" and len(lam) % 2:
            return 0, SymFunc.zero()
        c = Fraction(1, z_value(lam)) if coefficient == "z" else (-1) ** sum(lam)
        return c, b(image_basis, insert_parts(lam, P((2,))))

    if by_basis == "p-walk":
        return "p", lambda lam: b("p", lam), image
    return by, by, image


@given(
    _operands,
    st.sampled_from(("p-walk",) + tuple("pmhesf")),
    st.booleans(),
    st.sampled_from("pmhesf"),
    st.sampled_from(("z", "sign", "zero")),
    st.one_of(st.none(), st.integers(0, 4)),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_kernel_is_the_literal_sum(g, by_basis, cancel, image_basis, coefficient, max_length):
    by, literal_by, image = _kernel_terms(by_basis, cancel, image_basis, coefficient)
    lams = partitions_upto(g.degree(), max_length)
    want = SymFunc.sum((c, f * skew(literal_by(lam), g)) for lam in lams for c, f in (image(lam),))
    assert ring._perp_sum(g, by, image, max_length) == want


def test_kernel_skips_the_image_of_a_cancelled_skew():
    # every numerator of _CANCELLING^perp _CANCELLED cancels, so no image is
    # asked for; skewing by 1 leaves _CANCELLED, whose image is asked for once
    image = Mock(return_value=(1, one))
    assert ring._perp_sum(_CANCELLED, lambda lam: _CANCELLING, image, 0).is_zero
    image.assert_not_called()
    got = ring._perp_sum(_CANCELLED, lambda lam: one, image, 0)
    assert got == _CANCELLED
    image.assert_called_once_with(P(()))
    assert ring._perp_sum(SymFunc.zero(), lambda lam: one, image, 0).is_zero


def test_p_walk_asks_only_for_the_table_keys():
    # p_lam^perp g is nonzero only for lam a sub-multiset of an index of g,
    # so the p-walk asks for the image of those alone, of at most max_length
    # parts
    g = b("p", (3, 1)) - b("p", (2,))
    image = Mock(return_value=(1, one))
    ring._perp_sum(g, "p", image, 1)
    asked = {call.args[0] for call in image.call_args_list}
    assert asked == {P(()), P((3,)), P((1,)), P((2,))}


def test_short_walk_at_high_degree_enumerates_no_whole_degree_past_20():
    # m_lam^perp p_30 for l(lam) <= 1 needs the 31 one-part lam, not the
    # 25,915 partitions of 21..30
    partitions._all_partitions.cache_clear()
    image = Mock(return_value=(1, one))
    got = ring._perp_sum(pn(30), lambda lam: b("m", lam), image, 1)
    assert got == pn(30) + 30 * one and image.call_count == 2
    assert partitions._all_partitions.cache_info().currsize <= 21


def test_cp_at_degree_100_interns_a_handful_of_partitions():
    # walking every partition of length <= 3 up to degree 100 would intern
    # 30,787 of them for this one-term result
    g = pn(100)
    before = len(ring._PARTITION)
    assert cp_column(50, 3, g) == b("p", (150, 50, 50))
    assert len(ring._PARTITION) - before < 10


def test_rs_anticommutation_small():
    for mu in list(partitions_of(0)) + list(partitions_of(2)) + list(partitions_of(4)):
        g = b("s", mu)
        for a in range(3):
            for bb in range(1, 3):
                lhs = rs_row(a, rs_row(bb, g))
                rhs = rs_row(bb - 1, rs_row(a + 1, g))
                assert lhs == -1 * rhs
            assert rs_row(a, rs_row(a + 1, g)).is_zero


# --- dispatch ----------------------------------------------------------------


def test_operator_spec_validation():
    # the operator name and its parameters are checked when they are bound,
    # before the operator sees any input: the name, a's and then k's
    # presence, a's and then k's range
    named_operator("CS", a=0, k=2)
    named_operator("TX")
    named_operator("RS", a=1)
    for name, a, k, message in (
        ("CS", 1, None, "operator CS requires --k"),
        ("TX", 1, None, "operator TX takes no --a"),
        ("CH", 2, 1, "operator CH takes no --a"),
        ("NOPE", None, None, "unknown operator 'NOPE'"),
        ("RS", -1, None, "a must be >= 0"),
        ("CS", -1, None, "operator CS requires --k"),
        ("CM", -1, 0, "a must be >= 0"),
        ("CM", 0, 0, "k must be >= 1"),
        ("RM1", 0, None, "a must be >= 1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            named_operator(name, a, k)


def test_binding_never_calls_the_operator(monkeypatch):
    # the ranges come from OPERATORS, so an operator that fails on every
    # input still binds
    for name, (fn_name, least_a, least_k) in OPERATORS.items():
        monkeypatch.setattr(vertex, fn_name, Mock(side_effect=AssertionError(name)))
        named_operator(name, least_a, least_k)


def _refusals(label, call, name, least):
    """The three refusals of parameter ``name`` of ``call(x)``: a float and a
    bool are TypeErrors, and ``least - 1`` is below its domain."""
    return {
        label: (lambda: call(least - 1), ValueError, f"{name} must be >= {least}"),
        f"{label} float": (lambda: call(2.0), TypeError, f"{name} must be an int, not float"),
        f"{label} bool": (lambda: call(True), TypeError, f"{name} must be an int, not bool"),
    }


# direct calls past named_operator, each with the exact refusal it must give;
# every integer count or parameter goes through partitions.need_int
_REFUSALS = {
    **_refusals("cp_column a", lambda x: cp_column(x, 1, one), "a", 0),
    **_refusals("cp_column k", lambda x: cp_column(1, x, one), "k", 0),
    **_refusals("ch_column k", lambda x: ch_column(x, one), "k", 1),
    **_refusals("ce_column k", lambda x: ce_column(x, one), "k", 1),
    **_refusals("rm_row_one a", lambda x: rm_row_one(x, one), "a", 1),
    **_refusals("rm_rows a", lambda x: rm_rows(x, 1, one), "a", 0),
    **_refusals("rm_rows k", lambda x: rm_rows(1, x, one), "k", 0),
    **_refusals("rm_row a", lambda x: rm_row(x, one), "a", 1),
    **_refusals("rf_row a", lambda x: rf_row(x, one), "a", 1),
    **_refusals("cm_column a", lambda x: cm_column(x, 1, one), "a", 0),
    **_refusals("cm_column k", lambda x: cm_column(1, x, one), "k", 1),
    **_refusals("cf_column a", lambda x: cf_column(x, 1, one), "a", 0),
    **_refusals("cf_column k", lambda x: cf_column(1, x, one), "k", 1),
    **_refusals("rs_row a", lambda x: rs_row(x, one), "a", 0),
    **_refusals("rs_rows a", lambda x: rs_rows(x, 1, one), "a", 0),
    **_refusals("rs_rows k", lambda x: rs_rows(1, x, one), "k", 0),
    **_refusals("cs_column a", lambda x: cs_column(x, 1, one), "a", 0),
    **_refusals("cs_column k", lambda x: cs_column(1, x, one), "k", 0),
    **_refusals("named_operator a", lambda x: named_operator("RM", x), "a", 1),
    **_refusals("named_operator k", lambda x: named_operator("CS", 1, x), "k", 0),
    **_refusals("partitions_of n", lambda x: partitions_of(x), "n", 0),
    **_refusals(
        "partitions_of max_length", lambda x: partitions_of(3, max_length=x), "max_length", 0
    ),
    **_refusals("compositions_of n", lambda x: compositions_of(x, 2), "n", 0),
    **_refusals("compositions_of k", lambda x: compositions_of(3, x), "k", 1),
    **_refusals("add_columns a", lambda x: add_columns(P((1,)), x, 2), "a", 0),
    **_refusals("add_columns k", lambda x: add_columns(P((1,)), 1, x), "k", 0),
    **_refusals("mult_count", lambda x: mult_count(P((1,)), x), "part size", 1),
    **_refusals("power", lambda x: hn(2) ** x, "exponent", 0),
    **_refusals("hn", hn, "n", 0),
    **_refusals("en", en, "n", 0),
    **_refusals("pn", pn, "n", 0),
    **_refusals("pairs n", lambda x: bounded_height_pairs(x, 2), "n", 0),
    **_refusals("pairs k", lambda x: bounded_height_pairs(3, x), "k", 1),
    **_refusals("schur_sum n", lambda x: bounded_height_schur_sum(x, 2), "n", 0),
    **_refusals("schur_sum k", lambda x: bounded_height_schur_sum(3, x), "k", 1),
    **_refusals("closed_form_terms n", lambda x: closed_form_terms(x, 2), "n", 0),
    **_refusals("closed_form_terms k", lambda x: closed_form_terms(3, x), "k", 1),
    **_refusals("catalan", catalan, "n", 0),
    # an operand that is not a SymFunc, one case per public operator
    **{
        f"{label} operand": (call, TypeError, "operands are SymFunc, not int")
        for label, call in (
            ("cp_column", lambda: cp_column(1, 2, 3)),
            ("ch_column", lambda: ch_column(2, 3)),
            ("ce_column", lambda: ce_column(2, 3)),
            ("rm_row_one", lambda: rm_row_one(1, 3)),
            ("rm_rows", lambda: rm_rows(1, 2, 3)),
            ("rm_row", lambda: rm_row(1, 3)),
            ("rf_row", lambda: rf_row(1, 3)),
            ("cm_column", lambda: cm_column(1, 2, 3)),
            ("cf_column", lambda: cf_column(1, 2, 3)),
            ("rs_row", lambda: rs_row(1, 3)),
            ("rs_rows", lambda: rs_rows(1, 2, 3)),
            ("cs_column", lambda: cs_column(1, 1, 3)),
            ("t_minus_x", lambda: t_minus_x(3)),
            ("t_minus_x_sum", lambda: t_minus_x_sum(3)),
            ("theta", lambda: theta(3)),
        )
    },
    # a float that would bind and then fail inside a bit shift on use
    "named_operator CS a=1.0": (
        lambda: named_operator("CS", 1.0, 2), TypeError, "a must be an int, not float"
    ),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_direct_calls_refuse_bad_parameters(case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error, match=f"^{message}$") as caught:
        call()
    assert type(caught.value) is error


# each registry entry against the direct call; a != k catches swapped parameters
_DIRECT = {
    "CP": lambda g: cp_column(1, 2, g),
    "CH": lambda g: ch_column(2, g),
    "CE": lambda g: ce_column(2, g),
    "RM1": lambda g: rm_row_one(1, g),
    "RMK": lambda g: rm_rows(1, 2, g),
    "RM": lambda g: rm_row(1, g),
    "RF": lambda g: rf_row(1, g),
    "CM": lambda g: cm_column(1, 2, g),
    "CF": lambda g: cf_column(1, 2, g),
    "RS": lambda g: rs_row(1, g),
    "RSK": lambda g: rs_rows(1, 2, g),
    "CS": lambda g: cs_column(1, 2, g),
    "TX": t_minus_x,
}


def test_operators_name_functions_of_the_module():
    # the registry holds names, so it never keeps a function the module
    # no longer binds
    for name, (fn_name, least_a, least_k) in OPERATORS.items():
        assert type(fn_name) is str and callable(getattr(vertex, fn_name)), name
        assert all(x is None or type(x) is int for x in (least_a, least_k)), name


@pytest.mark.parametrize("name", list(OPERATORS))
def test_apply_operator_dispatch(name):
    # named_operator is the dispatch behind ``symfunc apply --op``
    _, least_a, least_k = OPERATORS[name]
    op = named_operator(
        name, 1 if least_a is not None else None, 2 if least_k is not None else None
    )
    g = pn(2) * pn(1) + 2 * hn(2) + 3 * one
    assert op(g) == _DIRECT[name](g)
