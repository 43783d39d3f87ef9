from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symfunc.expressions import ParseError, parse_expression
from symfunc.partitions import Partition, partitions_of
from symfunc.ring import BASES, SymFunc, basis_element, expand, hn, pn

P = Partition


def test_single_atom():
    assert parse_expression("h[2,1]") == basis_element("h", P((2, 1)))


def test_combination():
    want = Fraction(3, 2) * basis_element("s", P((2, 1))) - pn(3)
    assert parse_expression("3/2*s[2,1] - p[3]") == want


def test_power_shorthand():
    assert parse_expression("h[1]^4") == hn(1) ** 4
    assert parse_expression("p[2]^0") == SymFunc.one()


def test_products_and_constants():
    assert parse_expression("p[3]*h[1]") == pn(3) * hn(1)
    assert parse_expression("1") == SymFunc.one()
    assert parse_expression("5/3") == Fraction(5, 3) * SymFunc.one()
    assert parse_expression("2*3") == 6 * SymFunc.one()
    assert parse_expression("e[]") == SymFunc.one()


def test_signs_and_whitespace():
    assert parse_expression("-p[2]") == -pn(2)
    assert parse_expression("+p[2]") == pn(2)
    assert parse_expression("  h[ 2 , 1 ] - 1 ") == basis_element("h", P((2, 1))) - SymFunc.one()
    assert parse_expression("p[2]-p[2]").is_zero


@pytest.mark.parametrize(
    "src",
    ["", "h[", "h[2,", "h[1,2]", "q[2]", "3/0", "h[2]]", "p[2] +", "*p[2]", "h[0]"],
)
def test_parse_errors(src):
    with pytest.raises(ParseError) as exc:
        parse_expression(src)
    assert "position" in str(exc.value)


BASIS = "expected a basis letter p/m/e/h/s/f or a number"
INTEGER = "expected an integer"
TRAILING = "unexpected trailing input"


@pytest.mark.parametrize(
    "src, pos, message",
    [
        ("", 0, BASIS),
        (" ", 0, BASIS),
        ("h[", 1, INTEGER),
        ("h[2,", 3, INTEGER),
        ("h[1,2]", 0, "parts must be weakly decreasing, got (1, 2)"),
        (" h[0]", 1, "parts must be positive integers, got (0,)"),
        ("q[2]", 0, BASIS),
        ("*p[2]", 0, BASIS),
        ("3/0", 2, "zero denominator"),
        ("1/", 1, INTEGER),
        ("h[2]]", 4, TRAILING),
        ("h[1]2", 4, TRAILING),
        ("p[2] +", 5, BASIS),
        ("p[1 2]", 4, "expected ']'"),
        ("h[]^", 3, INTEGER),
        ("p[3] @ h[1]", 5, TRAILING),
    ],
)
def test_parse_error_table(src, pos, message):
    # every ParseError branch: its 0-based position, clamped to the last
    # character, and its message
    with pytest.raises(ParseError) as exc:
        parse_expression(src)
    assert exc.value.pos == pos
    assert str(exc.value) == f"{message} (at position {pos + 1})"


def test_only_decimal_digits_are_numbers():
    # '²' is a digit to str.isdigit but not to int(); other scripts' decimal
    # digits are numbers, as int() reads them
    for src, pos in (("p[²]", 2), ("²", 0), ("h[1]^²", 5)):
        with pytest.raises(ParseError) as exc:
            parse_expression(src)
        assert exc.value.pos == pos, src
    assert parse_expression("p[٣]") == pn(3)
    assert parse_expression("٣/٢*h[١]") == Fraction(3, 2) * hn(1)


def test_rational_factors_keep_their_meaning():
    one = SymFunc.one()
    assert parse_expression("p[1]*2") == 2 * pn(1)
    assert parse_expression("2^3*h[1]") == 8 * hn(1)
    assert parse_expression("2^3") == 8 * one
    assert parse_expression("1/2^2") == Fraction(1, 4) * one
    assert parse_expression("0*p[1]").is_zero
    assert parse_expression("0^0") == one
    assert parse_expression("s[]") == one
    assert parse_expression("-s[] + 1").is_zero
    assert parse_expression("h[1]^0") == one
    assert parse_expression("3/2*s[2,1]*2/3") == basis_element("s", P((2, 1)))
    assert parse_expression("2*h[1]*1/4*p[2]*3") == Fraction(3, 2) * hn(1) * pn(2)
    assert parse_expression("- 1/2*p[1]^2 - 2") == -Fraction(1, 2) * pn(1) ** 2 - 2 * one


def test_print_parse_roundtrip_degree_8():
    g = (
        Fraction(3, 2) * basis_element("s", P((4, 2, 1, 1)))
        - basis_element("h", P((3, 2))) * basis_element("e", P((2, 1)))
        + Fraction(5, 7) * basis_element("m", P((2, 2, 2, 2)))
        - Fraction(1, 3) * pn(8)
        + basis_element("f", P((3, 1)))
        + 2 * SymFunc.one()
    )
    assert g.degree() == 8
    for b in BASES:
        assert parse_expression(expand(g, b).to_text()) == g, b


def test_error_position_is_annotated():
    with pytest.raises(ParseError) as exc:
        parse_expression("p[3] @ h[1]")
    assert exc.value.pos == 5


@given(
    st.sampled_from(BASES),
    st.lists(st.integers(1, 5), max_size=4).filter(lambda xs: sum(xs) <= 8),
)
@settings(max_examples=80, deadline=None)
def test_print_parse_roundtrip_single(b, parts):
    lam = P(sorted(parts, reverse=True))
    g = basis_element(b, lam)
    for dst in BASES:
        assert parse_expression(expand(g, dst).to_text()) == g


@given(
    st.sampled_from(BASES),
    st.lists(
        st.tuples(
            st.integers(-3, 3),
            st.lists(st.integers(1, 4), max_size=3),
        ),
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_print_parse_roundtrip_combination(b, spec):
    g = SymFunc.zero()
    for coeff, parts in spec:
        g = g + coeff * basis_element(b, P(sorted(parts, reverse=True)))
    assert parse_expression(expand(g, b).to_text()) == g


@st.composite
def spaced_expansions(draw):
    # a combination of degree <= 6 printed in one basis, with whitespace
    # drawn into each gap between characters that are not both digits
    b = draw(st.sampled_from(BASES))
    g = SymFunc.sum(
        (Fraction(num, den), basis_element(b, lam))
        for num, den, lam in draw(
            st.lists(
                st.tuples(
                    st.integers(-9, 9),
                    st.integers(1, 4),
                    st.sampled_from([lam for d in range(7) for lam in partitions_of(d)]),
                ),
                max_size=4,
            )
        )
    )
    text = expand(g, draw(st.sampled_from(BASES))).to_text()
    spaces = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\u2003"])
    out = text[:1]
    for prev, ch in zip(text, text[1:]):
        out += ch if prev.isdecimal() and ch.isdecimal() else draw(spaces) + ch
    return g, draw(spaces) + out + draw(spaces)


@given(spaced_expansions())
@settings(max_examples=150, deadline=None)
def test_whitespace_between_tokens_is_ignored(case):
    g, text = case
    assert parse_expression(text) == g, text
