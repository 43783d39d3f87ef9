import inspect
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import symfunc.tableaux as tableaux
from symfunc.cli import _build_parser, main
from symfunc.partitions import Partition, compositions_of, partitions_of
from symfunc.ring import SymFunc, _jacobi_trudi_h, basis_element, expand, hn
from symfunc.tableaux import (
    PAIR_METHODS,
    bounded_height_pairs,
    bounded_height_schur_sum,
    catalan,
    closed_form_terms,
    syt_count,
    theta,
)
from symfunc.oracles import rs0_power_expansion, syt_count_brute
from symfunc.vertex import cs_column, rs_row, rs_rows

P = Partition

# brute tableau enumeration is exponential; cap the shape size
parts_strategy = st.lists(st.integers(1, 5), max_size=5).filter(
    lambda xs: sum(xs) <= 8
).map(lambda xs: P(sorted(xs, reverse=True)))


def test_syt_count_examples():
    assert syt_count(P((1, 1, 1, 1))) == 1
    assert syt_count(P((2, 1))) == 2
    assert syt_count(P((3, 2))) == 5
    assert syt_count(P(())) == 1
    # enumeration agrees on the documented cases
    assert syt_count_brute(P((2, 1))) == 2
    assert syt_count_brute(P((3, 2))) == 5


@given(parts_strategy)
@settings(max_examples=50, deadline=None)
def test_syt_hooks_vs_enumeration(lam):
    assert syt_count(lam) == syt_count_brute(lam)


def test_theta_examples():
    assert theta(basis_element("h", (3,))) == {3: Fraction(1, 6)}
    assert theta(SymFunc.one()) == {0: 1}
    assert theta(basis_element("s", (2, 1))) == {3: Fraction(1, 3)}
    assert theta(basis_element("p", (2,))) == {}
    assert theta(basis_element("p", (1, 1)) - basis_element("p", (2,))) == {2: 1}


@given(parts_strategy, parts_strategy)
@settings(max_examples=40, deadline=None)
def test_theta_multiplicative(lam, mu):
    g1 = basis_element("h", lam)
    g2 = basis_element("s", mu)
    # both are homogeneous, so each specializes to a single monomial
    ((d1, c1),) = theta(g1).items()
    ((d2, c2),) = theta(g2).items()
    assert theta(g1 * g2) == {d1 + d2: c1 * c2}


def test_schur_sum_examples():
    want = basis_element("s", (3,)) + 2 * basis_element("s", (2, 1))
    assert bounded_height_schur_sum(3, 2, "formula") == want
    assert bounded_height_schur_sum(3, 2, "operator") == want
    assert bounded_height_schur_sum(0, 4, "formula") == SymFunc.one()
    assert bounded_height_schur_sum(0, 4, "operator") == SymFunc.one()
    assert bounded_height_schur_sum(2, 1, "formula") == basis_element("s", (2,))
    with pytest.raises(ValueError):
        bounded_height_schur_sum(2, 1, "closed")
    for method in ("formula", "operator"):
        for n, k, message in (
            (3, 0, "k must be >= 1"), (0, 0, "k must be >= 1"), (-1, 2, "n must be >= 0")
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                bounded_height_schur_sum(n, k, method)


def test_schur_sum_is_syt_weighted():
    # every (n, k) of the benchmark's det pair counts lies in this range
    for n in range(9):
        for k in range(1, 6):
            want = SymFunc.sum(
                (syt_count(lam), basis_element("s", lam)) for lam in partitions_of(n, max_length=k)
            )
            assert bounded_height_schur_sum(n, k, "formula") == want, (n, k)


def test_repeated_shifted_parts_give_a_zero_determinant():
    # bounded_height_schur_sum skips a composition whose shifted parts s_j - j
    # repeat; each of these has only zero h-coordinates in its determinant
    skipped = 0
    for n in range(7):
        for k in range(1, 6):
            for s in compositions_of(n, k):
                if len({p - j for j, p in enumerate(s)}) < k:
                    skipped += 1
                    assert not any(_jacobi_trudi_h(s).values()), s
    assert skipped == 498


def test_rs0_power_expansion_examples():
    assert rs0_power_expansion(0, 2) == SymFunc.one()
    assert rs0_power_expansion(2, 1) == rs_row(0, hn(1) ** 2)
    assert rs0_power_expansion(2, 2) == rs_rows(0, 2, hn(1) ** 2)
    for n in range(5):
        for k in range(1, 3):
            assert rs0_power_expansion(n, k) == rs_rows(0, k, hn(1) ** n)


def test_pairs_examples():
    assert bounded_height_pairs(5, 1, "closed") == 1
    assert bounded_height_pairs(4, 2, "det") == 14
    assert bounded_height_pairs(3, 3, "brute") == 6
    with pytest.raises(ValueError):
        bounded_height_pairs(3, 0)
    # the message is built from PAIR_METHODS, the table behind --method
    with pytest.raises(ValueError, match="^method must be one of 'closed', 'det', 'brute'$"):
        bounded_height_pairs(3, 2, "magic")


def test_count_and_the_library_share_one_default():
    library = inspect.signature(bounded_height_pairs).parameters["method"].default
    args = _build_parser().parse_args(["count", "--n", "3", "--k", "2"])
    assert library == args.method == PAIR_METHODS[0] == "closed"


@given(st.integers(0, 7), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_pairs_methods_agree(n, k):
    closed = bounded_height_pairs(n, k, "closed")
    det = bounded_height_pairs(n, k, "det")
    brute = bounded_height_pairs(n, k, "brute")
    assert closed == det == brute


@given(st.integers(0, 8))
@settings(max_examples=20, deadline=None)
def test_pairs_catalan_and_saturation(n):
    assert bounded_height_pairs(n, 2, "closed") == catalan(n)
    assert bounded_height_pairs(n, max(n, 1), "closed") == factorial(n)


def test_pairs_clamp_height_to_n():
    # a shape of 6 boxes has at most 6 rows, so k = 12 costs what k = 6 does
    for method in PAIR_METHODS:
        assert bounded_height_pairs(6, 12, method) == bounded_height_pairs(6, 6, method) == 720


def test_catalan_examples():
    assert catalan(0) == 1
    assert catalan(4) == 14
    assert catalan(10) == 16796
    assert [catalan(n) for n in range(11)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796,
    ]


def test_closed_matches_brute_through_n16():
    # k runs past n, where the count saturates at n!
    for n in range(17):
        for k in range(1, 8):
            assert bounded_height_pairs(n, k, "closed") == bounded_height_pairs(
                n, k, "brute"
            ), (n, k)


def test_closed_terms_match_literal_formula():
    # multinomial(n; s) * prod_{i<j} (u_j - u_i) * n! / prod_i u_i!, u_i = s_i + i,
    # one Fraction per composition as written in the docstring, at the height
    # the count clamps k to: a shape of n boxes has at most n rows
    for n in range(11):
        for k in range(1, 6):
            height = min(k, max(n, 1))
            want = []
            for s in compositions_of(n, height):
                u = [s[i] + i for i in range(height)]
                term = Fraction(factorial(n))
                for part in s:
                    term /= factorial(part)
                for i in range(height):
                    for j in range(i + 1, height):
                        term *= u[j] - u[i]
                for ui in u:
                    term /= factorial(ui)
                want.append((s, term * factorial(n)))
            assert list(closed_form_terms(n, k)) == want, (n, k)


def test_closed_count_sums_the_listed_terms():
    # the count's recursion against the per-composition listing of count --verbose
    for n in range(17):
        for k in range(1, 8):
            listed = sum(term for _, term in closed_form_terms(n, k))
            assert bounded_height_pairs(n, k, "closed") == listed, (n, k)


def test_non_integral_closed_count_exits_3(capsys, monkeypatch):
    total = tableaux._closed_total

    def off_by_one(n, k):
        return total(n, k) + 1

    monkeypatch.setattr(tableaux, "_closed_total", off_by_one)
    code = main(["count", "--n", "6", "--k", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: pair count came out non-integral\n"


def test_non_integral_det_count_exits_3(capsys, monkeypatch):
    # half a pair more at every exponent: the det route's integrality check
    original = tableaux.theta

    def off_by_half(g):
        return {m: c + Fraction(1, 2 * factorial(m)) for m, c in original(g).items()}

    monkeypatch.setattr(tableaux, "theta", off_by_half)
    code = main(["count", "--n", "4", "--k", "2", "--method", "det"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: pair count came out non-integral\n"
