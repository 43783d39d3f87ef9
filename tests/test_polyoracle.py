from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symfunc import polyoracle, verify
from symfunc.partitions import Partition, partitions_of
from symfunc.polyoracle import check_conversion, first_mismatch, mul, realize, realize_symfunc
from symfunc.ring import BASES, SymFunc, basis_element

P = Partition
BOUNDS = verify.Bounds(3)

# realizations get expensive with many variables; keep |lam| <= 6 so the
# conclusive choice v = |lam| stays small
parts_strategy = st.lists(st.integers(1, 4), max_size=3).filter(
    lambda xs: sum(xs) <= 6
).map(lambda xs: P(sorted(xs, reverse=True)))


def test_product_drops_cancelled_terms():
    # (x1 + x2)(x1 - x2): the two x1*x2 terms cancel
    assert mul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}) == {(2, 0): 1, (0, 2): -1}
    assert mul({(1, 0): 1}, {}) == {}


def test_realize_examples():
    m21 = realize("m", P((2, 1)), 3)
    assert len(m21) == 6 and all(c == 1 for c in m21.values())
    assert m21[(2, 1, 0)] == 1 and m21[(0, 1, 2)] == 1

    assert realize("p", P((2,)), 2) == {(2, 0): 1, (0, 2): 1}
    assert realize("s", P((1, 1)), 2) == {(1, 1): 1}
    # too few variables for the shape
    assert realize("m", P((1, 1, 1)), 2) == {}
    assert realize("s", P((1, 1, 1)), 2) == {}
    assert realize("e", P((3,)), 2) == {}


def test_realize_symfunc_examples():
    assert realize_symfunc(basis_element("h", (2,)), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert realize_symfunc(basis_element("e", (2,)), 1) == {}
    assert realize_symfunc(SymFunc.one(), 3) == {(0, 0, 0): 1}
    # p_1 / 2 in one variable keeps its one non-integral coefficient
    assert realize_symfunc(Fraction(1, 2) * basis_element("p", (1,)), 1) == {(1,): Fraction(1, 2)}


def test_integral_coefficients_stay_int():
    # every basis element is integral on monomials, so no Fraction survives
    for b in BASES:
        for d in range(7):
            for lam in partitions_of(d):
                poly = realize_symfunc(basis_element(b, lam), 6)
                assert all(type(c) is int for c in poly.values()), (b, lam)


def test_realize_p_hands_out_a_copy():
    handed = realize("p", P((2,)), 2)
    handed[(2, 0)] = 7
    handed[(1, 1)] = 1
    assert realize("p", P((2,)), 2) == {(2, 0): 1, (0, 2): 1}


def test_check_conversion_examples():
    assert check_conversion("s", P((2, 1)), 3)
    assert check_conversion("m", P((2, 2)), 4)
    assert check_conversion("p", P((3,)), 3)


def test_first_mismatch_reports_monomial(monkeypatch):
    assert first_mismatch("h", P((2, 1)), 3) is None
    # with h realized as e, h_2 loses x1^2 and x2^2; the first of them in
    # lexicographic order is x2^2, with both coefficients
    original = polyoracle.realize
    monkeypatch.setattr(
        polyoracle, "realize", lambda b, lam, v: original("e" if b == "h" else b, lam, v)
    )
    assert first_mismatch("h", P((2,)), 2) == ((0, 2), 0, 1)


def test_conversion_check_sees_a_doubled_forgotten_basis(monkeypatch):
    # f is realized by Doubilet's count, not through the conversion it is
    # compared with, so a fault in the ring's f reaches only one side.
    check = verify.check_oracle_conversions
    _, cases, bad = verify.run_check(check, BOUNDS)
    assert cases and not bad, bad
    original = polyoracle.basis_element
    monkeypatch.setattr(
        polyoracle,
        "basis_element",
        lambda b, lam: 2 * original(b, lam) if b == "f" else original(b, lam),
    )
    _, patched_cases, patched_bad = verify.run_check(check, BOUNDS)
    assert patched_cases == cases
    assert patched_bad and all(msg.startswith("f_") for msg in patched_bad), patched_bad


@given(st.sampled_from(BASES), parts_strategy)
@settings(max_examples=60, deadline=None)
def test_conversion_random(b, lam):
    v = max(sum(lam), 1)
    assert check_conversion(b, lam, v)


@given(parts_strategy, parts_strategy)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_realization_multiplicative(lam, mu):
    v = min(max(sum(lam) + sum(mu), 1), 6)
    g1 = basis_element("h", lam)
    g2 = basis_element("s", mu)
    assert realize_symfunc(g1 * g2, v) == mul(realize_symfunc(g1, v), realize_symfunc(g2, v))


@given(st.sampled_from(BASES), parts_strategy)
@settings(max_examples=40, deadline=None)
def test_realizations_symmetric(b, lam):
    v = 4
    poly = realize(b, lam, v)
    for i in range(v - 1):
        assert {m[:i] + (m[i + 1], m[i]) + m[i + 2 :]: c for m, c in poly.items()} == poly


def test_realize_refuses_an_unknown_basis():
    with pytest.raises(ValueError) as caught:
        realize("x", Partition((1,)), 2)
    assert str(caught.value) == f"unknown basis 'x'; expected one of {BASES}"
