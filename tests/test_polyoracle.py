from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symfunc import polyoracle
from symfunc.partitions import Partition, partitions_of
from symfunc.polyoracle import (
    MultiPoly,
    check_conversion,
    first_mismatch,
    realize,
    realize_symfunc,
)
from symfunc.ring import BASES, SymFunc, basis_element

P = Partition

# realizations get expensive with many variables; keep |lam| <= 6 so the
# conclusive choice v = |lam| stays small
parts_strategy = st.lists(st.integers(1, 4), max_size=3).filter(
    lambda xs: sum(xs) <= 6
).map(lambda xs: P(sorted(xs, reverse=True)))


def test_multipoly_arity_check():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, 0, 0): 1})


def test_product_drops_cancelled_terms():
    # (x1 + x2)(x1 - x2): the two x1*x2 terms cancel
    prod = MultiPoly(2, {(1, 0): 1, (0, 1): 1}) * MultiPoly(2, {(1, 0): 1, (0, 1): -1})
    assert dict(prod.items()) == {(2, 0): 1, (0, 2): -1}


def test_realize_examples():
    m21 = realize("m", P((2, 1)), 3)
    monos = dict(m21.items())
    assert len(monos) == 6 and all(c == 1 for c in monos.values())
    assert monos.get((2, 1, 0)) == 1 and monos.get((0, 1, 2)) == 1

    assert realize("p", P((2,)), 2) == MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    assert realize("s", P((1, 1)), 2) == MultiPoly(2, {(1, 1): 1})
    # too few variables for the shape
    assert realize("m", P((1, 1, 1)), 2).is_zero
    assert realize("s", P((1, 1, 1)), 2).is_zero
    assert realize("e", P((3,)), 2).is_zero


def test_realize_symfunc_examples():
    assert realize_symfunc(basis_element("h", (2,)), 2) == MultiPoly(
        2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    )
    assert realize_symfunc(basis_element("e", (2,)), 1).is_zero
    assert realize_symfunc(SymFunc.one(), 3) == MultiPoly.one(3)


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
    assert realize_symfunc(g1 * g2, v) == realize_symfunc(g1, v) * realize_symfunc(g2, v)


@given(st.sampled_from(BASES), parts_strategy)
@settings(max_examples=40, deadline=None)
def test_realizations_symmetric(b, lam):
    v = 4
    poly = realize(b, lam, v)
    for i in range(v - 1):
        assert poly.swap_vars(i, i + 1) == poly
