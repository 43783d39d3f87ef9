import math

import pytest
from hypothesis import given, strategies as st

from symfunc.partitions import (
    Partition,
    add_columns,
    compositions_of,
    conjugate,
    count_partitions,
    insert_parts,
    mult_count,
    partitions_of,
    remove_parts,
    straighten,
    z_value,
)

parts_strategy = st.lists(st.integers(1, 6), max_size=6).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def test_partition_validation():
    lam = Partition((3, 2, 2))
    assert lam == (3, 2, 2)
    assert Partition(lam) is lam
    assert Partition() == ()
    for bad in [(1, 2), (2, 0), (-1,), (True,), (2, True)]:
        with pytest.raises(ValueError):
            Partition(bad)


def test_partition_text_form():
    assert str(Partition((3, 2, 1))) == "[3,2,1]"
    assert str(Partition()) == "[]"


@pytest.mark.parametrize(
    "lam, want",
    [((2, 1), (2, 1)), ((), ()), ((3, 1), (2, 1, 1)), ((4,), (1, 1, 1, 1))],
)
def test_conjugate(lam, want):
    assert conjugate(Partition(lam)) == want


def test_conjugate_is_the_column_count():
    # column i of lam holds the parts longer than i
    for n in range(21):
        for lam in partitions_of(n):
            columns = range(lam[0] if lam else 0)
            got = conjugate(lam)
            assert type(got) is Partition, lam
            assert got == tuple(sum(1 for p in lam if p > i) for i in columns), lam


@given(parts_strategy)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@pytest.mark.parametrize("lam, want", [((1, 1, 1), 6), ((2, 1), 2), ((), 1), ((3, 3), 18)])
def test_z_value(lam, want):
    assert z_value(Partition(lam)) == want


def test_mult_count():
    assert mult_count(Partition((2, 2, 1)), 2) == 2
    assert mult_count(Partition((2, 2, 1)), 3) == 0
    assert mult_count(Partition(()), 1) == 0
    with pytest.raises(ValueError):
        mult_count(Partition((1,)), 0)


def test_add_columns():
    assert add_columns(Partition((2, 1)), 1, 3) == (3, 2, 1)
    assert add_columns(Partition((2, 1, 1)), 3, 2) is None
    assert add_columns(Partition(()), 2, 2) == (2, 2)
    assert add_columns(Partition((2, 1)), 0, 2) == (2, 1)
    assert add_columns(Partition(()), 3, 0) == ()


@given(parts_strategy, st.integers(0, 4), st.integers(0, 5))
def test_add_columns_size(lam, a, k):
    col = add_columns(lam, a, k)
    if len(lam) > k:
        assert col is None
    else:
        assert col is not None and sum(col) == sum(lam) + a * k


def test_remove_parts():
    assert remove_parts(Partition((3, 2, 2, 1)), Partition((2, 1))) == (3, 2)
    assert remove_parts(Partition((3, 2)), Partition((1,))) is None
    assert remove_parts(Partition((2, 2)), Partition((2, 2))) == ()
    # multiset semantics: removing one copy leaves the other
    assert remove_parts(Partition((2, 2)), Partition((2,))) == (2,)


def test_insert_parts():
    assert insert_parts(Partition((3, 1)), Partition((2, 2))) == (3, 2, 2, 1)
    assert insert_parts(Partition(()), Partition((4,))) == (4,)
    assert insert_parts(Partition((1,)), Partition((1,))) == (1, 1)


@given(parts_strategy, parts_strategy)
def test_insert_remove_roundtrip(lam, mu):
    assert remove_parts(insert_parts(lam, mu), mu) == lam


def test_straighten_basic():
    res = straighten((3, 1))
    assert (res.sign, res.shape) == (1, (3, 1))
    assert straighten((1, 2)).is_zero
    res = straighten((0, 2))
    assert (res.sign, res.shape) == (-1, (1, 1))
    res = straighten(())
    assert (res.sign, res.shape) == (1, ())
    assert straighten((-1,)).is_zero
    # trailing zeros are dropped from the straightened shape
    res = straighten((2, 0))
    assert (res.sign, res.shape) == (1, (2,))


@given(parts_strategy, st.permutations(range(6)))
def test_straighten_permuted_sequences(lam, perm):
    # rearrange the shifted values lam_j - j, then shift back per slot
    perm = [p for p in perm if p < len(lam)]
    shifted = [lam[j] - (j + 1) for j in range(len(lam))]
    seq = [shifted[perm[j]] + (j + 1) for j in range(len(lam))]
    inv = sum(
        1 for x in range(len(perm)) for y in range(x + 1, len(perm)) if perm[x] > perm[y]
    )
    res = straighten(seq)
    assert not res.is_zero
    assert res.shape == lam
    assert res.sign == (-1) ** inv


@given(st.lists(st.integers(-3, 8), max_size=6))
def test_straighten_preserves_weight(seq):
    res = straighten(seq)
    if not res.is_zero:
        assert res.shape is not None and sum(res.shape) == sum(seq)
        assert abs(res.sign) == 1


def test_partitions_of_order_and_bounds():
    assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(partitions_of(4, max_length=2)) == [(4,), (3, 1), (2, 2)]
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(5, max_length=0)) == []
    assert list(partitions_of(0, max_length=0)) == [()]


@pytest.mark.parametrize("n, want", list(enumerate([1, 1, 2, 3, 5, 7, 11, 15, 22, 30])))
def test_partition_numbers(n, want):
    got = list(partitions_of(n))
    assert len(got) == want == count_partitions(n)
    assert len(set(got)) == len(got)


def test_compositions_of_order():
    assert list(compositions_of(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(compositions_of(0, 3)) == [(0, 0, 0)]
    assert list(compositions_of(3, 1)) == [(3,)]


@given(st.integers(0, 7), st.integers(1, 4))
def test_composition_count(n, k):
    got = list(compositions_of(n, k))
    assert len(got) == math.comb(n + k - 1, k - 1)
    assert len(set(got)) == len(got)
    assert all(len(c) == k and sum(c) == n and min(c) >= 0 for c in got)
