"""Fault injection: a relation check must see a fault in the operator it checks.

Each operator below is replaced by one returning twice its value and run
through a check that compares it with an independent route.  The pairs
matter: ce_column is computed from ch_column and cs_column from rs_rows, so
doubling ch_column or rs_rows scales both sides of check_eerie_he or
check_eerie_cs alike, and those checks cannot see it.
"""

import pytest

from symfunc import verify, vertex
from symfunc.verify import Bounds

BOUNDS = Bounds(identity_degree=3, a_max=2, k_max=2)

PAIRS = [
    ("cm_column", verify.check_eerie_cm),
    ("cs_column", verify.check_eerie_cs),
    ("ce_column", verify.check_eerie_he),
    ("ch_column", verify.check_omega_conjugation),
]


@pytest.mark.parametrize("op, check", PAIRS, ids=[op for op, _ in PAIRS])
def test_check_sees_a_doubled_operator(monkeypatch, op, check):
    _, cases, bad = check(BOUNDS)
    assert cases and not bad, bad
    original = getattr(vertex, op)
    monkeypatch.setattr(vertex, op, lambda *args: 2 * original(*args))
    _, patched_cases, patched_bad = check(BOUNDS)
    assert patched_cases == cases
    assert patched_bad
    # The memoized operator images are keyed by the function, so the doubled
    # images stay with the replaced operator.
    monkeypatch.undo()
    assert check(BOUNDS)[1:] == (cases, [])
