"""Fault injection: a check must see a fault in the operator it checks.

Each operator below is replaced by one returning twice its value and run
through a check that compares it with an independent route.  The pairs
matter: ce_column is computed from ch_column and cs_column from rs_rows, so
doubling ch_column or rs_rows scales both sides of check_eerie_he or
check_eerie_cs alike, and those checks cannot see it.  The action laws are
checked through vertex.named_operator, the CLI's dispatch, which looks each
function up on the module when it binds it, so there too the module
attribute is doubled.
"""

from pathlib import Path

import pytest

from symfunc import cli, verify, vertex
from symfunc.ring import basis_element
from symfunc.verify import Bounds

BOUNDS = Bounds(3)

PAIRS = [
    ("cm_column", verify.check_eerie_cm),
    ("cs_column", verify.check_eerie_cs),
    ("ce_column", verify.check_eerie_he),
    ("ch_column", verify.check_omega_conjugation),
    ("rs_rows", verify.check_rsk_vs_composition),
]


@pytest.mark.parametrize("op, check", PAIRS, ids=[op for op, _ in PAIRS])
def test_check_sees_a_doubled_operator(monkeypatch, op, check):
    _, cases, bad = verify.run_check(check, BOUNDS)
    assert cases and not bad, bad
    original = getattr(vertex, op)
    monkeypatch.setattr(vertex, op, lambda *args: 2 * original(*args))
    _, patched_cases, patched_bad = verify.run_check(check, BOUNDS)
    assert patched_cases == cases
    assert patched_bad
    # The memoized operator images are keyed by the function, so the doubled
    # images stay with the replaced operator.
    monkeypatch.undo()
    assert verify.run_check(check, BOUNDS)[1:] == (cases, [])


def test_failure_report_is_pinned(monkeypatch, capsys):
    # A doubled cm_column fails two identities: CF is its omega-conjugate.
    # The report gives each failing check's first five messages and counts
    # the rest, byte for byte as pinned.
    original = vertex.cm_column
    monkeypatch.setattr(vertex, "cm_column", lambda *args: 2 * original(*args))
    code = cli.main(["verify", "--suite", "identities", "--max-degree", "3"])
    assert code == 1
    want = (Path(__file__).parent / "verify_doubled_cm.txt").read_text()
    assert capsys.readouterr().out == want


# OPERATORS name -> the action-law check that covers it
ACTION_CHECKS = {
    op: check
    for check in verify.SUITES["actions"]
    for op, *_ in verify.ACTION_LAWS[check.check_name]
}


def test_action_laws_cover_the_registry():
    # TX is no adder, and RSK, the k-th power of RS, is checked against
    # composition (check_rsk_vs_composition) rather than by a law of its own.
    assert set(ACTION_CHECKS) == set(vertex.OPERATORS) - {"TX", "RSK"}


@pytest.mark.parametrize("op", sorted(ACTION_CHECKS))
def test_action_check_sees_a_doubled_operator(monkeypatch, op):
    bounds = Bounds(3)
    check = ACTION_CHECKS[op]
    _, cases, bad = verify.run_check(check, bounds)
    assert cases and not bad, bad
    fn_name = vertex.OPERATORS[op][0]
    original = getattr(vertex, fn_name)
    monkeypatch.setattr(vertex, fn_name, lambda *args: 2 * original(*args))
    _, patched_cases, patched_bad = verify.run_check(check, bounds)
    assert patched_cases == cases
    assert any(msg.startswith(f"{op} ") for msg in patched_bad), patched_bad
    monkeypatch.undo()
    assert verify.run_check(check, bounds)[1:] == (cases, [])


def test_replaced_operator_is_the_one_applied(monkeypatch, capsys):
    # apply --op and the action checks both bind the function the module
    # holds when named_operator runs.
    check = ACTION_CHECKS["CS"]
    g = basis_element("s", (2, 1))
    original = vertex.cs_column
    monkeypatch.setattr(vertex, "cs_column", lambda *args: 2 * original(*args))
    assert vertex.named_operator("CS", 1, 2)(g) == 2 * original(1, 2, g)
    assert cli.main(["apply", "--op", "CS", "--a", "1", "--k", "2", "s[2,1]", "--basis", "s"]) == 0
    assert capsys.readouterr().out == "2*s[3,2]\n"
    assert verify.run_check(check, BOUNDS)[2]
    monkeypatch.undo()
    assert vertex.named_operator("CS", 1, 2)(g) == original(1, 2, g)
    assert verify.run_check(check, BOUNDS)[2] == []


FIELDS = (
    "degree", "identity_degree", "a_max", "k_max", "pairs_n", "pairs_k",
    "lemma_n", "lemma_k", "rsform_n", "rsform_k", "oracle_degree", "oracle_vars",
)

# (depth, oracle, every range in FIELDS order): the sweeps that
# `symfunc verify --max-degree D [--oracle]` has always run, written out.
SCHEDULE = (
    (0, False, (0, 0, 2, 2, 6, 3, 1, 3, 0, 2, 0, 2)),
    (0, True, (0, 0, 2, 2, 6, 3, 1, 3, 0, 2, 6, 6)),
    (1, False, (1, 1, 2, 2, 6, 3, 2, 3, 1, 2, 1, 2)),
    (1, True, (1, 1, 2, 2, 6, 3, 2, 3, 1, 2, 6, 6)),
    (2, False, (2, 2, 2, 2, 6, 3, 3, 3, 2, 2, 2, 2)),
    (2, True, (2, 2, 2, 2, 6, 3, 3, 3, 2, 2, 6, 6)),
    (3, False, (3, 3, 2, 2, 6, 3, 4, 3, 3, 2, 3, 3)),
    (3, True, (3, 3, 2, 2, 6, 3, 4, 3, 3, 2, 6, 6)),
    (4, False, (4, 4, 2, 2, 6, 3, 5, 3, 4, 2, 4, 4)),
    (4, True, (4, 4, 2, 2, 6, 3, 5, 3, 4, 2, 6, 6)),
    (5, False, (5, 5, 2, 2, 7, 3, 6, 3, 5, 2, 5, 5)),
    (5, True, (5, 5, 2, 2, 7, 3, 6, 3, 5, 2, 6, 6)),
    (6, False, (6, 6, 3, 4, 8, 5, 7, 4, 6, 3, 6, 6)),
    (6, True, (6, 6, 3, 4, 8, 5, 7, 4, 6, 3, 6, 6)),
    (7, False, (7, 6, 3, 4, 9, 5, 8, 4, 6, 3, 6, 6)),
    (7, True, (7, 6, 3, 4, 9, 5, 8, 4, 6, 3, 6, 6)),
    (8, False, (8, 6, 3, 4, 10, 5, 8, 4, 6, 3, 6, 6)),
    (8, True, (8, 6, 3, 4, 10, 5, 8, 4, 6, 3, 6, 6)),
    (9, False, (9, 6, 3, 4, 11, 5, 8, 4, 6, 3, 6, 6)),
    (9, True, (9, 6, 3, 4, 11, 5, 8, 4, 6, 3, 6, 6)),
)


@pytest.mark.parametrize("degree, oracle, want", SCHEDULE)
def test_bounds_follow_the_pinned_schedule(degree, oracle, want):
    bounds = Bounds(degree, oracle=oracle)
    assert tuple(getattr(bounds, f) for f in FIELDS) == want
    assert sorted(vars(bounds)) == sorted(FIELDS)
