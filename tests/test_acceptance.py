"""Acceptance gate: every contractual law at its full bounds, exact equality.

One test per criterion; each prints a single pass/fail line (written through
to the real stdout so it is visible without -s).  The criteria live in
symfunc.verify.ACCEPTANCE, and symfunc.verify.run_criterion runs one at
the gate's depth, 8; scripts/acceptance.py runs the same table outside
pytest.  The
case count of each criterion is pinned, so that a sweep that shrinks fails
here instead of passing on fewer cases.
"""

import re

import pytest

from symfunc.verify import ACCEPTANCE, run_criterion

CASES = {1: 5920, 2: 6480, 3: 32574, 4: 94, 5: 57, 6: 1470, 7: 1087}


@pytest.mark.parametrize("num", sorted(num for num, *_ in ACCEPTANCE))
def test_criterion(num, capsys):
    line, ok, failures = run_criterion(num)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {num} failed:\n" + "\n".join(failures[:20])
    cases = int(re.search(r"\((\d+) cases,", line).group(1))
    assert cases == CASES[num], f"criterion {num} ran {cases} cases, not {CASES[num]}"
