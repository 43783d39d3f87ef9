"""Acceptance gate: every contractual law at its full bounds, exact equality.

One test per criterion; each prints a single pass/fail line (written through
to the real stdout so it is visible without -s).  The criteria live in
symfunc.verify.ACCEPTANCE, and symfunc.verify.run_criterion runs one at
the gate's depth, 8; scripts/acceptance.py runs the same table outside
pytest.  Each row pins its criterion's case count, so that a sweep that
shrinks fails instead of passing on fewer cases.
"""

import pytest

from symfunc.verify import ACCEPTANCE, run_criterion


@pytest.mark.parametrize("num", sorted(num for num, *_ in ACCEPTANCE))
def test_criterion(num, capsys):
    line, ok, failures = run_criterion(num)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {num} failed:\n" + "\n".join(failures[:20])
