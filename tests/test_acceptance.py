"""Acceptance gate: every contractual law at its full bounds, exact equality.

One test per criterion; each prints a single pass/fail line (written through
to the real stdout so it is visible without -s).  The criteria and their
bounds live in symfunc.verify.ACCEPTANCE, and symfunc.verify.run_criterion
runs one; scripts/acceptance.py runs the same table outside pytest.
"""

import pytest

from symfunc.verify import ACCEPTANCE, run_criterion


@pytest.mark.parametrize("num", sorted(num for num, *_ in ACCEPTANCE))
def test_criterion(num, capsys):
    line, ok, failures = run_criterion(num)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {num} failed:\n" + "\n".join(failures[:20])
