#!/usr/bin/env python3
"""Run the full acceptance gate and print one pass/fail line per criterion.

A criterion fails on a failed case or on a case count other than the one
its ACCEPTANCE row pins.  Exit code 0 when every criterion passes, 1
otherwise.
"""

from symfunc.verify import ACCEPTANCE, run_criterion


def main() -> int:
    all_ok = True
    for num, *_ in ACCEPTANCE:
        line, ok, failures = run_criterion(num)
        print(line, flush=True)
        if not ok:
            all_ok = False
            for failure in failures[:20]:
                print(f"    {failure}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
