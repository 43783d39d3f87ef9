#!/usr/bin/env python3
"""Print the summary of every benchmark record as one table.

    python scripts/bench_table.py

It reads every BENCH_<N>.json at the root of the repository, in the order
of N.  Each row is one metric of one summary row: the record, workload and
seed, the parent's and the change's median and quartiles, the change over
the parent, and how many of the pairs the change ran lower.  The last
column holds the failed runs, parent/change, or "-" in a record that does
not count them.
"""

import glob
import json
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COLUMNS = (
    "record", "workload", "seed", "metric", "parent", "parent q1-q3",
    "change", "change q1-q3", "ratio", "lower/pairs", "failed",
)


def _number(path: str) -> int:
    return int(re.search(r"BENCH_(\d+)\.json$", path).group(1))


def _quartiles(q: list) -> str:
    return f"{q[0]:.4g}-{q[1]:.4g}"


def rows(path: str) -> list[tuple[str, ...]]:
    with open(path) as f:
        record = json.load(f)
    out = []
    for row in record["summary"]:
        failed = row.get("failed")
        failed = f"{failed['parent']}/{failed['change']}" if failed else "-"
        for metric, m in row["metrics"].items():
            out.append((
                os.path.basename(path), row["workload"], str(row["seed"]), metric,
                f"{m['parent_median']:.4g}", _quartiles(m["parent_quartiles"]),
                f"{m['change_median']:.4g}", _quartiles(m["change_quartiles"]),
                f"{m['change_over_parent']:.3f}", f"{m['pairs_change_lower']}/{row['pairs']}",
                failed,
            ))
    return out


def main() -> int:
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")), key=_number)
    table = [COLUMNS] + [r for path in paths for r in rows(path)]
    widths = [max(len(r[i]) for r in table) for i in range(len(COLUMNS))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
