"""scripts/bench_table.py over the committed benchmark records: one line per
metric of every summary row, BENCH_8.json (no failed counts) included."""

import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_bench_table_prints_every_committed_summary():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "bench_table.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    header, *lines = run.stdout.splitlines()
    assert header.split()[:4] == ["record", "workload", "seed", "metric"]
    want = []
    for path in RECORDS:
        with open(path) as f:
            for row in json.load(f)["summary"]:
                failed = row.get("failed")
                for metric in row["metrics"]:
                    want.append((
                        os.path.basename(path), row["workload"], str(row["seed"]), metric,
                        f"{failed['parent']}/{failed['change']}" if failed else "-",
                    ))
    got = [(*line.split()[:4], line.split()[-1]) for line in lines]
    assert sorted(got) == sorted(want)
    assert "BENCH_8.json" in {row[0] for row in got}
    # records in the order of their number, BENCH_8 before BENCH_12
    order = [int(row[0][6:-5]) for row in got]
    assert order == sorted(order)
