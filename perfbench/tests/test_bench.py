"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import speed  # noqa: E402
import tasks  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_same_seed_gives_same_tasks(workload):
    for round_index in (0, 3):
        first = tasks.generate(workload, 7, round_index)
        assert first and first == tasks.generate(workload, 7, round_index)


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_other_seed_gives_other_tasks(workload):
    assert tasks.generate(workload, 7, 0) != tasks.generate(workload, 8, 0)
    assert tasks.generate(workload, 7, 0) != tasks.generate(workload, 7, 1)


def test_per_layer_metrics_match_benchmark_json():
    assert [m["name"] for m in _spec()["per_layer"]] == [n for n, _, _ in spans.metric_specs()]


def test_self_time_subtracts_children_and_skips_checks():
    ms = 1_000_000
    recorded = [
        ("bench.task", 0, 100 * ms, -1, 0, -1),
        ("vertex.cs_column", 0, 90 * ms, 0, 0, -1),
        ("ring.mul", 10 * ms, 40 * ms, 1, 0, 7),
        ("ring.skew", 50 * ms, 60 * ms, 1, 0, -1),
        ("partitions.enum", 60 * ms, 61 * ms, 1, 0, 1),
        ("bench.check", 100 * ms, 200 * ms, -1, 0, -1),
        ("ring.mul", 110 * ms, 190 * ms, 5, 0, 3),
    ]
    totals = spans.layer_totals(recorded)
    assert totals["vertex.cs_column.self_s"] == pytest.approx(0.049)
    assert totals["ring.mul.calls"] == 1
    assert totals["ring.mul.self_s"] == pytest.approx(0.030)
    assert totals["ring.mul.terms_out"] == 7
    assert totals["partitions.enum_items"] == 1


def test_segments_count_reference_seconds_between_probes():
    meter = speed.Meter()
    ref = speed.REFERENCE_PROBE_S
    # probes at 0-1 s, 3-4 s and 4.5-5 s, the machine half as fast at the second
    meter.samples = [ref, 2 * ref, ref]
    meter._marks = [(0.0, 1.0), (3.0, 4.0), (4.5, 5.0)]
    assert meter.seconds() == [2.0, 0.5]
    assert meter.factors() == pytest.approx([2 / 3, 2 / 3])


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for metric in _spec()["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
