"""One round of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED ROUND [SPANS_FILE]

Imports the library from the checkout's ``src``, runs the task list of that
round of the seed once as a closed loop with one caller (each task starts after the previous
one returned and was checked), and prints one JSON line: the latency of each
call under test, a digest of each result, the checks that failed, the time
of the whole loop and the peak resident memory.  With SPANS_FILE it first
installs the timing wrappers, and writes the spans there at the end.
Between tasks, at least every ``speed.PROBE_EVERY_S``, it probes the
machine's speed (see ``speed.py``); the probes are not part of the loop's
time, and the line carries the loop's time in reference seconds too, and
the factor that turns each task's seconds into reference seconds.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_library():
    """Import symfunc from this checkout's src, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "symfunc", "__init__.py")):
        raise SystemExit(f"error: no symfunc package under {src}")
    sys.path.insert(0, src)
    import symfunc

    if os.path.dirname(os.path.dirname(os.path.abspath(symfunc.__file__))) != src:
        raise SystemExit(f"error: imported symfunc from {symfunc.__file__}, not {src}")
    return symfunc


def main(argv: list[str]) -> int:
    workload, seed, round_index = argv[0], int(argv[1]), int(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    import_library()

    import spans
    import speed
    import tasks

    runner = tasks.Runner()
    rec = None
    if spans_path:
        rec = spans.Recorder()
        spans.install(rec)
    task_list = tasks.generate(workload, seed, round_index)
    latencies, digests, failures = [], [], []
    clock = time.perf_counter
    meter = speed.Meter()
    for i, task in enumerate(task_list):
        meter.before_task()
        error = None
        if rec:
            rec.task = i
            prepared = rec.call("bench.prepare", runner.prepare, workload, task)
            idx = rec.open("bench.task")
        else:
            prepared = runner.prepare(workload, task)
        start = clock()
        try:
            result = runner.call(workload, task, prepared)
        except Exception as exc:  # a task that raises is a failed task
            result, error = None, f"raised {exc!r}"
        latencies.append(clock() - start)
        if rec:
            rec.close(idx)
        if error is None:
            try:
                if rec:
                    error = rec.call(spans.CHECK_ROOT, runner.check, workload, task, result)
                else:
                    error = runner.check(workload, task, result)
            except Exception as exc:
                error = f"check raised {exc!r}"
        digests.append(None if result is None else runner.digest(workload, result))
        if error:
            failures.append([i, tasks.task_name(workload, i, task), error])
    timing = meter.finish()
    if rec:
        rec.write(spans_path)
    print(
        json.dumps(
            {
                "latencies": latencies,
                "digests": digests,
                "failures": failures,
                **timing,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
