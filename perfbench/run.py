"""The symfunc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the seed's task list of one workload (see ``tasks.py`` and
``README.md``) as a closed loop with one caller, checks every output, and
prints the metrics as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every round starts from a fresh interpreter with empty conversion caches,
because scripts and the acceptance gate pay the cold fills on every run.
The in-process workloads run one round per worker process; the cli
workload spawns one ``symfunc`` process per task.  Rounds repeat until the
next one would pass ``--seconds``, and at least until the tail percentile
has ten samples beyond it.

The end-to-end times are in reference seconds: measured seconds scaled by
the machine's speed at that moment, from probes taken between tasks and
between interpreter starts (see ``speed.py``).  The record line carries the
measured figures too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, checks that both give the same outputs, and
prints the per-layer metrics computed from the traced rounds' spans.  The
line before the metrics is a record that stamps the run: Python version,
core count, code identity, workload, seed and sample counts.

Any failed check makes the run exit 1 after naming the task on stderr.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
import speed
import tasks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

TAIL = 0.90  # the tail percentile of task latency
TAIL_BEYOND = 10  # samples a run needs beyond the tail percentile
SETUP_STARTS = 15  # fewest interpreter starts timed per run
PROCESS_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class TaskFailure(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # No run leaves bytecode under src/ that would speed up the next run's
    # interpreter starts: cached bytecode takes about a fifth off a start
    # that imports symfunc, so setup_s and cli would move between runs.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=PROCESS_TIMEOUT_S
    )


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered)) - 1, 0)]


def spawn_time(code: str) -> float:
    """Seconds to start an interpreter, run ``code`` and exit."""
    start = time.perf_counter()
    proc = _run([sys.executable, "-c", code])
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: probe {code!r} failed:\n{proc.stderr}")
    return elapsed


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def worker_round(workload: str, seed: int, r: int, spans_path: str | None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(r)]
    proc = _run(argv + ([spans_path] if spans_path else []))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise TaskFailure(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if spans_path:
        result["spans"] = [spans_path]
    return result


def cli_round(task_list: list, runner, spans_prefix: str | None) -> dict:
    latencies, digests, failures, files = [], [], [], []
    clock = time.perf_counter
    meter = speed.Meter(lambda: spawn_time("pass"), speed.REFERENCE_START_S)
    for i, task in enumerate(task_list):
        meter.before_task()
        entry = ["-m", "symfunc.cli"]
        if spans_prefix:
            path = f"{spans_prefix}-task{i}.tsv"
            files.append(path)
            entry = [os.path.join(HERE, "launcher.py"), path, str(i), "--"]
        start = clock()
        proc = _run([sys.executable, *entry, *tasks.cli_argv(task)])
        latencies.append(clock() - start)
        try:
            error = runner.check_cli(task, proc.returncode, proc.stdout)
        except Exception as exc:
            error = f"check raised {exc!r}"
        if error:
            error += f"\nstderr: {proc.stderr[-500:]}" if proc.stderr else ""
            failures.append([i, tasks.task_name("cli", i, task), error])
        digests.append(f"{proc.returncode}\n{proc.stdout}")
    return {
        "latencies": latencies,
        "digests": digests,
        "failures": failures,
        **meter.finish(),
        "spans": files,
    }


def load_runner():
    """The library in this process, for checking cli outputs."""
    from worker import import_library

    import_library()
    return tasks.Runner()


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def code_identity() -> dict:
    """The git commit when there is one, and a digest of the library source."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    git_sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            git_sha = sha.stdout.strip() if sha.returncode == 0 else None
        except OSError:
            pass
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tasks.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symfunc", "__init__.py")):
        print(f"error: no symfunc package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + args.seconds
    workload, traced = args.workload, bool(args.trace)
    runner = load_runner() if workload == "cli" else None
    if traced:
        shutil.rmtree(os.path.join(OUT_DIR, workload), ignore_errors=True)
        os.makedirs(os.path.join(OUT_DIR, workload))

    record: dict = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **code_identity(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    # Interpreter starts are timed between rounds, so that their median
    # samples the whole run rather than one moment of it.  Each start that
    # imports the entry module comes with a bare start, for reference seconds.
    entry = "symfunc.cli" if workload == "cli" or traced else "symfunc"
    starts: dict[str, list[float]] = {"pass": [], f"import {entry}": []}

    def time_starts() -> None:
        for code, times in starts.items():
            times.append(spawn_time(code))

    def one_round(r: int, spans_on: bool) -> dict:
        prefix = os.path.join(OUT_DIR, workload, f"round{r}") if spans_on else None
        if workload == "cli":
            result = cli_round(tasks.generate(workload, args.seed, r), runner, prefix)
        else:
            result = worker_round(workload, args.seed, r, prefix and prefix + ".tsv")
        result["round"] = r
        return result

    # An untraced run needs TAIL_BEYOND samples beyond the tail percentile.
    # A traced run alternates: untraced round r, then round r traced.
    min_samples = TAIL_BEYOND / (1 - TAIL) if not traced else 0
    plain, traced_rounds, failures = [], [], []
    last = 0.0
    try:
        while (
            sum(len(r["latencies"]) for r in plain) < min_samples
            or len(traced_rounds) < int(traced)
            or time.perf_counter() + last <= deadline
        ):
            spans_on = traced and len(plain) > len(traced_rounds)
            time_starts()
            t0 = time.perf_counter()
            result = one_round(len(traced_rounds) if spans_on else len(plain), spans_on)
            last = time.perf_counter() - t0
            (traced_rounds if spans_on else plain).append(result)
            failures += result["failures"]
            if spans_on:
                task_list = tasks.generate(workload, args.seed, result["round"])
                failures += [
                    [i, tasks.task_name(workload, i, task_list[i]), "traced output differs from untraced"]
                    for i, (x, y) in enumerate(zip(result["digests"], plain[-1]["digests"]))
                    if x != y
                ]
            if failures:
                break
    except (TaskFailure, subprocess.TimeoutExpired) as exc:
        failures.append([-1, f"{workload} round", str(exc)])

    while not failures and len(next(iter(starts.values()))) < SETUP_STARTS:
        time_starts()
    setup = {code: statistics.median(times) for code, times in starts.items()}
    metrics: dict[str, float] = {}
    if traced:
        metrics["cli.interp_s"] = setup["pass"]
        metrics["cli.import_s"] = setup[f"import {entry}"] - setup["pass"]
    else:
        record["measured"] = {"setup_s": setup[f"import {entry}"]}
        metrics["setup_s"] = statistics.median(
            t * speed.REFERENCE_START_S / bare
            for t, bare in zip(starts[f"import {entry}"], starts["pass"])
        )
    rounds = plain + traced_rounds
    attempted = sum(len(r["latencies"]) for r in rounds) or 1
    failed = len({name for _, name, _ in failures})
    latencies = [x for r in plain for x in r["latencies"]]
    record.update(
        rounds=len(plain),
        traced_rounds=len(traced_rounds),
        tasks=len(latencies),
        tail_percentile=f"p{round(TAIL * 100)}",
        samples_beyond_tail=len(latencies) - math.ceil(TAIL * len(latencies)),
        round_wall_s=[r["wall_s"] for r in rounds],
        setup_starts=len(next(iter(starts.values()))),
        speed_factors=[statistics.median(r["task_factors"]) for r in rounds],
        fail_ratio=failed / attempted,
        elapsed_s=time.perf_counter() - started,
    )
    for _, name, error in failures:
        print(f"FAILED {name}: {error}", file=sys.stderr)

    if failures:
        pass  # no metrics from a run that computed something wrong
    elif not traced:
        record["measured"].update(  # the same times in measured seconds
            wall_s=statistics.median(r["wall_s"] for r in plain),
            task_p50_ms=percentile(latencies, 0.5) * 1000,
            task_p90_ms=percentile(latencies, TAIL) * 1000,
        )
        metrics["wall_s"] = statistics.median(r["ref_wall_s"] for r in plain)
        scaled = [x * f for r in plain for x, f in zip(r["latencies"], r["task_factors"])]
        metrics["task_p50_ms"] = percentile(scaled, 0.5) * 1000
        metrics["task_p90_ms"] = percentile(scaled, TAIL) * 1000
        if workload == "cli":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics["peak_rss_mb"] = peak_kb / 1024
        else:
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    else:
        per_round = []
        for r in traced_rounds:
            totals: dict[str, float] = {}
            for path in r["spans"]:
                for key, value in spans.layer_totals(spans.read_spans(path)).items():
                    totals[key] = totals.get(key, 0) + value
            per_round.append(spans.finish_metrics(totals))
        for name in per_round[0]:
            metrics[name] = statistics.median(m[name] for m in per_round)
        for sub in spans.CLI_SUBCOMMANDS:
            lat = [
                x
                for r in plain
                for task, x in zip(tasks.generate(workload, args.seed, r["round"]), r["latencies"])
                if workload == "cli" and tasks.cli_subcommand(task) == sub
            ]
            metrics[f"cli.{sub}_ms"] = statistics.median(lat) * 1000 if lat else 0.0
        metrics["trace.overhead_ratio"] = statistics.median(
            r["ref_wall_s"] for r in traced_rounds
        ) / statistics.median(r["ref_wall_s"] for r in plain)

    units = dict(END_TO_END) if not traced else {n: u for n, u, _ in spans.metric_specs()}
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in metrics
                },
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
