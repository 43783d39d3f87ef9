"""Traced ``symfunc`` command for the cli workload.

    python3 perfbench/launcher.py SPANS_FILE TASK_ID -- ARGS...

Installs the same timing wrappers as a traced worker, calls
``symfunc.cli.main(ARGS)``, writes the spans to SPANS_FILE and exits with
the command's exit code.
"""

from __future__ import annotations

import sys

from worker import import_library


def main(argv: list[str]) -> int:
    spans_path, task_id, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_FILE TASK_ID -- ARGS...")
    import_library()
    import spans
    import symfunc.cli

    rec = spans.Recorder()
    spans.install(rec)
    rec.task = int(task_id)
    try:
        return rec.call("bench.task", symfunc.cli.main, args)
    finally:
        rec.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
