"""Pinned command-line transcripts and the one rule that replays them.

A transcript holds ``$ symfunc ...`` lines, each followed by the command's
stdout and then, only when it exited nonzero or wrote to stderr, a line
``exit N`` and its stderr.  ``python tests/transcript.py`` replays every
transcript through the installed ``symfunc`` and prints a unified diff for
each one that differs, exiting 1.
"""

import difflib
import os
import shlex
import subprocess
import sys
from pathlib import Path

# tests/<name>.txt; tier-1 replays all but verify_deep, verify at depth 6
TRANSCRIPTS = (
    "ring_outputs", "cli_errors", "cli_help", "verify_default", "count_verbose", "verify_deep"
)


def replay(pinned, run):
    """The transcript of the ``$`` lines of ``pinned``, where ``run(argv)``
    gives ``(exit code, stdout, stderr)`` for the arguments after symfunc."""
    out = ""
    for line in pinned.splitlines():
        if line.startswith("$ symfunc "):
            code, stdout, stderr = run(shlex.split(line)[2:])
            out += line + "\n" + stdout
            if code or stderr:
                out += f"exit {code}\n{stderr}"
    return out


def run_installed(argv):
    # argparse wraps usage text to the terminal width, so fix the width
    env = {**os.environ, "COLUMNS": "80"}
    proc = subprocess.run(
        ["symfunc", *argv], stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


if __name__ == "__main__":
    failed = False
    for name in TRANSCRIPTS:
        pinned = Path(__file__).with_name(f"{name}.txt").read_text()
        got = replay(pinned, run_installed)
        failed |= got != pinned
        diff = difflib.unified_diff(
            pinned.splitlines(keepends=True), got.splitlines(keepends=True), name, "replayed"
        )
        sys.stdout.writelines(diff)
    sys.exit(failed)
