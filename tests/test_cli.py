import ast
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from unittest.mock import Mock

import pytest

import symfunc
from symfunc.cli import main
from symfunc.vertex import OPERATORS
from transcript import TRANSCRIPTS, replay


def run_cli(capsys, *argv):
    # argparse's exits (usage errors, --help) count as the exit code
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_text(capsys):
    code, out, err = run_cli(capsys, "expand", "--basis", "h", "e[2]")
    assert code == 0
    assert out == "h[1,1] - h[2]\n"
    assert err == ""


def test_expand_default_basis_is_power(capsys):
    code, out, _ = run_cli(capsys, "expand", "h[1]")
    assert code == 0
    assert out == "p[1]\n"


def test_expand_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "--basis", "m", "--json", "h[1]*h[1]")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == "m"
    assert doc["terms"] == [
        {"partition": [1, 1], "coeff": "2"},
        {"partition": [2], "coeff": "1"},
    ]


def test_apply_cs(capsys):
    code, out, _ = run_cli(
        capsys, "apply", "--op", "CS", "--a", "0", "--k", "2", "h[1]^4", "--basis", "s"
    )
    assert code == 0
    assert out == "2*s[2,2] + 3*s[3,1] + s[4]\n"


def test_apply_tx(capsys):
    code, out, _ = run_cli(capsys, "apply", "--op", "TX", "p[2] + 3")
    assert code == 0
    assert out == "3\n"


def test_apply_missing_parameter(capsys):
    code, out, err = run_cli(capsys, "apply", "--op", "CS", "--a", "0", "h[1]")
    assert code == 2
    assert "requires --k" in err


def test_inner(capsys):
    code, out, _ = run_cli(capsys, "inner", "h[2,1]", "m[2,1]")
    assert code == 0
    assert out == "1\n"
    code, out, _ = run_cli(capsys, "inner", "p[2]", "p[2]")
    assert out == "2\n"


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--k", "2")
    assert code == 0
    assert out == "14\n"


@pytest.mark.parametrize("method", ["closed", "det", "brute"])
def test_count_methods(capsys, method):
    code, out, _ = run_cli(capsys, "count", "--n", "5", "--k", "3", "--method", method)
    assert code == 0
    # 5! = 120 pairs in all, minus 4^2 for (2,1,1,1) and 1 for (1,1,1,1,1)
    assert out == "103\n"


def test_count_clamps_height_to_n(capsys, monkeypatch):
    # A shape of n boxes has at most n rows, so the count at k > n is the one
    # at k = n; the library sums the closed form over 2 heights, not 300.
    from symfunc import tableaux

    seen = []
    original = tableaux._closed_total

    def spy(n, k):
        seen.append(k)
        return original(n, k)

    monkeypatch.setattr(tableaux, "_closed_total", spy)
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--k", "300")
    assert (code, out, seen) == (0, "2\n", [2])


def test_count_verbose_terms(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--k", "2", "--verbose")
    assert code == 0
    first, rest = out.split("\n", 1)
    assert first == "2"
    terms = json.loads(rest)
    assert {tuple(t["composition"]) for t in terms} == {(2, 0), (1, 1), (0, 2)}
    total = sum(int(t["term"]) for t in terms)
    assert total == 2


def test_count_verbose_lists_the_clamped_sum(capsys):
    # A shape of 6 boxes has at most 6 rows, so the count sums over
    # compositions into 6 parts, and the listing shows that sum.
    code, out, _ = run_cli(capsys, "count", "--n", "6", "--k", "20", "--verbose")
    first, rest = out.split("\n", 1)
    terms = json.loads(rest)
    assert (code, first, len(terms)) == (0, "720", 462)
    assert {len(t["composition"]) for t in terms} == {6}
    assert sum(int(t["term"]) for t in terms) == 720


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "expand", "h[2,")
    assert code == 2
    assert out == ""
    assert "position" in err


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "partitions", "--max-degree", "3")
    assert code == 0
    assert "ok   partitions:" in out
    assert "FAIL" not in out


def test_repeated_suite_runs_once(capsys):
    # a suite named twice runs once, where it is first named
    _, once, _ = run_cli(capsys, "verify", "--suite", "partitions", "--max-degree", "0")
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "partitions", "--suite", "partitions", "--max-degree", "0"
    )
    assert code == 0
    assert out == once
    assert len(out.splitlines()) == 6
    _, both, _ = run_cli(
        capsys, "verify", "--suite", "cli", "--suite", "partitions", "--suite", "cli",
        "--max-degree", "0",
    )
    _, cli_only, _ = run_cli(capsys, "verify", "--suite", "cli", "--max-degree", "0")
    assert both == cli_only + once


def test_out_of_memory_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("symfunc.expressions.parse_expression", Mock(side_effect=MemoryError))
    assert run_cli(capsys, "expand", "p[1]^20000") == (3, "", "internal error: out of memory\n")


def test_json_byte_stability(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "expand", "--basis", "s", "--json", "h[2]*e[1]")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "symfunc.cli", "count", "--n", "3", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


def test_console_script_entry_runs():
    # Read [project.scripts] with a regex (no tomllib on Python 3.10) and run
    # the named function the way the installed console wrapper does.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section, "pyproject.toml has no [project.scripts] table"
    entry = re.search(r'^symfunc\s*=\s*"([\w.]+):(\w+)"\s*$', section.group(1), re.M)
    assert entry, "no symfunc console script"
    module, func = entry.groups()
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'symfunc'; sys.exit({func}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "count", "--n", "3", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5\n"


def test_apply_op_choices_are_the_registry(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--help"])
    assert exc.value.code == 0
    assert "--op {" + ",".join(OPERATORS) + "}" in capsys.readouterr().out


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "symfunc.cli", "count", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("name", [n for n in TRANSCRIPTS if n != "verify_deep"])
def test_transcript(name, capsys, monkeypatch):
    # Each pinned transcript but verify_deep (about 7 s), byte for byte, at
    # the terminal width that run_installed fixes for argparse's usage text.
    monkeypatch.setenv("COLUMNS", "80")
    pinned = Path(__file__).with_name(f"{name}.txt").read_text()
    assert replay(pinned, lambda argv: run_cli(capsys, *argv)) == pinned


def test_replay_keeps_stderr_and_stdout():
    # The branches no pinned transcript reaches: stderr after exit 0, and
    # stdout before a nonzero exit.
    runs = {"warn": (0, "out\n", "note\n"), "fail": (1, "partial\n", "")}
    pinned = "$ symfunc warn\n$ symfunc fail\n"
    assert replay(pinned, lambda argv: runs[argv[0]]) == (
        "$ symfunc warn\nout\nexit 0\nnote\n$ symfunc fail\npartial\nexit 1\n"
    )


def _loaded_by_import(module, names):
    """Which of ``names`` are in sys.modules after ``import module`` in a
    fresh interpreter, so that modules the test run has loaded do not count."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import {module}, sys; print(sorted(m for m in {names!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_out_dataclasses_and_inspect():
    assert _loaded_by_import("symfunc.cli", ("dataclasses", "inspect")) == "[]\n"


def test_package_import_leaves_out_the_oracle():
    names = ("symfunc.oracles", "symfunc.polyoracle")
    assert _loaded_by_import("symfunc", names) == "[]\n"


def test_cli_import_leaves_out_the_checks():
    # Only the verify command loads them.
    names = ("symfunc.verify", "symfunc.oracles", "symfunc.polyoracle")
    assert _loaded_by_import("symfunc.cli", names) == "[]\n"


# The symfunc submodules each subcommand loads: argparse's choices come from
# the names table alone, and a command loads only the modules it runs.
COUNT_MODULES = ["cli", "names", "partitions", "tableaux"]
TEXT_MODULES = ["cli", "expressions", "names", "partitions", "ring"]
APPLY_MODULES = TEXT_MODULES + ["vertex"]
SUBCOMMAND_MODULES = {
    "count": (["count", "--n", "4", "--k", "2"], COUNT_MODULES),
    "count brute": (["count", "--n", "4", "--k", "2", "--method", "brute"], COUNT_MODULES),
    "count det": (
        ["count", "--n", "4", "--k", "2", "--method", "det"],
        ["cli", "names", "partitions", "ring", "tableaux"],
    ),
    "count verbose": (["count", "--n", "2", "--k", "2", "--verbose"], COUNT_MODULES),
    "expand": (["expand", "--basis", "h", "e[2]"], TEXT_MODULES),
    "expand json": (["expand", "--json", "h[1]"], TEXT_MODULES),
    "inner": (["inner", "h[2,1]", "m[2,1]"], TEXT_MODULES),
    "apply": (["apply", "--op", "CS", "--a", "0", "--k", "2", "h[1]^2"], APPLY_MODULES),
    "apply json": (["apply", "--op", "TX", "--json", "p[2] + 3"], APPLY_MODULES),
    # the only command that loads the second routes
    "verify": (
        ["verify", "--suite", "partitions"],
        ["cli", "names", "oracles", "partitions", "polyoracle", "ring", "tableaux", "verify",
         "vertex"],
    ),
}


def _loaded_by_main(argv):
    """The exit code of ``cli.main(argv)`` in a fresh interpreter, the
    symfunc submodules loaded after it, and whether json was loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "from symfunc.cli import main\n"
        f"code = main({argv!r})\n"
        "loaded = sorted(m[len('symfunc.'):] for m in sys.modules if m.startswith('symfunc.'))\n"
        "print(repr((code, loaded, 'json' in sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    names = tuple(f"symfunc.{info.name}" for info in pkgutil.iter_modules(symfunc.__path__))
    assert "symfunc.names" in names
    assert _loaded_by_import("symfunc", names) == "[]\n"


@pytest.mark.parametrize("case", SUBCOMMAND_MODULES)
def test_each_subcommand_loads_only_what_it_runs(case):
    argv, modules = SUBCOMMAND_MODULES[case]
    assert _loaded_by_main(argv) == (0, modules, "--json" in argv or "--verbose" in argv)
