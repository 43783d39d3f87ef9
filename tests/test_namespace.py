"""The package namespace: ``symfunc`` exports 56 names, each the very
object its defining submodule holds, and resolves them on first use, also
from many threads at once."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symfunc

# defining submodule -> the names the package exports from it
EXPORTS = {
    "partitions": [
        "Composition", "Partition", "StraightenResult", "add_columns", "compositions_of",
        "conjugate", "insert_parts", "mult_count", "partitions_of", "partitions_upto",
        "remove_parts", "straighten", "z_value",
    ],
    "ring": [
        "BASES", "BasisExpansion", "SymFunc", "basis_element", "en", "expand", "hn",
        "inner_product", "jacobi_trudi", "omega", "pn", "r_coefficient", "skew",
    ],
    "expressions": ["ParseError", "parse_expression"],
    "vertex": [
        "ce_column", "ch_column", "cf_column", "cm_column", "cp_column", "cs_column",
        "named_operator", "rf_row", "rm_row", "rm_row_one", "rm_rows", "rs_row", "rs_rows",
        "t_minus_x", "t_minus_x_sum",
    ],
    "tableaux": [
        "bounded_height_pairs", "bounded_height_schur_sum", "catalan", "syt_count", "theta",
    ],
    "oracles": ["everything_op", "rs0_power_expansion"],
}

# The submodules are exported under their own names as well.
ALL = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def test_all_is_pinned():
    assert len(ALL) == 56
    assert symfunc.__all__ == ALL


@pytest.mark.parametrize("module", EXPORTS)
def test_each_export_is_its_submodules_object(module):
    source = importlib.import_module(f"symfunc.{module}")
    assert getattr(symfunc, module) is source
    for name in EXPORTS[module]:
        assert getattr(symfunc, name) is getattr(source, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from symfunc import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == ALL
    assert all(namespace[name] is getattr(symfunc, name) for name in ALL)


def test_dir_covers_every_export():
    assert set(ALL) <= set(dir(symfunc))
    assert "__version__" in dir(symfunc)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        symfunc.nope
    assert not hasattr(symfunc, "verify_all")
    with pytest.raises(ImportError):
        exec("from symfunc import nope", {})


THREADED_FIRST_TOUCH = """
import importlib, sys, threading
import symfunc

THREADS = 8
start = threading.Barrier(THREADS)
seen = [None] * THREADS

def touch(i):
    start.wait(timeout=60)
    names = symfunc.__all__[i:] + symfunc.__all__[:i]  # each thread its own order
    seen[i] = {name: getattr(symfunc, name) for name in names}

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=touch, args=(i,)) for i in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
assert not any(t.is_alive() for t in threads), "a thread did not finish"
assert all(s is not None for s in seen), "a thread raised"
first = seen[0]
for s in seen[1:]:
    assert all(s[name] is first[name] for name in first), "two threads saw different objects"
for module, names in EXPORTS.items():
    source = importlib.import_module(f"symfunc.{module}")
    assert first[module] is source, module
    assert all(first[name] is getattr(source, name) for name in names), module
print(len(first))
"""


def test_threads_touching_names_first_see_the_same_objects():
    # A fresh interpreter, so that every name is resolved for the first time
    # while eight threads race to resolve it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", f"EXPORTS = {EXPORTS!r}\n{THREADED_FIRST_TOUCH}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "56\n"), proc.stderr
