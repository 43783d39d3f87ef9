"""Spans for the traced benchmark run.

A span is one call into a layer's public function: its name, start, end,
the span open when it began (its parent), and the task it belongs to.
``Recorder`` keeps them in flat arrays in memory; ``write`` puts them in a
file once, at the end of a traced process, and ``layer_totals`` computes
counts and self times from such files.  A span's self time is its duration
minus the durations of its child spans.

``install`` puts timing wrappers over the library's public names in every
module that imported them, so calls between layers become spans without
any change to the library.  Only the traced run installs them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

from tasks import OPERATORS

VERTEX_FUNCS = tuple(spec[1] for spec in OPERATORS.values())
PAIR_METHODS = ("closed", "det", "brute")
CLI_SUBCOMMANDS = ("expand", "apply", "inner", "count", "verify")

# Spans reported as ``<name>.calls`` and ``<name>.self_s``.
_SPAN_LAYERS = (
    "ring.skew",
    "ring.expand",
    "ring.inner_product",
    "ring.jacobi_trudi",
    "expressions.parse",
    *(f"vertex.{fn}" for fn in VERTEX_FUNCS),
    *(f"tableaux.pairs_{method}" for method in PAIR_METHODS),
    "tableaux.schur_sum",
    "tableaux.syt_count",
    "verify.run_suites",
    "polyoracle.check_conversion",
    "polyoracle.realize_symfunc",
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric: (name, unit, which direction is better)."""
    specs = [
        ("partitions.enum_items", "count", "lower"),
        ("partitions.enum_s", "s", "lower"),
        ("partitions.compositions_items", "count", "lower"),
        ("partitions.compositions_s", "s", "lower"),
        ("ring.mul.calls", "count", "lower"),
        ("ring.mul.self_s", "s", "lower"),
        ("ring.mul.terms_out", "count", "lower"),
        ("ring.add.calls", "count", "lower"),
        ("ring.add.self_s", "s", "lower"),
        ("ring.add.terms_out", "count", "lower"),
        ("ring.scale.calls", "count", "lower"),
        ("ring.scale.self_s", "s", "lower"),
        ("ring.basis_element.calls", "count", "lower"),
        ("ring.basis_element.first_s", "s", "lower"),
        ("ring.basis_element.repeat_s", "s", "lower"),
        ("ring.basis_element.repeat_ratio", "ratio", "higher"),
    ]
    for name in _SPAN_LAYERS:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    specs += [("cli.interp_s", "s", "lower"), ("cli.import_s", "s", "lower")]
    specs += [(f"cli.{sub}_ms", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


class Recorder:
    """Spans of one process, in memory until ``write``."""

    FIELDS = ("name", "start_ns", "end_ns", "parent", "task", "size")

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.columns = {f: array("q") for f in self.FIELDS}
        self._stack: list[int] = []
        self.task = -1

    def open(self, name: str) -> int:
        cols = self.columns
        idx = len(cols["name"])
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        cols["name"].append(name_id)
        cols["parent"].append(self._stack[-1] if self._stack else -1)
        cols["task"].append(self.task)
        cols["size"].append(-1)
        cols["end_ns"].append(0)
        self._stack.append(idx)
        cols["start_ns"].append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, size: int = -1) -> None:
        self.columns["end_ns"][idx] = time.perf_counter_ns()
        self._stack.pop()
        if size >= 0:
            self.columns["size"][idx] = size

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line under a header."""
        cols = [self.columns[f] for f in self.FIELDS]
        names = self.names
        with open(path, "w") as fh:
            fh.write("\t".join(self.FIELDS) + "\n")
            for row in zip(*cols):
                fh.write(f"{names[row[0]]}\t" + "\t".join(map(str, row[1:])) + "\n")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _timed(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, *args, **kwargs)

    return wrapper


def _timed_iter(rec: Recorder, name: str, fn):
    """Each step of the returned iterator is one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)

        def steps():
            while True:
                idx = rec.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    rec.close(idx, 0)
                    return
                rec.close(idx, 1)
                yield item

        return steps()

    return wrapper


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` wherever a library module binds it."""
    for name, module in list(sys.modules.items()):
        if name == "symfunc" or name.startswith("symfunc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap the library's public names in ``rec`` spans (traced run only)."""
    import symfunc.cli  # noqa: F401  (so its bindings get wrapped too)
    import symfunc.partitions as partitions
    import symfunc.polyoracle as polyoracle
    import symfunc.ring as ring
    import symfunc.tableaux as tableaux
    import symfunc.verify as verify
    import symfunc.vertex as vertex
    from symfunc.expressions import parse_expression

    SymFunc = ring.SymFunc

    def sized(op, span_name):
        """A span that also records the number of terms of the result."""

        @functools.wraps(op)
        def wrapper(self, other):
            idx = rec.open(span_name(other))
            out = None
            try:
                out = op(self, other)
                return out
            finally:
                rec.close(idx, len(out._terms) if out is not None else -1)

        return wrapper

    SymFunc.__mul__ = sized(
        SymFunc.__mul__, lambda other: "ring.mul" if isinstance(other, SymFunc) else "ring.scale"
    )
    SymFunc.__add__ = sized(SymFunc.__add__, lambda other: "ring.add")
    SymFunc.__sub__ = sized(SymFunc.__sub__, lambda other: "ring.add")

    basis_element = ring.basis_element
    seen: set = set()

    @functools.wraps(basis_element)
    def basis_element_wrapper(b, lam):
        key = (b, tuple(lam))
        repeat = key in seen
        seen.add(key)
        return rec.call(
            "ring.basis_element.repeat" if repeat else "ring.basis_element.first",
            basis_element,
            b,
            key[1],
        )

    _rebind(basis_element, basis_element_wrapper)

    pairs = tableaux.bounded_height_pairs

    @functools.wraps(pairs)
    def pairs_wrapper(n, k, method="brute"):
        return rec.call(f"tableaux.pairs_{method}", pairs, n, k, method)

    _rebind(pairs, pairs_wrapper)

    plain = [
        (ring.skew, "ring.skew"),
        (ring.expand, "ring.expand"),
        (ring.inner_product, "ring.inner_product"),
        (ring.jacobi_trudi, "ring.jacobi_trudi"),
        (parse_expression, "expressions.parse"),
        (tableaux.bounded_height_schur_sum, "tableaux.schur_sum"),
        (tableaux.syt_count, "tableaux.syt_count"),
        (verify.run_suites, "verify.run_suites"),
        (polyoracle.check_conversion, "polyoracle.check_conversion"),
        (polyoracle.realize_symfunc, "polyoracle.realize_symfunc"),
    ]
    plain += [(getattr(vertex, fn), f"vertex.{fn}") for fn in VERTEX_FUNCS]
    for fn, name in plain:
        _rebind(fn, _timed(rec, name, fn))
    _rebind(partitions.partitions_of, _timed_iter(rec, "partitions.enum", partitions.partitions_of))
    _rebind(
        partitions.compositions_of,
        _timed_iter(rec, "partitions.compositions", partitions.compositions_of),
    )


# ---------------------------------------------------------------------------
# reading spans back
# ---------------------------------------------------------------------------

# Spans under a root span of this name belong to the benchmark's own checks;
# the layer numbers leave them out.
CHECK_ROOT = "bench.check"


def read_spans(path: str) -> list[tuple]:
    with open(path) as fh:
        fh.readline()
        return [
            (name, int(s), int(e), int(p), int(t), int(z))
            for name, s, e, p, t, z in (line.rstrip("\n").split("\t") for line in fh)
        ]


def layer_totals(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and self times of one process's spans."""
    child = [0] * len(spans)
    root = [0] * len(spans)
    for i, (_, s, e, p, _, _) in enumerate(spans):
        if p >= 0:
            child[p] += e - s
            root[i] = root[p]
        else:
            root[i] = i
    out: dict[str, float] = {}

    def bump(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for i, (name, s, e, _, _, size) in enumerate(spans):
        if spans[root[i]][0] == CHECK_ROOT or name.startswith("bench."):
            continue
        dur = (e - s) / 1e9
        if name in ("partitions.enum", "partitions.compositions"):
            bump(f"{name}_items", max(size, 0))
            bump(f"{name}_s", dur)
            continue
        if name.startswith("ring.basis_element."):
            kind = name.rsplit(".", 1)[1]
            bump("ring.basis_element.calls", 1)
            bump(f"ring.basis_element.{kind}_calls", 1)
            bump(f"ring.basis_element.{kind}_s", dur)
            continue
        bump(f"{name}.calls", 1)
        bump(f"{name}.self_s", dur - child[i] / 1e9)
        if size >= 0:
            bump(f"{name}.terms_out", size)
    return out


def finish_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Every span-derived per-layer metric, 0 where the layer was not called."""
    calls = totals.get("ring.basis_element.calls", 0)
    totals["ring.basis_element.repeat_ratio"] = (
        totals.get("ring.basis_element.repeat_calls", 0) / calls if calls else 0.0
    )
    names = [n for n, _, _ in metric_specs() if not n.startswith(("cli.", "trace."))]
    return {n: totals.get(n, 0) for n in names}
