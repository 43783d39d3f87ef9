"""The README's concurrency claim: conversion caches filled from many threads
at once hold the same values as a fill from one thread, and every result
matches."""

import importlib
import pkgutil
import sys
import threading

import symfunc
from symfunc import ring, vertex
from symfunc.partitions import partitions_of, partitions_upto
from symfunc.ring import BASES, basis_element, hn

DEGREE = 7
THREADS = 8  # more threads than cores, so fills interleave
ROUNDS = 3  # each round is one chance for a racy fill to show

# every memo of the library, by its qualified name, from every module
ALL_CACHES = {
    f"{fn.__module__}.{fn.__qualname__}": fn
    for info in pkgutil.iter_modules(symfunc.__path__)
    for fn in vars(importlib.import_module(f"symfunc.{info.name}")).values()
    if hasattr(fn, "cache_clear")
}


def _work():
    elements = {(b, lam): basis_element(b, lam) for b in "smf" for lam in partitions_of(DEGREE)}
    return elements, vertex.cs_column(0, 3, hn(1) ** 6)


def _cache_state():
    """The size of every cache, then the value under every key up to DEGREE.
    The sizes come first: reading fills the keys the work did not reach, the
    same way in both states."""
    sizes = [fn.cache_info().currsize for fn in ALL_CACHES.values()]
    values = {}
    shapes = list(partitions_upto(DEGREE))
    for lam in shapes:
        for b in BASES:
            value = ring._basis_p(b, lam)
            values[b, lam] = (dict(value._terms), value._den)
        values["_blocks", lam] = dict(ring._blocks(lam))
        values["_sub_table", lam] = dict(ring._sub_table(lam))
        for mu in shapes:
            if sum(lam) + sum(mu) <= DEGREE:
                values["_merged", lam, mu] = ring._merged(lam, mu)
    for n in range(DEGREE + 1):
        values["_degree_rows", n] = ring._degree_rows(n)
    return sizes, values


def _clear_caches():
    for fn in ALL_CACHES.values():
        fn.cache_clear()


def _threaded_work():
    """_work() in THREADS threads released together, so that they miss the
    same cache keys at once; returns each thread's result."""
    results = [None] * THREADS
    errors = []
    start = threading.Barrier(THREADS)

    def run(i):
        try:
            start.wait(timeout=60)
            results[i] = _work()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    return results


def test_threaded_fills_match_a_single_thread():
    _clear_caches()
    reference = _work()
    reference_state = _cache_state()
    for _ in range(ROUNDS):
        _clear_caches()
        assert all(result == reference for result in _threaded_work())
        assert _cache_state() == reference_state


def test_every_memo_is_listed():
    # ROADMAP item 4 lists these; a new memo belongs in that list too.
    assert sorted(ALL_CACHES) == [
        "symfunc.partitions._all_partitions",
        "symfunc.polyoracle._realize_p",
        "symfunc.ring._basis_p",
        "symfunc.ring._blocks",
        "symfunc.ring._chi",
        "symfunc.ring._degree_rows",
        "symfunc.ring._merged",
        "symfunc.ring._sub_table",
    ]
