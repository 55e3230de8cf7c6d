"""The program names that the benchmark in perfbench/ patches, counts or reads.

perfbench/workloads.py is imported, never edited.  Its traced passes
replace each `INNER_SPANS` attribute by a wrapper that takes positional
arguments only, its profiled pass looks up each `COUNTED` function by its
code object, and the catalog counters read `T0Invariant.engine._memo` and
`T0Invariant._kauffman_caches`.  A rename or a call that bypasses one of
these would leave a layer metric reading 0 or a run failing.
"""

import importlib.util
from pathlib import Path

import pytest

from cubictrace.braids import BraidWord
from cubictrace.knotdata import load_records, validate_record

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_inner_spans_are_reached_through_their_attributes(workloads, monkeypatch):
    calls = {}
    for owner, attr, name in workloads.INNER_SPANS:
        original = getattr(owner, attr)
        assert callable(original), name

        def counted(*args, name=name, original=original):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, attr, counted)
    record = load_records()[0]
    assert validate_record(record).ok
    inv = workloads.coxeter.T0Invariant()
    inv.components(record.braid())
    assert sorted(calls) == sorted(name for _, _, name in workloads.INNER_SPANS)


def test_counted_functions_have_code_objects(workloads):
    for name, fn in workloads.COUNTED.items():
        code = fn.__code__
        assert code.co_filename and code.co_name, name


def test_profiled_pass_counts_the_skein_engine(workloads, tracing, monkeypatch):
    # a counted function that the program no longer calls by that code object
    # would read 0 without failing the run
    catalog = workloads.WORKLOADS["catalog"]
    inv = catalog.start_pass()
    monkeypatch.setattr(workloads.skein, "_RESOLVED", {})
    record = catalog.items()[0]
    names = ("skein.canonical_code.calls", "skein.piece_value.calls")
    counts = tracing.profiled_calls(
        lambda: catalog.run_item(inv, record, tracing.NullTracer()),
        {name: workloads.COUNTED[name] for name in names})
    assert all(counts[name] > 0 for name in names), counts


def test_counters_read_the_engines(workloads):
    w = BraidWord(3, (1, -2, 1, -2))
    catalog = workloads.WORKLOADS["catalog"]
    inv = catalog.start_pass()
    inv.components(w)
    caches = inv._kauffman_caches
    assert isinstance(caches, tuple) and len(caches) == 2
    assert all(isinstance(cache, dict) and cache for cache in caches)
    assert isinstance(inv.engine._memo, dict)
    counters = catalog.counters(inv)
    assert counters["coxeter.thm_memo.entries"] > 0 and counters["skein.cache.entries"] > 0
    stream = workloads.WORKLOADS["braid-stream"]
    ctx = stream.start_pass()
    ctx["t0"].components(w)
    assert all(value > 0 for value in stream.counters(ctx).values())


def test_one_braid_stream_item_runs_and_checks(workloads, tracing):
    # run_item calls the generic Ocneanu trace, both Kauffman traces and the
    # Burau determinant by name, and checks them against the T0 components
    stream = workloads.WORKLOADS["braid-stream"]
    w = stream.items()[0]
    line, bad = stream.run_item(stream.start_pass(), w, tracing.NullTracer())
    assert bad == []
    assert line.startswith(f"{w.strands}:{w.render()}\t") and "\thomfly=" in line
