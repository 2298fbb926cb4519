"""The benchmark's operations, run in-process against the library under test.

The benchmark (`bench/`) drives the library through its own code paths. This
test runs one operation of every kind of every workload through the same
`make_op`, `run` and `check` calls, untraced and at the benchmark's sizes, so
that a change under `src/` which breaks the benchmark fails here too. It
writes no files: the modules under `bench/` are imported without bytecode
caching and are dropped from `sys.modules` afterwards.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("spans", "reference", "workloads")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: sys.modules.pop(name) for name in MODULES if name in sys.modules}
    try:
        yield importlib.import_module("spans"), importlib.import_module("workloads")
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


@pytest.mark.parametrize("name", ["linearize", "montecarlo", "oracles"])
def test_one_op_of_every_kind_runs_and_checks(bench, name):
    spans, workloads = bench
    wl = workloads.WORKLOADS[name](5, spans.NullTracer())
    for kind in dict.fromkeys(wl.kinds):
        op = wl.make_op(wl.kinds.index(kind))
        assert op.kind == kind
        out = wl.run(op)
        wl.check(op, out)
        assert len(out.digest()) == 64
