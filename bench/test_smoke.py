"""Smoke test of the benchmark itself, at tiny size.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Every workload runs a few operations twice with one seed: all checks pass
and the input and output digests repeat. A traced run reports every
per-layer metric, measures every layer and repeats its counts exactly.
Outside a checkout the benchmark refuses to run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def run_ok(workload: str, ops: int, trace: int) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", "3", "--ops", str(ops),
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digests = json.loads(next(ln for ln in lines if ln.startswith("digests "))[len("digests "):])
    return json.loads(lines[-1]), digests


@pytest.mark.parametrize("workload, ops", [("linearize", 8), ("montecarlo", 1), ("oracles", 3)])
def test_workload_checks_pass_and_digests_repeat(workload, ops):
    first, d1 = run_ok(workload, ops, trace=0)
    second, d2 = run_ok(workload, ops, trace=0)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] == ops
    assert second["correct"]
    assert d1 == d2
    assert set(first["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
        assert first["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_layer_and_repeats_counts():
    first, d1 = run_ok("linearize", 8, trace=1)
    second, d2 = run_ok("linearize", 8, trace=1)
    assert first["correct"] and second["correct"]
    assert d1 == d2
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            assert m["value"] == second["metrics"][name]["value"], name
        if m["unit"] in ("ns", "us", "ms"):     # every layer is measured
            assert m["value"] > 0, name
    assert first["metrics"]["simulate.calls"]["value"] == 7
    assert first["metrics"]["rigidbody.generic_op_ms"]["value"] > 0
    assert first["metrics"]["trace.covered_frac"]["value"] >= 0.9


def test_refuses_to_run_outside_a_checkout():
    proc = bench("--workload", "oracles", "--seed", "1", "--ops", "1", cwd=ROOT / "bench")
    assert proc.returncode != 0
    assert proc.stdout == ""
