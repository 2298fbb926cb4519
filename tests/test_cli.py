"""Command-line interface: subcommands, output formats, exit codes."""

import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import saltlib
from saltlib.cli import main


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _matching_fields_doc():
    return {
        "format": "saltlib-affine-v1",
        "modes": [
            {"dim": 2, "A": [[0.0, 0.0], [0.0, 0.0]], "c": [1.0, -1.0]},
            {"dim": 2, "A": [[0.0, 0.0], [0.0, 0.0]], "c": [1.0, -1.0]},
        ],
        "transitions": [
            {"from": 0, "to": 1, "guard": {"normal": [0.0, 1.0], "offset": 0.0},
             "reset": {"M": [[1.0, 0.0], [0.0, 1.0]]}},
        ],
    }


def _circle_doc():
    w = np.pi
    return {
        "format": "saltlib-affine-v1",
        "modes": [{"dim": 2, "A": [[0.0, -w], [w, 0.0]], "c": [0.0, 0.0]}],
        "transitions": [],
    }


def test_simulate_emits_sorted_indented_json():
    code, out, err = _run(["simulate", "--model", "bouncing-ball",
                           "--x0", "1,0", "--t", "0.6"])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert len(doc["segments"]) == 2
    assert len(doc["events"]) == 1
    assert doc["events"][0]["transition_name"] == "impact"
    assert doc["segments"][0]["mode_name"] == "ball"
    for seg in doc["segments"]:
        assert len(seg["times"]) == len(seg["states"])


def test_simulate_csv_labels_event_rows():
    code, out, _ = _run(["simulate", "--model", "bouncing-ball",
                         "--x0", "1,0", "--t", "0.6", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,mode,x0,x1"
    labels = [line.split(",")[1] for line in lines[1:]]
    assert labels.count("impact") == 1
    assert set(labels) == {"ball", "impact"}
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        float(fields[0]), float(fields[2]), float(fields[3])


def test_simulate_writes_output_file_atomically(tmp_path):
    target = tmp_path / "run.json"
    code, out, _ = _run(["simulate", "--model", "bouncing-ball", "--x0", "1,0",
                         "--t", "0.6", "--output", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert len(doc["events"]) == 1
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".saltlib-")]
    assert leftovers == []


def test_simulate_resolves_initial_mode_by_name():
    code, out, _ = _run(["simulate", "--model", "ball-drop", "--theta", "0.3",
                         "--x0", "0,0.5,0.2,2.0", "--t", "0.4", "--mode0", "V"])
    assert code == 0
    doc = json.loads(out)
    assert [ev["transition_name"] for ev in doc["events"]] == ["V->U"]


def test_saltation_closed_form_and_oracle_agree():
    code, out, _ = _run(["saltation", "--model", "ball-drop", "--theta", "0.3",
                         "--x0", "0,1,0,0", "--t", "0.6",
                         "--closed-form", "--oracle"])
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form"]["max_rel_err_vs_generic"] <= 1e-9
    assert doc["oracle"]["pass"] is True
    assert doc["oracle"]["max_rel_err"] <= 1e-4
    assert doc["event"]["transition_name"] == "U->S"


def test_saltation_reports_identity_shortcut(tmp_path):
    path = _write_json(tmp_path, "match.json", _matching_fields_doc())
    code, out, _ = _run(["saltation", "--model-json", path,
                         "--x0", "0,1", "--t", "2.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["saltation"]["identity_shortcut"] is True
    assert doc["structure"]["identity_reset"]
    assert doc["structure"]["field_match"]
    np.testing.assert_allclose(np.array(doc["saltation"]["xi"]), np.eye(2),
                               rtol=0, atol=1e-12)


def test_saltation_oracle_mismatch_returns_oracle_exit_code():
    code, out, _ = _run(["saltation", "--model", "bouncing-ball", "--x0", "1,0",
                         "--t", "0.6", "--oracle", "--oracle-rtol", "1e-15"])
    assert code == 6
    doc = json.loads(out)
    assert doc["oracle"]["pass"] is False


def test_monodromy_detects_period_automatically(tmp_path):
    path = _write_json(tmp_path, "circle.json", _circle_doc())
    code, out, _ = _run(["monodromy", "--model-json", path, "--x0", "1,0",
                         "--t", "3.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "marginal"
    assert doc["period"] == pytest.approx(2.0, abs=1e-6)
    mags = [abs(complex(re, im)) for re, im in doc["multipliers"]]
    assert max(abs(m - 1.0) for m in mags) <= 1e-6


def test_monodromy_accepts_explicit_period(tmp_path):
    path = _write_json(tmp_path, "circle.json", _circle_doc())
    code, out, _ = _run(["monodromy", "--model-json", path, "--x0", "1,0",
                         "--t", "3.0", "--period", "2.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == 2.0
    np.testing.assert_allclose(np.array(doc["phi"]), np.eye(2), rtol=0, atol=1e-9)


def test_covariance_monte_carlo_check_passes():
    code, out, _ = _run(["covariance", "--model", "constant-flow", "--f-i", "1,-1",
                         "--f-j", "1,0.3", "--guard-normal", "0,1", "--x0", "0,0.1",
                         "--t", "0.2", "--sigma0", "1e-4", "--step", "0.005",
                         "--mc-check", "--mc-samples", "20000"])
    assert code == 0
    doc = json.loads(out)
    assert doc["monte_carlo"]["pass"] is True
    assert doc["monte_carlo"]["frobenius_rel_err"] <= 0.05
    sigma = np.array(doc["final"]["sigma"])
    np.testing.assert_allclose(sigma, sigma.T, rtol=0, atol=1e-15)


def test_covariance_csv_emits_eigenvalue_spectrum():
    code, out, _ = _run(["covariance", "--model", "constant-flow", "--f-i", "1,-1",
                         "--f-j", "1,0.3", "--guard-normal", "0,1", "--x0", "0,0.1",
                         "--t", "0.2", "--sigma0", "1e-4", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,mode,eig0,eig1"
    for line in lines[1:]:
        fields = line.split(",")
        lo, hi = float(fields[2]), float(fields[3])
        assert lo <= hi
        assert lo >= -1e-15


def test_lqr_emits_gain_schedule():
    code, out, _ = _run(["lqr", "--model", "bouncing-ball", "--x0", "1,0",
                         "--t", "0.6", "--b", "0;1", "--q", "1", "--v", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["gains"]) == len(doc["gain_times"])
    assert doc["n_events"] == 1
    value = np.array(doc["value_start"])
    np.testing.assert_allclose(value, value.T, rtol=0, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(value) >= -1e-10)


def test_runaway_event_accumulation_exit_code():
    code, out, err = _run(["simulate", "--model", "bouncing-ball", "--x0", "1,0",
                           "--t", "1.3", "--max-events", "4"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_simultaneous_guard_crossings_exit_code(tmp_path):
    doc = _matching_fields_doc()
    doc["modes"].append({"dim": 2, "A": [[0.0, 0.0], [0.0, 0.0]], "c": [0.0, 0.0]})
    doc["transitions"].append(
        {"from": 0, "to": 2, "guard": {"normal": [-1.0, 0.0], "offset": 1.0},
         "reset": {"M": [[1.0, 0.0], [0.0, 1.0]]}})
    path = _write_json(tmp_path, "race.json", doc)
    code, _, err = _run(["simulate", "--model-json", path, "--x0", "0,1", "--t", "1.5"])
    assert code == 3
    assert "error:" in err


def test_tangential_guard_contact_exit_code(tmp_path):
    graze = {
        "format": "saltlib-affine-v1",
        "modes": [
            {"dim": 2, "A": [[0.0, 1.0], [0.0, 0.0]], "c": [0.0, 0.0002]},
            {"dim": 2, "A": [[0.0, 0.0], [0.0, 0.0]], "c": [0.0, 0.0]},
        ],
        "transitions": [
            {"from": 0, "to": 1, "guard": {"normal": [1.0, 0.0], "offset": 0.0},
             "reset": {"M": [[1.0, 0.0], [0.0, 1.0]]}},
        ],
    }
    path = _write_json(tmp_path, "graze.json", graze)
    code, _, err = _run(["simulate", "--model-json", path,
                         "--x0", "9.9999999999e-05,-0.0002", "--t", "2.0"])
    assert code == 4
    assert "transversality" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "bouncing-ball", "--t", "1"],
    ["simulate", "--model", "bouncing-ball", "--x0", "1,0", "--t", "1",
     "--threads", "0"],
    ["simulate", "--model", "bouncing-ball", "--x0", "1;0", "--t", "1"],
    ["simulate", "--model", "constant-flow", "--x0", "0,1", "--t", "1"],
    ["lqr", "--model", "bouncing-ball", "--x0", "1,0", "--t", "0.6", "--q", "abc"],
    ["lqr", "--model", "bouncing-ball", "--x0", "1,0", "--t", "0.6", "--b", "0;1;2"],
    ["lqr", "--model", "bouncing-ball", "--x0", "1,0", "--t", "0.6", "--b", "0;1",
     "--p-terminal", "1,0;0,1;0,0"],
])
def test_input_schema_violations_exit_code(argv):
    code, _, err = _run(argv)
    assert code == 5
    assert "error:" in err


_FLOW = ["--model", "constant-flow", "--x0", "0,1", "--t", "1"]


@pytest.mark.parametrize("option, argv", [
    ("--x0", ["simulate", "--model", "bouncing-ball", "--x0", "a,b", "--t", "0.6"]),
    ("--sigma0", ["covariance", "--model", "bouncing-ball", "--x0", "1,0", "--t", "0.6",
                  "--sigma0", "1,x"]),
    ("--f-i", ["simulate", *_FLOW, "--f-i", "1,a", "--f-j", "1,0", "--guard-normal", "1,0"]),
    ("--f-j", ["simulate", *_FLOW, "--f-i", "1,0", "--f-j", "1,a", "--guard-normal", "1,0"]),
    ("--guard-normal", ["simulate", *_FLOW, "--f-i", "1,0", "--f-j", "1,0",
                        "--guard-normal", "1,a"]),
])
def test_malformed_vector_option_is_named(option, argv):
    code, _, err = _run(argv)
    assert code == 5
    assert f"error: {option}: expected comma-separated numbers" in err


def test_schema_violation_in_model_file(tmp_path):
    doc = _matching_fields_doc()
    doc["format"] = "nope"
    path = _write_json(tmp_path, "bad.json", doc)
    code, _, err = _run(["simulate", "--model-json", path, "--x0", "0,1", "--t", "1"])
    assert code == 5
    assert "/format" in err


def test_generic_failure_exit_code():
    code, _, err = _run(["saltation", "--model", "bouncing-ball", "--x0", "1,0",
                         "--t", "0.6", "--event-index", "5"])
    assert code == 1
    assert "out of range" in err


def test_localization_failure_at_large_times_exit_code():
    code, _, err = _run(["simulate", "--model", "bouncing-ball", "--e", "0.5", "--x0", "1,0",
                         "--t0", "1e7", "--t", "10000000.5"])
    assert code == 1
    assert "ulp(t)=1.863e-09 > tol_t=1e-12" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        _run(["simulate", "--model", "no-such-model", "--x0", "1,0", "--t", "1"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        _run([])
    assert info.value.code == 64


@pytest.mark.parametrize("argv", [
    ["saltation", "--model", "bouncing-ball", "--x0", "1,0", "--t", "0.6", "--format", "csv"],
    ["monodromy", "--model", "bouncing-ball", "--e", "1.0", "--x0", "1,0", "--t", "2.0",
     "--seed", "3"],
    ["lqr", "--model", "bouncing-ball", "--x0", "1,0", "--t", "0.6", "--format", "json"],
    ["simulate", "--model", "bouncing-ball", "--x0", "1,0", "--t", "0.6", "--seed", "3"],
])
def test_options_a_command_does_not_read_are_usage_errors(argv):
    # --format is read by simulate and covariance only, --seed by covariance
    # (and verify); elsewhere they would be accepted and silently ignored
    with pytest.raises(SystemExit) as info:
        _run(argv)
    assert info.value.code == 64


_MC = ["covariance", "--model", "constant-flow", "--f-i", "1,-1", "--f-j", "1,0.3",
       "--guard-normal", "0,1", "--x0", "0,0.1", "--t", "0.2", "--sigma0", "1e-4",
       "--step", "0.005", "--mc-check"]


@pytest.mark.parametrize("argv", [
    _MC + ["--mc-samples", "0"],
    _MC + ["--mc-samples", "1"],
    ["verify", "--mc-samples", "1"],
], ids=["covariance-0", "covariance-1", "verify-1"])
def test_fewer_than_two_monte_carlo_samples_is_a_schema_error(argv):
    code, out, err = _run(argv)
    assert code == 5
    assert out == ""
    assert "mc_samples" in err


def test_covariance_exit_code_follows_the_printed_pass_flag(monkeypatch):
    # a NaN gap compares false both ways; the document says "pass": false,
    # so the exit code must not say success
    monkeypatch.setattr("saltlib.cli.monte_carlo_covariance",
                        lambda *a, **k: np.full((2, 2), np.nan))
    code, out, _ = _run(_MC + ["--mc-samples", "100"])
    assert '"pass": false' in out
    assert code == 6


def test_verify_battery_is_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--seed", "7", "--mc-samples", "20000"]
    code1, _, _ = _run(argv + ["--output", str(f1)])
    code2, _, _ = _run(argv + ["--output", str(f2)])
    assert code1 == 0 and code2 == 0
    assert f1.read_bytes() == f2.read_bytes()
    doc = json.loads(f1.read_text())
    assert doc["failed"] == 0
    assert doc["passed"] == len(doc["checks"]) == 11
    names = [c["name"] for c in doc["checks"]]
    assert len(set(names)) == len(names)
    assert all(c["pass"] for c in doc["checks"])


def test_verify_responds_to_seed():
    code1, out1, _ = _run(["verify", "--seed", "7", "--mc-samples", "5000"])
    code2, out2, _ = _run(["verify", "--seed", "8", "--mc-samples", "5000"])
    assert code1 == 0 and code2 == 0
    assert out1 != out2
    assert json.loads(out1)["seed"] == 7
    assert json.loads(out2)["seed"] == 8


def _module_cli_env(**overrides):
    """Environment for a child ``python -m saltlib.cli`` that imports this saltlib."""
    src = str(Path(saltlib.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **overrides)


def test_console_script_declaration_resolves():
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["saltlib"] == "saltlib.cli:main"
    module, _, attr = scripts["saltlib"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.skipif(
    shutil.which("saltlib") is None,
    reason="no `saltlib` console script on PATH; install with `pip install -e .`",
)
def test_installed_entry_point():
    exe = shutil.which("saltlib")
    assert exe is not None
    proc = subprocess.run(
        [exe, "simulate", "--model", "bouncing-ball", "--x0", "1,0", "--t", "0.6"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["events"]) == 1


def test_thread_env_variable_is_validated():
    cmd = [sys.executable, "-m", "saltlib.cli"]
    env = _module_cli_env(SALTLIB_THREADS="bogus")
    proc = subprocess.run(
        cmd + ["simulate", "--model", "bouncing-ball", "--x0", "1,0", "--t", "0.6"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 5
    env = _module_cli_env(SALTLIB_THREADS="2")
    proc = subprocess.run(
        cmd + ["simulate", "--model", "bouncing-ball", "--x0", "1,0", "--t", "0.6"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
