"""The README's examples run as written: quick start, affine JSON, CLI lines."""

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import saltlib as sl
from saltlib.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# the Monte Carlo check (100k samples) and the verify battery have their own tests
_SKIPPED = ("covariance", "verify")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def _cli_lines():
    block = next(b for b in _blocks("sh") if "saltlib simulate" in b)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("saltlib ")]


def test_readme_examples_run(tmp_path):
    quick = re.findall(r"^```python\n(.*?)^```", _section("Library quick start"), flags=re.M | re.S)
    assert len(quick) == 1
    exec(compile(quick[0], "README.md quick start", "exec"), {})

    doc = next(b for b in _blocks("json") if '"saltlib-affine-v1"' in b)
    traj = sl.simulate(sl.load_affine(doc), 0, np.array([0.0, 0.5]), (0.0, 1.0))
    assert [ev.transition_index for ev in traj.events] == [0]

    commands = [argv for argv in _cli_lines() if argv[1] not in _SKIPPED]
    assert [argv[1] for argv in commands] == ["simulate", "saltation", "monodromy", "lqr"]
    for k, argv in enumerate(commands):
        out = tmp_path / f"{k}.out"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv[1:] + ["--output", str(out)])
        assert code == 0, (argv, err.getvalue())
        assert out.stat().st_size > 0
