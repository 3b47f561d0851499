"""The four `bench/` sweeps, each run once at its smallest size.

The sweeps reach into the library: `eig_crossover.py` replaces
`deviation.top_eigenpair` and `TiltedFamily.value`, and `stepper.py` calls
`_Engine.advance`, `jumps`, `normalize` and `step_block`. So a refactor
that renames or reshapes them breaks a sweep that no other test runs. Each
run must exit 0 and print only strict JSON lines with no "error" or
"skipped" key.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SWEEPS = {
    "stepper": ["bench/stepper.py", "--dims", "1", "--repeats", "1", "--sweep="],
    "eig_crossover": ["bench/eig_crossover.py", "--dims", "3", "--repeats", "1"],
    "analytics_scale": ["bench/analytics_scale.py", "--dims", "4", "--repeats", "1"],
    "heat_bath_scale": ["bench/heat_bath_scale.py", "--sites", "2", "--repeats", "1"],
}


def _refuse_constant(name):
    raise ValueError(f"line holds {name}, which is not JSON")


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_runs_at_its_smallest_size(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *SWEEPS[name]], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines, "no output"
    for line in lines:
        row = json.loads(line, parse_constant=_refuse_constant)
        assert not {"error", "skipped"} & set(row), line
