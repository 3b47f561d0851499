"""Analytics output across BLAS thread counts.

The CSV bytes of `bound` and `inequalities` hold for a fixed BLAS build and
thread count only: at d = 24 the last digits of the exponent, the spectral
gap and lsi_alpha2 move between one and two OpenBLAS threads. What must not
move is every status and symmetry flag, and every number beyond rounding.
This runs `model new`, `bound` and `inequalities` on the benchmark's
seed-1 analytics inputs under OPENBLAS_NUM_THREADS=1 and 2, set in the
children's environment only.
"""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REL_TOL = 1e-12


def _benchmark_inputs():
    spec = importlib.util.spec_from_file_location("benchmark_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_analytics(work: Path, threads: int) -> dict:
    inp = _benchmark_inputs().analytics_d24(1, work)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def floats(values):
        return ",".join(repr(float(v)) for v in values)

    for argv in (["model", "new", "--template", "depolarizing", "--sigma", "sigma.json", "-o", "model.json"],
                 ["bound", "--model", "model.json", "--setup", "setup.json", "--r", floats(inp["r"]),
                  "--t", floats(inp["t"]), "-o", "bound.csv"],
                 ["inequalities", "--model", "model.json", "--setup", "setup.json", "-o", "report"]):
        proc = subprocess.run([sys.executable, "-m", "qdev.cli", *argv], cwd=work, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    return {name: list(csv.reader((work / name).read_text().splitlines()))
            for name in ("bound.csv", "report.csv")}


def _agree(a: str, b: str) -> bool:
    """Equal cells, or numbers within REL_TOL of max(1, |a|); a status or a
    symmetry flag must be equal."""
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= REL_TOL * max(1.0, abs(x))


def test_analytics_agree_across_blas_threads(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    first, second = _run_analytics(one, 1), _run_analytics(two, 2)
    for name, rows in first.items():
        assert len(rows) == len(second[name]), name
        for row, other in zip(rows, second[name]):
            assert len(row) == len(other), (name, row, other)
            assert all(_agree(a, b) for a, b in zip(row, other)), (name, row, other)
