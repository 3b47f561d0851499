"""The traced benchmark run as a smoke test.

`perfbench/run.py --trace 1` replays both workloads in one process and
derives the per-layer metrics that BENCHMARK.json lists from spans around
the library's public calls, so it breaks when a name it calls changes or
a metric comes out empty. This runs it once, from the repo root, and reads
BENCHMARK.json without editing it.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _refuse_constant(name):
    raise ValueError(f"result line holds {name}, which is not JSON")


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
                           "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    failures = [line for line in proc.stdout.splitlines() if "[FAIL]" in line]
    assert result["correct"] is True and result["failed"] == 0, failures
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        for name in (m["name"] for m in bench["per_layer"]):
            key = f"{workload}.{name}"
            assert key in result["metrics"], f"{key} not reported"
            assert math.isfinite(result["metrics"][key]["value"]), f"{key} is not finite"
