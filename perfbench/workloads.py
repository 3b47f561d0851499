"""The two workloads: the `qdev` verb session each one runs, and the checks
on the outputs of a session.

A session is a list of (verb, argv) pairs run from the workload's work
directory. The same argv lists drive the end-to-end run (one child process
per verb) and the traced replay (in-process `qdev.cli.main`), so both see
the same inputs and produce the same files.

Why these workloads:
- analytics-d24: 576 x 576 superoperators; assembly, the stationary solve,
  large eigensolves and a 23 MB model file dominate. No trajectories.
- qutrit: 9 x 9 matrices, so assembly is negligible. `rate` spends its
  time in the count of eigensolves and the scalar optimizer, including
  grid points the optimizer must walk out to its cap before flagging them
  unbounded; `simulate` runs the stepper's general-d branch (per-step eigh
  for positivity, thinned jumps) on a generic faithful state; the fixture
  suite of `check` runs the special-cased d = 1 and d = 2 branches and the
  linear stepper.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Files each session writes; removed before a session so that no check
# can pass on the output of an earlier one.
OUTPUTS = {"analytics-d24": ("model.json", "bound.csv", "report.json", "report.csv"),
           "qutrit": ("bound.csv", "rate.csv", "sim.csv", "compare.csv")}

Check = tuple[str, bool, str]


def _csv_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def session(workload: str, inp: dict) -> list[tuple[str, list[str]]]:
    if workload == "analytics-d24":
        return [
            ("model_new", ["model", "new", "--template", "depolarizing",
                           "--sigma", "sigma.json", "-o", "model.json"]),
            ("bound", ["bound", "--model", "model.json", "--setup", "setup.json",
                       "--r", _csv_list(inp["r"]), "--t", _csv_list(inp["t"]), "-o", "bound.csv"]),
            ("inequalities", ["inequalities", "--model", "model.json", "--setup", "setup.json",
                              "-o", "report"]),
        ]
    if workload == "qutrit":
        r = _csv_list(inp["r"])
        return [
            ("bound", ["bound", "--model", "model.json", "--setup", "setup.json",
                       "--r", r, "--t", _csv_list(inp["t"]), "-o", "bound.csv"]),
            ("rate", ["rate", "--model", "model.json", "--setup", "setup.json",
                      "--grid-file", "grid.json", "-o", "rate.csv"]),
            ("simulate", ["--threads", "1", "simulate", "--model", "model.json",
                          "--setup", "setup.json", "--config", "config.json",
                          "--r", r, "-o", "sim.csv"]),
            ("compare", ["compare", "--simulate-csv", "sim.csv", "--bound-csv", "bound.csv",
                         "-o", "compare.csv"]),
            ("check", ["check", "--suite", "paper-fixtures"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def verb_error(returncode: int, stderr: str) -> str | None:
    """Why a verb call failed, or None: it must exit 0 and print no JSON error."""
    if returncode != 0:
        return f"exit code {returncode}"
    for line in stderr.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and "code" in doc:
            return f"JSON error on stderr: {line.strip()}"
    return None


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _guard(name: str, fn) -> Check:
    """Run one check; a missing or malformed output fails it."""
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return name, False, f"{type(exc).__name__}: {exc}"
    return name, bool(ok), detail


def _decode(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _statuses_ok(path: Path) -> tuple[bool, str]:
    statuses = [row["status"] for row in _rows(path)]
    return bool(statuses) and all(s == "ok" for s in statuses), f"{path.name}: {statuses}"


def check_analytics(work: Path, inp: dict) -> list[Check]:
    def report():
        return json.loads((work / "report.json").read_text())

    def stationary():
        err = float(np.max(np.abs(_decode(report()["stationary_state"]) - inp["sigma"])))
        return err <= 1e-9, f"max |sigma_out - sigma| = {err:.2e}"

    def gap():
        err = abs(float(report()["spectral_gap"]) - 1.0)
        return err <= 1e-8, f"|gap - 1| = {err:.2e}"

    def symmetric():
        sym = report()["symmetry"]
        return all(sym[k]["symmetric"] for k in ("GNS", "KMS", "BKM")), json.dumps(sym)

    def lsi():
        err = abs(float(report()["lsi_alpha2"]) - inp["lsi_alpha2"])
        return err <= 1e-9, f"|alpha2 - closed form| = {err:.2e}"

    return [
        _guard("stationary state equals sigma", stationary),
        _guard("spectral gap is 1", gap),
        _guard("symmetric under GNS, KMS and BKM", symmetric),
        _guard("lsi_alpha2 matches the closed form", lsi),
        _guard("bound status ok", lambda: _statuses_ok(work / "bound.csv")),
    ]


def check_rate(work: Path, inp: dict) -> list[Check]:
    grid = inp["grid"]
    counting = grid[:, 1:]

    def duality():
        exponent = float(_rows(work / "bound.csv")[0]["exponent"])
        rate = float(_rows(work / "rate.csv")[0]["rate"])  # grid point 0 is m + r
        err = abs(exponent - rate)
        return err <= 1e-6, f"|exponent - rate(m + r)| = {err:.2e}"

    def statuses(feasible: bool, want: str):
        rows = _rows(work / "rate.csv")
        if len(rows) != len(grid):
            return False, f"{len(rows)} rows for {len(grid)} grid points"
        mask = np.all(counting >= 0, axis=1) == feasible
        bad = [i for i, row in enumerate(rows) if mask[i] and row["status"] != want]
        return not bad and mask.any(), f"{int(mask.sum())} points, not {want}: {bad[:5]}"

    return [
        _guard("bound exponent equals rate(m + r)", duality),
        _guard("feasible grid points ok", lambda: statuses(True, "ok")),
        _guard("negative counting points unbounded", lambda: statuses(False, "unbounded")),
    ]


def check_simulate(work: Path, inp: dict, reference_csv: bytes | None) -> list[Check]:
    def consistent():
        rows = _rows(work / "compare.csv")
        flags = [row["consistent"] for row in rows]
        return len(rows) == len(inp["t"]) and all(f == "true" for f in flags), f"consistent: {flags}"

    checks = [
        _guard("every compare row consistent", consistent),
        _guard("simulate status ok", lambda: _statuses_ok(work / "sim.csv")),
        _guard("bound status ok", lambda: _statuses_ok(work / "bound.csv")),
    ]
    if reference_csv is not None:
        same = (work / "sim.csv").read_bytes() == reference_csv
        checks.append(("simulate CSV bytes repeat", same, "identical" if same else "differ"))
    return checks


def check_fixtures(stdout: str) -> list[Check]:
    lines = [line for line in stdout.splitlines() if line.startswith("[")]
    failed = [line for line in lines if not line.startswith("[PASS]")]
    return [("every fixture line PASS", bool(lines) and not failed,
             f"{len(lines) - len(failed)}/{len(lines)} PASS")]


def check_session(workload: str, work: Path, inp: dict, stdout: dict,
                  reference_csv: bytes | None = None) -> list[Check]:
    """Output checks for one session; ``stdout`` maps verb to its stdout."""
    if workload == "analytics-d24":
        return check_analytics(work, inp)
    return (check_rate(work, inp) + check_simulate(work, inp, reference_csv)
            + check_fixtures(stdout.get("check", "")))
