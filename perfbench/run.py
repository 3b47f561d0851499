"""qdev benchmark: run one workload as a session of `qdev` CLI verbs.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout; `qdev` is imported from its `src/`.

--trace 0 (end to end): times a few fresh `import qdev.cli` interpreters
(setup_s), then runs the workload's verb session again and again, each
verb a fresh child process, until another session would end the run past
--seconds (at least one session; two for qutrit, whose simulate CSV bytes
must repeat). Reports medians over sessions.

--trace 1 (per layer): replays the session once in this process with a
span around every public call into each `qdev` layer, and derives the
per-layer metrics from the spans.

Every output is checked; a verb that fails or a check that fails counts
as a failed operation. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Full results, the
environment and (traced) the spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
# Sessions a run needs: qutrit compares the simulate CSV bytes of two.
MIN_SESSIONS = {"qutrit": 2}
VERB_TIMEOUT_S = 100.0
# Stop starting sessions past this, whatever --seconds says, so that a run
# stays under three minutes.
HARD_STOP_S = 100.0

# Units of the metrics reported beside those BENCHMARK.json lists.
EXTRA_UNITS = {"model_new_s": "s", "bound_s": "s", "rate_s": "s", "simulate_s": "s",
               "compare_s": "s", "inequalities_s": "s", "check_s": "s", "error_rate": "fraction",
               "path_steps_per_s": "1/s", "rate_points_per_s": "1/s", "trace_total_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QDEV_SEED", None)
    return env


def run_child(argv: list[str], cwd: Path, env: dict) -> dict:
    """One child process; wall time, peak RSS from wait4, exit code, output."""
    out_path, err_path = cwd / ".child.out", cwd / ".child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(VERB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode,
            "stdout": out_path.read_text(), "stderr": err_path.read_text()}


def qdev_argv(verb_argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "qdev.cli", *verb_argv]


def measure_setup(env: dict) -> list[float]:
    """Wall times of fresh interpreters that import qdev.cli and exit; each
    also confirms that qdev comes from this checkout."""
    times = []
    for _ in range(SETUP_REPEATS):
        res = run_child([sys.executable, "-c", "import qdev.cli; print(qdev.cli.__file__)"], OUT, env)
        origin = res["stdout"].strip()
        if res["returncode"] != 0 or not origin.startswith(str(SRC)):
            raise SystemExit(f"cannot import qdev from {SRC}: {res['stderr'][-500:] or origin}")
        times.append(res["wall_s"])
    return times


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas() -> dict:
    """The OpenBLAS libraries loaded in this process and their thread counts."""
    import ctypes

    import numpy  # noqa: F401  loads numpy's BLAS
    import scipy.linalg  # noqa: F401  loads scipy's BLAS

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    threads.restype = ctypes.c_int
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    config.restype = ctypes.c_char_p
                    info = {"threads": threads(), "config": config().decode()}
        found[Path(path).name] = info
    return found


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": commit,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, work: Path, inp: dict) -> dict:
    env = child_env()
    run_start = time.perf_counter()
    setup = measure_setup(env)
    steps = workloads.session(workload, inp)
    sessions, checks = [], []
    attempted = failed = 0
    reference_csv = None
    while True:
        for name in workloads.OUTPUTS[workload]:
            (work / name).unlink(missing_ok=True)
        t0 = time.perf_counter()
        verbs, stdout = {}, {}
        for verb, argv in steps:
            res = run_child(qdev_argv(argv), work, env)
            verbs[verb] = res
            stdout[verb] = res["stdout"]
            attempted += 1
            problem = workloads.verb_error(res["returncode"], res["stderr"])
            if problem:
                failed += 1
                checks.append((f"verb {verb}", False, problem))
        wall = time.perf_counter() - t0
        found = workloads.check_session(workload, work, inp, stdout, reference_csv)
        if workload == "qutrit" and reference_csv is None and (work / "sim.csv").exists():
            reference_csv = (work / "sim.csv").read_bytes()
        attempted += len(found)
        failed += sum(1 for _, ok, _ in found if not ok)
        # Keep every check of the first session and each failure after it.
        checks += [c for c in found if not c[1]] if sessions else found
        sessions.append({"wall_s": wall,
                         "verbs": {v: {"wall_s": r["wall_s"], "rss_mb": r["rss_mb"]}
                                   for v, r in verbs.items()}})
        elapsed = time.perf_counter() - run_start
        if len(sessions) >= MIN_SESSIONS.get(workload, 1) and (
                elapsed + wall > seconds or elapsed > HARD_STOP_S):
            break

    metrics = {
        "wall_s": statistics.median(s["wall_s"] for s in sessions),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(v["rss_mb"] for v in s["verbs"].values())
                                         for s in sessions),
    }
    # The per-verb times, throughputs and error rate are reported by name
    # beside the bounded metrics, for the workloads where they apply.
    extra = {f"{verb}_s": statistics.median(s["verbs"][verb]["wall_s"] for s in sessions)
             for verb, _ in steps}
    if workload == "qutrit":
        extra["path_steps_per_s"] = inp["path_steps"] / extra["simulate_s"]
        extra["rate_points_per_s"] = len(inp["grid"]) / extra["rate_s"]
    extra["error_rate"] = failed / attempted
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra,
            "checks": checks, "sessions": sessions, "setup_samples": setup}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced_run(workload: str, seed: int, work: Path, inp: dict) -> dict:
    import traced

    t_start = time.perf_counter()
    import_ms = traced.import_times_ms(ROOT, child_env())
    sys.path.insert(0, str(SRC))
    import qdev
    import qdev.cli

    if not str(Path(qdev.__file__).resolve()).startswith(str(SRC)):
        raise SystemExit(f"qdev imported from {qdev.__file__}, not from {SRC}")
    recorder = traced.Recorder()
    undo = traced.instrument(recorder, qdev)
    try:
        with recorder.span("session", workload=workload) as session:
            attempted, failed, checks = traced.replay(recorder, qdev.cli, workload, work, inp)
        probes = traced.Probes(recorder, qdev, seed, work, inp)
        metrics, probe_checks = traced.probe_and_measure(recorder, probes, session["id"])
    finally:
        traced.restore(undo)
    attempted += len(probe_checks)
    failed += sum(1 for _, ok, _ in probe_checks if not ok)
    metrics.update({f"{layer}.import_ms": ms for layer, ms in import_ms.items()})
    total = time.perf_counter() - t_start
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "extra": {"trace_total_s": total}, "checks": checks + probe_checks,
            "layer_self_s": traced.self_times(recorder.spans), "spans": recorder.spans}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def units(trace: int) -> dict[str, str]:
    """Units of the metrics a run reports: BENCHMARK.json's, then the extras."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    return listed | EXTRA_UNITS


def run_workload(workload: str, seed: int, seconds: float, trace: int, env_record: dict) -> dict:
    work = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inp = inputs.GENERATORS[workload](seed, work)
    if trace:
        result = traced_run(workload, seed, work, inp)
    else:
        result = end_to_end(workload, seed, seconds, work, inp)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  environment=env_record)
    spans = result.pop("spans", None)
    tag = f"{workload}-seed{seed}-trace{trace}"
    if spans is not None:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "total_s": result["extra"]["trace_total_s"],
             "metrics": result["metrics"], "layer_self_s": result["layer_self_s"],
             "spans": spans}, default=str))
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str))
    unit = units(trace)
    for name, value in {**result["metrics"], **result["extra"]}.items():
        print(f"{workload} {name} = {value:.6g} {unit.get(name, '')}")
    for name, ok, detail in result["checks"]:
        print(f"{workload} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdev" / "cli.py").is_file():
        print(f"no qdev sources at {SRC}: run from the root of a qdev checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env_record = environment()
    print("environment " + json.dumps(env_record))
    names = list(inputs.GENERATORS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, args.trace, env_record) for w in names]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    unit = units(args.trace)
    if len(results) == 1:
        metrics = results[0]["metrics"]
        metrics = {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": unit.get(k, "")}
                   for r in results for k, v in {**r["metrics"], **r["extra"]}.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
