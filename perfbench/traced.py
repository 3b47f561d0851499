"""The traced run: replay a workload's verb session in one process, with a
span around every call into the public functions of each `qdev` layer,
and derive the per-layer metrics from those spans.

Spans are recorded from outside the package: `instrument` swaps every
public function and method of the layer modules (and every module-level
alias of them, such as the names `cli` imports) for a wrapper that records
(name, start, end, parent). The spans stay in memory until the run ends.

Calls that the session does not make are timed by probes on the same
inputs, so every per-layer metric is measured on every workload; each
probe span is tagged, and the spans file tells the two apart. The fixture
suite of `check` is a scope of its own: its d = 1 and d = 2 ensembles feed
only the linear-stepper and fixture metrics, never those of `simulate`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads

LAYERS = ("cli", "fileio", "models", "linalg", "lindblad", "deviation",
          "inequalities", "trajectories", "checks")
IMPORTTIME_REPEATS = 3

# Trajectory probe size: 800 path-steps, under a second at d = 24, where
# one path-step costs about 0.6 ms.
PROBE_TRAJECTORIES = {"dt": 1e-3, "t_max": 0.05, "n_paths": 16}


class Recorder:
    """Spans (name, start, end, parent) kept in memory; times in seconds
    from the recorder's creation."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.last: dict[str, object] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() - self.t0, "end": None}
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.t0

    def wrap(self, fn, name: str, module: str):
        """``fn`` with a span around each call from outside ``module``, and
        around every call when the metrics need the span."""
        observe = OBSERVERS.get(name)
        always = name in METRIC_SPANS
        keep = name in KEEP_LAST

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not always and sys._getframe(1).f_globals.get("__name__") == module:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if observe:
                    record.update(observe(args, kwargs, result))
                if keep:
                    self.last[name] = result
                return result
        return traced


def _linear_steps(args, kwargs, result) -> dict:
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"path_steps": config.n_paths * config.n_steps()}


# Spans the per-layer metrics read, recorded even for calls from inside
# their own layer (TiltedFamily.value from the tilt optimizer, assembly
# from stationary_state, parsing from load_model).
METRIC_SPANS = {
    "fileio.save_model", "fileio.load_model", "fileio.load_json", "fileio.decode_complex_matrix",
    "fileio.emit_report", "fileio.write_csv", "fileio.write_manifest", "models.depolarizing",
    "lindblad.Lindbladian.__init__", "lindblad.Lindbladian.heisenberg_superoperator",
    "lindblad.stationary_state", "lindblad.check_detailed_balance", "inequalities.spectral_gap",
    "inequalities.LipschitzContext.from_context", "inequalities.lipschitz_norm",
    "inequalities.tilde_observable", "deviation.TiltedFamily.__init__",
    "deviation.TiltedFamily.value", "deviation.TiltedFamily.value_gap_vector",
    "deviation.main_bound", "deviation.rate_function", "trajectories.run_ensemble",
    "trajectories.simulate_path", "trajectories.run_linear_ensemble", "checks.run_paper_fixtures",
}

# Results the probes reuse, so that they need not load the model again.
KEEP_LAST = {"fileio.load_model", "fileio.load_setup"}

# What the metrics need from a call's result, kept as small numbers so that
# spans hold no references to large arrays.
OBSERVERS = {
    "deviation.main_bound": lambda a, k, res: {"residual": res.stationarity_residual},
    "deviation.rate_function": lambda a, k, res: {
        "points": len(res), "ok": sum(p.status == "ok" for p in res)},
    "trajectories.run_ensemble": lambda a, k, res: {
        "path_steps": res.total_steps, "clip_violation_fraction": res.clip_violation_fraction,
        "n_resampled": res.n_resampled},
    "trajectories.run_linear_ensemble": _linear_steps,
}


def instrument(recorder: Recorder, package) -> list[tuple[object, str, object]]:
    """Wrap the public callables of every layer; returns the undo list."""
    modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
    wrapped: dict[int, object] = {}
    undo = []

    def swap(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = recorder.wrap(obj, f"{layer}.{attr}", mod.__name__)
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    if meth.startswith("_") and meth != "__init__":
                        continue
                    qual = f"{layer}.{attr}.{meth}"
                    if isinstance(raw, (staticmethod, classmethod)):
                        swap(obj, meth, type(raw)(recorder.wrap(raw.__func__, qual, mod.__name__)))
                    elif inspect.isfunction(raw):
                        swap(obj, meth, recorder.wrap(raw, qual, mod.__name__))
    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                swap(mod, attr, wrapped[id(obj)])
    return undo


def restore(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def import_times_ms(root: Path, env: dict) -> dict[str, float]:
    """Cumulative import time of qdev.cli, qdev.trajectories and
    qdev.deviation from `python -X importtime`, median of fresh processes."""
    samples: dict[str, list[float]] = {"cli": [], "trajectories": [], "deviation": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qdev.cli"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import of qdev.cli failed: {proc.stderr[-500:]}")
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("qdev."):
                layer = parts[2][len("qdev."):]
                if layer in samples:
                    samples[layer].append(int(parts[1]) / 1000.0)
    return {layer: float(np.median(v)) for layer, v in samples.items()}


# ---------------------------------------------------------------------------
# Replay and probes
# ---------------------------------------------------------------------------

def replay(recorder: Recorder, cli, workload: str, work: Path, inp: dict) -> tuple[int, int, list]:
    """Run the session's verbs in process; returns (attempted, failed, checks)."""
    stdout: dict[str, str] = {}
    checks = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for verb, argv in workloads.session(workload, inp):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except Exception:  # a verb that raises is a failed operation
                    traceback.print_exc()
                    code = -1
            stdout[verb] = out.getvalue()
            problem = workloads.verb_error(code, err.getvalue())
            checks.append((f"verb {verb}", problem is None, problem or "exit 0"))
    finally:
        os.chdir(cwd)
    checks += workloads.check_session(workload, work, inp, stdout)
    return len(checks), sum(1 for _, ok, _ in checks if not ok), checks


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

class Spans:
    """The spans of one subtree of a recording, leaving out the subtrees of
    spans named in ``skip``."""

    def __init__(self, spans: list[dict], root: int, skip=()):
        self.all = spans
        self.spans = []
        for s in spans:
            line = [s, *self._ancestors(s)]
            if any(a["id"] == root for a in line) and not any(
                    a["name"] in skip and a["id"] != root for a in line):
                self.spans.append(s)

    def named(self, *names) -> list[dict]:
        return [s for s in self.spans if s["name"] in names]

    def _ancestors(self, span):
        parent = span["parent"]
        while parent is not None:
            yield self.all[parent]
            parent = self.all[parent]["parent"]

    def busy(self, *names) -> float:
        """Time inside calls of ``names``, counting nested calls once."""
        return sum(s["end"] - s["start"] for s in self.named(*names)
                   if not any(a["name"] in names for a in self._ancestors(s)))

    def median(self, *names) -> float:
        durations = [s["end"] - s["start"] for s in self.named(*names)]
        if not durations:
            raise ValueError(f"no spans named {names}")
        return float(np.median(durations))

    def under(self, span, *names) -> float:
        """Time inside calls of ``names`` made within ``span``, nested calls once."""
        return sum(s["end"] - s["start"] for s in self.named(*names)
                   if any(a is span for a in self._ancestors(s))
                   and not any(a["name"] in names for a in self._ancestors(s)))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: time in its spans minus the time their child spans cover."""
    out = {layer: 0.0 for layer in LAYERS}
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    for s in spans:
        layer = s["name"].split(".")[0]
        if layer in out:
            out[layer] += s["end"] - s["start"] - children.get(s["id"], 0.0)
    return out


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def _load_parse(sp: Spans) -> float:
    loads = sp.named("fileio.load_model")
    return sum(sp.under(s, "fileio.load_json", "fileio.decode_complex_matrix")
               for s in loads) / len(loads)


def _rate(sp: Spans) -> dict:
    rates = sp.named("deviation.rate_function")
    points = sum(s["points"] for s in rates)
    busy = sp.busy("deviation.rate_function")
    return {"deviation.rate_function_s": busy, "deviation.rate_point_ms": _ms(busy) / points,
            "deviation.rate_ok_fraction": sum(s["ok"] for s in rates) / points}


def _ensemble(sp: Spans) -> dict:
    runs = sp.named("trajectories.run_ensemble")
    steps = sum(s["path_steps"] for s in runs)
    busy = sp.busy("trajectories.run_ensemble")
    return {"trajectories.run_ensemble_s": busy,
            "trajectories.us_per_path_step": 1e6 * busy / steps,
            "trajectories.clip_violation_fraction":
                sum(s["clip_violation_fraction"] * s["path_steps"] for s in runs) / steps,
            "trajectories.n_resampled": float(sum(s["n_resampled"] for s in runs))}


def _linear(sp: Spans) -> dict:
    steps = sum(s["path_steps"] for s in sp.named("trajectories.run_linear_ensemble"))
    return {"trajectories.linear_us_per_path_step":
            1e6 * sp.busy("trajectories.run_linear_ensemble") / steps}


FIXTURES = "checks.run_paper_fixtures"

# Per-layer metric groups: the call a group needs, and its metrics from the
# spans of the scope that made the call, or else of the group's probe. The
# scope is the session's verbs outside the fixture suite, except for the
# groups marked in FIXTURE_GROUPS, whose scope is the fixture suite.
GROUPS = {
    "load": ("fileio.load_model", lambda sp: {"fileio.load_model_parse_s": _load_parse(sp)}),
    "save": ("fileio.save_model",
             lambda sp: {"fileio.save_model_s": sp.busy("fileio.save_model")}),
    "emit": ("fileio.emit_report", lambda sp: {"fileio.emit_report_ms": _ms(sp.busy(
        "fileio.emit_report", "fileio.write_csv", "fileio.write_manifest"))}),
    "depolarizing": ("models.depolarizing",
                     lambda sp: {"models.depolarizing_s": sp.busy("models.depolarizing")}),
    "stationary": ("lindblad.stationary_state", lambda sp: {
        "lindblad.lindbladian_init_s": sp.busy("lindblad.Lindbladian.__init__"),
        "lindblad.assembly_s": sp.busy("lindblad.Lindbladian.heisenberg_superoperator"),
        "lindblad.stationary_state_s": sp.busy("lindblad.stationary_state")}),
    "detailed_balance": ("lindblad.check_detailed_balance", lambda sp: {
        "lindblad.detailed_balance_s": sp.busy("lindblad.check_detailed_balance")}),
    "spectral_gap": ("inequalities.spectral_gap", lambda sp: {
        "inequalities.spectral_gap_s": sp.busy("inequalities.spectral_gap")}),
    "lipschitz": ("inequalities.lipschitz_norm", lambda sp: {
        "inequalities.lipschitz_s": sp.busy("inequalities.LipschitzContext.from_context",
                                            "inequalities.lipschitz_norm",
                                            "inequalities.tilde_observable")}),
    "bound": ("deviation.main_bound", lambda sp: {
        "deviation.tilted_family_s": sp.busy("deviation.TiltedFamily.__init__"),
        "deviation.eigensolve_ms": _ms(sp.median("deviation.TiltedFamily.value")),
        "deviation.eigensolves": float(len(sp.named("deviation.TiltedFamily.value",
                                                    "deviation.TiltedFamily.value_gap_vector"))),
        "deviation.main_bound_s": sp.busy("deviation.main_bound"),
        "deviation.bound_residual": max(s["residual"] for s in sp.named("deviation.main_bound"))}),
    "rate": ("deviation.rate_function", _rate),
    "ensemble": ("trajectories.run_ensemble", _ensemble),
    "path": ("trajectories.simulate_path", lambda sp: {
        "trajectories.simulate_path_ms": _ms(sp.median("trajectories.simulate_path"))}),
    "linear": ("trajectories.run_linear_ensemble", _linear),
    "checks": (FIXTURES, lambda sp: {"checks.run_paper_fixtures_s": sp.busy(FIXTURES)}),
}
FIXTURE_GROUPS = {"linear", "checks"}


class Probes:
    """One call per metric group, on the workload's model and setup (the
    ones the session loaded last)."""

    def __init__(self, recorder: Recorder, qdev, seed: int, work: Path, inp: dict):
        self.recorder, self.q, self.seed, self.work, self.inp = recorder, qdev, seed, work, inp

    def context(self):
        last = self.recorder.last
        if "fileio.load_model" not in last:
            self.load()
        return last["fileio.load_model"].context, last["fileio.load_setup"]

    def r(self) -> np.ndarray:
        return np.asarray(self.inp["r"], dtype=float)

    def config(self):
        return self.q.trajectories.TrajectoryConfig(base_seed=self.seed, **PROBE_TRAJECTORIES)

    def load(self):
        model = self.q.fileio.load_model(self.work / "model.json")
        self.q.fileio.load_setup(self.work / "setup.json", model.context)

    def save(self):
        lind = self.context()[0].require_jumps()
        self.q.fileio.save_model(self.work / "probe_model.json", hamiltonian=lind.hamiltonian,
                                 jumps=lind.jumps, template="depolarizing")

    def emit(self):
        self.q.fileio.emit_report(self.work / "probe_report.csv", ["t", "value"],
                                  [[1.0, 0.5], [2.0, 0.25]], "csv", ["probe"], [], {})

    def depolarizing(self):
        self.q.models.depolarizing(self.context()[0].require_faithful())

    def stationary(self):
        self.q.lindblad.stationary_state(self.context()[0].require_jumps())

    def detailed_balance(self):
        for kind in ("GNS", "KMS", "BKM"):
            self.q.lindblad.check_detailed_balance(kind, self.context()[0])

    def spectral_gap(self):
        self.q.inequalities.spectral_gap(self.context()[0])

    def lipschitz(self):
        ctx, setup = self.context()
        ineq = self.q.inequalities
        lip = ineq.LipschitzContext.from_context(ctx)
        ineq.lipschitz_norm(lip, ineq.tilde_observable(ctx, setup.directions[0]))

    def bound(self):
        ctx, setup = self.context()
        self.q.deviation.main_bound(setup, ctx.sigma, self.r())

    def rate(self):
        setup = self.context()[1]
        dev = self.q.deviation
        dev.rate_function(setup, [dev.mean_vector(setup) + self.r()])

    def ensemble(self):
        ctx, setup = self.context()
        self.q.trajectories.run_ensemble(setup, ctx.sigma, self.config(), self.r())

    def path(self):
        ctx, setup = self.context()
        self.q.trajectories.simulate_path(setup, ctx.sigma, self.config(), 0)

    def linear(self):
        ctx, setup = self.context()
        self.q.trajectories.run_linear_ensemble(setup, ctx.sigma, self.config())

    def checks(self):
        self.q.checks.run_paper_fixtures()


def probe_and_measure(recorder: Recorder, probes: Probes, session_id: int) -> tuple[dict, list]:
    """Per-layer metrics of every group, probing the groups the session
    did not reach; returns (metrics, probe check results)."""
    verbs = Spans(recorder.spans, session_id, skip={FIXTURES})
    suites = Spans(recorder.spans, session_id).named(FIXTURES)
    fixtures = Spans(recorder.spans, suites[0]["id"]) if suites else None
    metrics, results = {}, []
    for group, (needed, measure) in GROUPS.items():
        scope = fixtures if group in FIXTURE_GROUPS else verbs
        if scope is None or not scope.named(needed):
            with recorder.span(f"probe.{group}", probe=True) as root:
                try:
                    getattr(probes, group)()
                    results.append((f"probe {group}", True, "ran"))
                except Exception as exc:  # a failed probe is a failed operation
                    results.append((f"probe {group}", False, f"{type(exc).__name__}: {exc}"))
            scope = Spans(recorder.spans, root["id"])
        try:
            metrics.update(measure(scope))
        except (ValueError, ZeroDivisionError, KeyError) as exc:
            results.append((f"metrics {group}", False, f"{type(exc).__name__}: {exc}"))
    return metrics, results
