"""Cost of the trajectory stepper per path-step, and the block-size sweep.

    PYTHONPATH=src python3 bench/stepper.py [--dims 1,2,3,8,16,32] [--repeats 5]
        [--sweep 256,512,1024,2048] [--sweep-dims 1,3]

The model at each d >= 2 is the depolarizing semigroup toward a seeded
random faithful state, with one Brownian channel on the |0><1|, |1><0| jump
pair and two counting channels on the jumps |0><2| and |1><1| (|1><1| and
|0><0| at d = 2); the other d^2 - 3 jumps are unmonitored. At d = 1 it has
two scalar jumps, 0.4 (Brownian) and 1.2 (counting).

Printed, one JSON line each:

- per d, "us_per_path_step" of `run_ensemble` (the filter) and of
  `run_linear_ensemble`: the median over repeats of the time difference
  between runs of 2S and S steps, divided by paths x S, so the one-off
  setup (operators, streams) drops out. This part uses only the public
  API, so it also runs on older versions of the package.
- per d, when the package has the real-coordinate stepper, the same cost
  split into its parts, each timed alone on the block's states: "advance"
  (the one real GEMM by the Kraus blocks and expectation functionals, the
  records dy and the weighted block sum), "jumps" (thinning and
  L rho L^dagger on a representative share of fired paths),
  "normalization" (the trace division) and "positivity" (one batched
  Cholesky, paid once per checkpoint, shown per call). "loop" (the rest
  of a step: noise draws, records, Python) is timed directly: `step_block`
  runs of 2S and S steps, differenced, on engines whose advance, jumps and
  normalization are stand-ins that return precomputed arrays.
- per block size in --sweep, "us_per_path_step" of the filter at each of
  --sweep-dims with BLOCK_PATHS set to it and NOISE_CHUNK_STEPS set so
  that a chunk holds the same 2**17 draws per channel, on 2048 paths.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import time

import numpy as np

from qdev import deviation, linalg, lindblad, models, trajectories

DT = 1e-3
CHUNK_DRAWS = 2 ** 17
SWEEP_PATHS = 2048


def setup_for(d: int) -> deviation.MeasurementSetup:
    if d == 1:
        lind = lindblad.Lindbladian(np.zeros((1, 1)), [np.array([[0.4]]), np.array([[1.2]])])
        return deviation.MeasurementSetup(lindblad.stationary_state(lind), np.eye(2), 1)
    rng = np.random.default_rng(d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    sigma = g @ g.conj().T
    sigma = 0.8 * sigma / np.trace(sigma).real + 0.2 * np.eye(d) / d
    ctx = lindblad.stationary_state(models.depolarizing(sigma))
    u = np.zeros((3, d * d))
    u[0, 1] = u[0, d] = 1.0 / math.sqrt(2.0)          # |0><1| and |1><0|
    u[1, 2 if d > 2 else 3] = 1.0                      # |0><2|, or |1><1| at d = 2
    u[2, d + 1 if d > 2 else 0] = 1.0                  # |1><1|, or |0><0| at d = 2
    return deviation.MeasurementSetup(ctx, u, 1)


def sizes(d: int) -> tuple[int, int]:
    """Paths and the step count S of the shorter run at dimension d. Each
    run also builds its engine, whose time varies by about 0.1 s at d = 32
    (0.47-0.58 s over 10 builds, 2-vCPU x86-64), so S makes the stepping
    difference of the two runs about 1.6 s there."""
    if d <= 3:
        return 1024, 200
    if d <= 8:
        return 1024, 40
    return (256, 8) if d <= 16 else (64, 256)


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_path_step(setup, paths: int, steps: int, repeats: int, linear: bool) -> float:
    """Marginal µs per path-step: runs of 2S and S steps, differenced."""
    sigma = setup.ctx.sigma

    def run(n_steps):
        cfg = trajectories.TrajectoryConfig(dt=DT, t_max=n_steps * DT, n_paths=paths, base_seed=1)
        if linear:
            return lambda: trajectories.run_linear_ensemble(setup, sigma, cfg)
        return lambda: trajectories.run_ensemble(setup, sigma, cfg, [-math.inf] * setup.ell)

    return differenced(run(2 * steps), run(steps), paths * steps, repeats)


def differenced(long_run, short_run, path_steps: int, repeats: int) -> float:
    """µs per path-step of the difference between a run of 2S steps and one
    of S: the median over repeats, divided by paths x S."""
    diffs = [median_time(long_run, 1) - median_time(short_run, 1) for _ in range(repeats)]
    return 1e6 * statistics.median(diffs) / path_steps


def split(setup, paths: int, steps: int, repeats: int) -> dict | None:
    """The filter's per-path-step cost by part: each kernel timed alone, and
    the loop around them timed with the kernels replaced by stand-ins."""
    engine_cls = getattr(trajectories, "_Engine", None)
    if engine_cls is None or not hasattr(engine_cls, "advance"):
        return None

    def engine_for(n_steps):
        cfg = trajectories.TrajectoryConfig(dt=DT, t_max=n_steps * DT, n_paths=paths, base_seed=1)
        return engine_cls(setup, cfg, False)

    engine = engine_for(steps)
    idx = list(range(paths))
    states = engine.step_block(setup.ctx.sigma, idx, [0] * paths)[1][-1]
    x = linalg.hermitian_coordinates(states).T
    rng = np.random.default_rng(0)
    dw = rng.standard_normal((engine.q, paths)) * math.sqrt(DT)
    # uniforms firing each counting channel on about 1 % of the paths
    u = np.where(rng.random((engine.n_poisson, paths)) < 0.01, 0.0, 1.0)
    weights = np.ones((engine.n_blocks, paths))
    out, _, threshold = engine.advance(x, dw, weights)
    valid = np.ones(paths, dtype=bool)
    loops = 200 if engine.d <= 8 else 40

    def timed(fn):
        def calls():
            for _ in range(loops):
                fn()
        return 1e6 * median_time(calls, repeats) / (loops * paths)

    parts = {
        "advance": timed(lambda: engine.advance(x, dw, weights)),
        "jumps": timed(lambda: engine.jumps(x, out.copy(), u, threshold)),
        "normalization": timed(lambda: engine.normalize(out, valid)),
    }
    parts["positivity_per_call"] = timed(lambda: trajectories.positivity_failures(states, 1e-10))
    fired = engine.jumps(x, out.copy(), u, threshold)
    normalized = engine.normalize(out.copy(), valid.copy())
    dy = weights[1:engine.q + 1]

    def with_stand_ins(e):
        e.advance = lambda x, dw, weights: (out, dy, threshold)
        e.jumps = lambda x, out, u, threshold: fired
        e.normalize = lambda out, valid: normalized
        return lambda: e.step_block(setup.ctx.sigma, idx, [0] * paths)

    parts["loop"] = differenced(with_stand_ins(engine_for(2 * steps)), with_stand_ins(engine),
                                paths * steps, repeats)
    return {k: round(v, 4) for k, v in parts.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", default="1,2,3,8,16,32")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sweep", default="256,512,1024,2048")
    parser.add_argument("--sweep-dims", default="1,3")
    args = parser.parse_args()
    for d in (int(x) for x in args.dims.split(",") if x):
        setup = setup_for(d)
        paths, steps = sizes(d)
        total = per_path_step(setup, paths, steps, args.repeats, linear=False)
        linear = per_path_step(setup, paths, steps, args.repeats, linear=True)
        print(json.dumps({"d": d, "paths": paths, "steps": steps,
                          "us_per_path_step": round(total, 4),
                          "linear_us_per_path_step": round(linear, 4),
                          "split": split(setup, paths, steps, args.repeats)}), flush=True)
    saved = trajectories.BLOCK_PATHS, trajectories.NOISE_CHUNK_STEPS
    try:
        for block in (int(x) for x in args.sweep.split(",") if x):
            trajectories.BLOCK_PATHS = block
            trajectories.NOISE_CHUNK_STEPS = CHUNK_DRAWS // block
            row = {"block_paths": block, "noise_chunk_steps": CHUNK_DRAWS // block}
            for d in (int(x) for x in args.sweep_dims.split(",") if x):
                row[f"us_per_path_step_d{d}"] = round(
                    per_path_step(setup_for(d), SWEEP_PATHS, 100, args.repeats, linear=False), 4)
            print(json.dumps(row), flush=True)
    finally:
        trajectories.BLOCK_PATHS, trajectories.NOISE_CHUNK_STEPS = saved


if __name__ == "__main__":
    main()
