"""Where the warm-started Lanczos top eigenvalue beats a dense eigh.

    PYTHONPATH=src python3 bench/eig_crossover.py [--dims 3,6,8,10,16,24] [--repeats 3]

For each dimension d and two model families, runs `main_bound` in the
dense regime (LANCZOS_MIN_SIZE forced past d^2: TiltedFamily.value is a
dense eigh per tilt iterate, with the perturbation-theory Hessian), and
again in the Lanczos regime (LANCZOS_MIN_SIZE 0: warm-started Lanczos per
iterate, BFGS curvature). Prints one JSON line per (family, d): the
median `main_bound` wall time, the median time per TiltedFamily.value
call and the calls per bound of each (value is the one eigensolve per
iterate in both regimes; the eigvalsh check at lam* is not counted), and
for Lanczos the matrix-vector products per solve and the share of solves
that fell back to a dense solve.
The families:

- depolarizing: the depolarizing model toward a random faithful state, one
  Brownian channel on a pair jump (the analytics workload's model at d = 24);
- generic: a random Hamiltonian and three random jumps, one Brownian and
  one counting channel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from qdev import deviation, linalg, lindblad, models


def depolarizing_setup(d: int, rng: np.random.Generator):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    sigma = g @ g.conj().T + 0.1 * np.eye(d)
    ctx = lindblad.stationary_state(models.depolarizing(sigma / np.trace(sigma).real))
    u = np.zeros((1, d * d))
    u[0, 1] = u[0, d] = 1.0 / np.sqrt(2.0)  # the pair jumps |0><1| and |1><0|
    return deviation.MeasurementSetup(ctx, u, 1), [0.3]


def generic_setup(d: int, rng: np.random.Generator):
    def rnd():
        return (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2 * d)
    h = rnd()
    ctx = lindblad.stationary_state(lindblad.Lindbladian(h + h.conj().T, [rnd() for _ in range(3)]))
    return deviation.MeasurementSetup(ctx, np.eye(3)[:2], 1), [0.1, 0.05]


class _Counted:
    """A matrix that counts the products Lanczos takes with it."""

    def __init__(self, a: np.ndarray, log: list):
        self.a, self.shape, self.log = a, a.shape, log

    def __matmul__(self, v):
        self.log[-1] += 1
        return self.a @ v


def timed_bound(setup, r, min_size: int, repeats: int) -> dict:
    """Median main_bound wall time and time per value call; Lanczos
    matvecs per solve and fallback share from one more counted run."""
    saved = deviation.LANCZOS_MIN_SIZE, deviation.top_eigenpair, deviation.TiltedFamily.value
    value = deviation.TiltedFamily.value
    walls, solves, matvecs, fallbacks = [], [], [], []

    def timed_value(family, lams, warm=None):
        start = time.perf_counter()
        result = value(family, lams, warm)
        solves.append(time.perf_counter() - start)
        return result

    def counted(a, start):
        matvecs.append(0)
        theta, y, converged = linalg.top_eigenpair(_Counted(a, matvecs), start)
        fallbacks.append(not converged)
        return theta, y, converged

    deviation.LANCZOS_MIN_SIZE = min_size
    deviation.TiltedFamily.value = timed_value
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            deviation.main_bound(setup, setup.ctx.sigma, r)
            walls.append(time.perf_counter() - start)
        deviation.TiltedFamily.value = value
        deviation.top_eigenpair = counted
        deviation.main_bound(setup, setup.ctx.sigma, r)
    finally:
        deviation.LANCZOS_MIN_SIZE, deviation.top_eigenpair, deviation.TiltedFamily.value = saved
    out = {"bound_s": round(statistics.median(walls), 4),
           "solve_ms": round(1e3 * statistics.median(solves), 3),
           "solves": len(solves) // repeats}
    if matvecs:
        out.update(matvecs_per_solve=round(float(np.mean(matvecs)), 1),
                   fallback_share=round(float(np.mean(fallbacks)), 3))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", default="3,6,8,10,16,24")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    for family, build in (("depolarizing", depolarizing_setup), ("generic", generic_setup)):
        for d in (int(x) for x in args.dims.split(",")):
            setup, r = build(d, np.random.default_rng(d))
            dense = timed_bound(setup, r, d * d + 1, args.repeats)
            lanczos = timed_bound(setup, r, 0, args.repeats)
            print(json.dumps({"family": family, "d": d, "n": d * d,
                              **{f"dense_{k}": v for k, v in dense.items()},
                              **{f"lanczos_{k}": v for k, v in lanczos.items()}}), flush=True)


if __name__ == "__main__":
    main()
