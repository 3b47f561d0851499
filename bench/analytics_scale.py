"""Stage times of the analytics path (`model new`, `bound`, `inequalities`)
as the dimension grows.

    PYTHONPATH=src python3 bench/analytics_scale.py [--dims 8,16,24,32,48,64] [--repeats 3]

The model at each d is the one perfbench's analytics-d24 workload builds at
d = 24: the depolarizing semigroup toward a seeded random faithful state
(d^2 dense jumps), one Brownian channel on a random pair of eigenvectors,
and r = 0.3. Each d runs in its own child process, so that its peak RSS is
its own; a d is skipped when its estimated footprint (SIZE_FACTOR copies of
a d^2 x d^2 complex matrix) exceeds the memory the system reports free.

Printed, one JSON line per d, with times as medians over --repeats, taken
in the order a session runs them (later stages reuse what earlier ones
cached on the context, as in `inequalities`):

- "stationary_s": `context_from_generator` on the assembled generator;
- "detailed_balance_s": the GNS, KMS and BKM `check_detailed_balance`;
- "spectral_gap_s": `spectral_gap`;
- "tilted_family_s": building `TiltedFamily`;
- "main_bound_s": `main_bound` (which builds its own family);
- "peak_rss_mb": peak RSS of the child process;
- "sigma_err", "gap_err", "symmetric": the outputs the perfbench checks
  read (stationary state against the target, gap against 1, and the three
  symmetry flags, all true for a depolarizing model).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from qdev import deviation, inequalities, lindblad, models

MIX = 0.2
R = 0.3
SIZE_FACTOR = 12


def model(d: int):
    rng = np.random.default_rng(d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    sigma = g @ g.conj().T
    sigma = (1.0 - MIX) * sigma / np.trace(sigma).real + MIX * np.eye(d) / d
    sigma = 0.5 * (sigma + sigma.conj().T)
    x, y = (int(v) for v in rng.choice(d, size=2, replace=False))
    direction = np.zeros(d * d)
    direction[x * d + y] = direction[y * d + x] = 1.0 / np.sqrt(2.0)
    return sigma, models.depolarizing(sigma), direction


def median_time(fn, repeats: int):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def one(d: int, repeats: int) -> dict:
    sigma, lind, direction = model(d)
    heis = lind.heisenberg_superoperator()
    out = {"d": d}
    out["stationary_s"], ctx = median_time(
        lambda: lindblad.context_from_generator(heis, lindbladian=lind), repeats)
    out["detailed_balance_s"], reports = median_time(
        lambda: [lindblad.check_detailed_balance(k, ctx) for k in ("GNS", "KMS", "BKM")], repeats)
    out["spectral_gap_s"], gap = median_time(lambda: inequalities.spectral_gap(ctx), repeats)
    setup = deviation.MeasurementSetup(ctx, direction[None, :], 1)
    out["tilted_family_s"], _ = median_time(lambda: deviation.TiltedFamily(setup), repeats)
    out["main_bound_s"], report = median_time(
        lambda: deviation.main_bound(setup, sigma, [R]), repeats)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["sigma_err"] = float(np.max(np.abs(ctx.sigma.matrix - sigma)))
    out["gap_err"] = abs(gap - 1.0)
    out["symmetric"] = [r.symmetric for r in reports]
    out["status"] = report.status
    return out


def available_bytes() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", default="8,16,24,32,48,64")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(one(args.one, args.repeats)))
        return
    for d in (int(x) for x in args.dims.split(",")):
        need = SIZE_FACTOR * 16 * d ** 4
        free = available_bytes()
        if free is not None and need > free:
            print(json.dumps({"d": d, "skipped": f"needs about {need / 2**20:.0f} MB, "
                                                 f"{free / 2**20:.0f} MB available"}))
            continue
        done = subprocess.run([sys.executable, __file__, "--one", str(d), "--repeats",
                               str(args.repeats)], capture_output=True, text=True)
        if done.returncode != 0:
            print(json.dumps({"d": d, "error": done.stderr.strip().splitlines()[-1:]}))
            continue
        sys.stdout.write(done.stdout)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
