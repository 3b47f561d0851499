"""Stage times of the analytics path (`model new`, `bound`, `inequalities`)
as the dimension grows.

    PYTHONPATH=src python3 bench/analytics_scale.py [--dims 8,16,24,32,48,64] [--repeats 3]

The model at each d is the one perfbench's analytics-d24 workload builds at
d = 24: the depolarizing semigroup toward a seeded random faithful state
(d^2 dense jumps), one Brownian channel on a random pair of eigenvectors,
and r = 0.3. Each d runs in its own child process, so that its peak RSS is
its own; a d is skipped when its estimated footprint (SIZE_FACTOR
generator-sized arrays, 16 d^4 bytes each) exceeds the memory the system
reports available.

Printed, one JSON line per d, with times as medians over --repeats calls
that follow one traced call, taken in the order a session runs them (later
stages reuse what earlier ones cached on the context, as in
`inequalities`):

- "assembly_s": `Lindbladian.heisenberg_superoperator`;
- "stationary_s": `lindblad._context`, the stationary solve, on the
  assembled generator;
- "detailed_balance_s": the GNS, KMS and BKM `check_detailed_balance`;
- "spectral_gap_s": `spectral_gap`;
- "bohr_s": the jumps' Bohr frequencies (what `ctx.bohr` computes and caches);
- "tilted_family_s": building `TiltedFamily`;
- "main_bound_s": `main_bound` (which builds its own family);
- "<stage>_peak": the tracemalloc peak of what the stage's first call
  allocates, in generator-sized units (16 d^4 bytes); memory LAPACK
  allocates for itself is not traced. That call is traced only and not
  timed, so the times above are of untraced calls;
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
import tracemalloc

import numpy as np

from qdev import deviation, inequalities, lindblad, models

MIX = 0.2
R = 0.3
# Generator-sized arrays (16 d^4 bytes) a d needs: peak RSS was 5.4 of
# them at d = 48 (454 MB) and 5.0 at d = 64 (1.34 GB), rounded up for the
# interpreter and BLAS buffers.
SIZE_FACTOR = 6


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


def stage(out: dict, name: str, fn, repeats: int, unit: int):
    """Put the tracemalloc peak of a first, untimed call of ``fn``, in units
    of ``unit`` bytes, into out[name + "_peak"], then time --repeats
    untraced calls into out[name + "_s"] (median); return the last result."""
    tracemalloc.start()
    result = fn()
    out[name + "_peak"] = round(tracemalloc.get_traced_memory()[1] / unit, 3)
    tracemalloc.stop()
    times = []
    for _ in range(repeats):
        result = None
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    out[name + "_s"] = statistics.median(times)
    return result


def one(d: int, repeats: int) -> dict:
    sigma, lind, direction = model(d)
    unit = 16 * d ** 4
    out = {"d": d}
    heis = stage(out, "assembly", lind.heisenberg_superoperator, repeats, unit)
    ctx = stage(out, "stationary", lambda: lindblad._context(heis, lind),
                repeats, unit)
    reports = stage(out, "detailed_balance",
                    lambda: [lindblad.check_detailed_balance(k, ctx) for k in ("GNS", "KMS", "BKM")],
                    repeats, unit)
    gap = stage(out, "spectral_gap", lambda: inequalities.spectral_gap(ctx), repeats, unit)
    stage(out, "bohr", lambda: lindblad._modular_frequencies(ctx.faithful, lind.jumps), repeats, unit)
    setup = deviation.MeasurementSetup(ctx, direction[None, :], 1)
    # The family is released at once, so that main_bound's own is the only one alive.
    stage(out, "tilted_family", lambda: deviation.TiltedFamily(setup) and None, repeats, unit)
    report = stage(out, "main_bound", lambda: deviation.main_bound(setup, sigma, [R]), repeats, unit)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["sigma_err"] = float(np.max(np.abs(ctx.sigma - sigma)))
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
