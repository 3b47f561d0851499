"""Time and peak RSS of building the heat-bath sampler as the lattice grows.

    PYTHONPATH=src python3 bench/heat_bath_scale.py [--sites 5,6] [--repeats 3]

The lattice at each n is the open ZZ chain on n qubits at beta = 0.5, so
the Hilbert-space dimension is D = 2^n and the generator is D^2 x D^2
(criterion 10 uses the same chain at n = 2). Every run is its own child
process, so that its peak RSS is its own. A size is skipped when its
estimated footprint (SIZE_FACTOR copies of a D^2 x D^2 complex matrix)
exceeds the memory the system reports available.

Printed, one JSON line per n, each value the median over --repeats runs:

- "heat_bath_s": wall time of `stationary_state(models.heat_bath(h))`:
  the jumps, the generator's assembly and the context solve;
- "rss_rise_mb": how far that call raised the child's peak RSS
  (`resource.getrusage`), so imports and the lattice are left out;
- "peak_rss_mb": the child's peak RSS;
- "model_file_mb": the size of the file `model new --template heat-bath`
  writes for the lattice (`fileio.save_model` of the jump form), written
  after the timed call to a temporary directory;
- "runs": every run's [heat_bath_s, rss_rise_mb, peak_rss_mb, model_file_mb].
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from qdev import fileio, lindblad, models

BETA = 0.5
SIZE_FACTOR = 12


def chain(n: int) -> models.CommutingHamiltonian:
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    return models.CommutingHamiltonian(n, 2, [((i, i + 1), zz) for i in range(n - 1)], beta=BETA)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one(n: int) -> list[float]:
    ham = chain(n)
    before = peak_rss_mb()
    t0 = time.perf_counter()
    lind = models.heat_bath(ham)
    lindblad.stationary_state(lind)
    elapsed = time.perf_counter() - t0
    after = peak_rss_mb()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        fileio.save_model(path, hamiltonian=lind.hamiltonian, jumps=lind.jumps, template="heat-bath")
        size_mb = path.stat().st_size / 2**20
    return [elapsed, after - before, after, size_mb]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", default="5,6")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(one(args.one)))
        return
    from analytics_scale import available_bytes   # here, so that the measured child skips its imports
    for n in (int(x) for x in args.sites.split(",")):
        d = 2 ** n
        need = SIZE_FACTOR * 16 * d ** 4
        free = available_bytes()
        if free is not None and need > free:
            print(json.dumps({"n_sites": n, "D": d, "skipped": f"needs about {need / 2**20:.0f} MB, "
                                                              f"{free / 2**20:.0f} MB available"}))
            continue
        runs = []
        for _ in range(args.repeats):
            done = subprocess.run([sys.executable, __file__, "--one", str(n)],
                                  capture_output=True, text=True)
            if done.returncode != 0:
                print(json.dumps({"n_sites": n, "D": d,
                                  "error": done.stderr.strip().splitlines()[-1:]}))
                break
            runs.append(json.loads(done.stdout))
        else:
            out = {"n_sites": n, "D": d}
            for i, key in enumerate(("heat_bath_s", "rss_rise_mb", "peak_rss_mb", "model_file_mb")):
                out[key] = statistics.median(run[i] for run in runs)
            out["runs"] = runs
            print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
