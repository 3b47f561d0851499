"""Cost of writing and parsing a model file, packed against nested matrices.

    PYTHONPATH=src python3 bench/model_io.py [--dims 1,2,3,8,16,32] [--repeats 5]

The model at each d is the depolarizing semigroup toward a seeded random
faithful state, as `model new --template depolarizing --sigma` writes it:
H = 0 and d^2 dense jumps, so d^2 + 1 matrices of d x d.

Printed, one JSON line per d and spelling ("packed": base64 of the
complex128 entries, what `save_model` writes; "nested": [re, im] pairs,
what it wrote before and what hand-written files use):

- "save_s": writing the file, from the matrices to the bytes on disk
  (`save_model` for packed; `encode_complex_matrix` of each matrix plus
  the same compact `json.dumps` for nested);
- "parse_s": `load_json` plus `decode_complex_matrix` of every matrix,
  which is what perfbench's `fileio.load_model_parse_s` counts (the
  stationary solve that `load_model` runs next is left out);
- "bytes": the file size.

Times are medians over --repeats.
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from qdev import fileio, models


def depolarizing_toward_random_state(d: int):
    rng = np.random.default_rng(d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    sigma = g @ g.conj().T
    sigma = 0.8 * sigma / np.trace(sigma).real + 0.2 * np.eye(d) / d
    return models.depolarizing(sigma)


def save_nested(path: Path, h, jumps):
    doc = {"kind": "lindblad", "dim": int(h.shape[0]),
           "hamiltonian": fileio.encode_complex_matrix(h),
           "jumps": [fileio.encode_complex_matrix(l) for l in jumps], "template": "depolarizing"}
    path.write_text(json.dumps(doc))


def save_packed(path: Path, h, jumps):
    fileio.save_model(path, hamiltonian=h, jumps=jumps, template="depolarizing")


def parse(path: Path) -> list[np.ndarray]:
    doc = fileio.load_json(path)
    return [fileio.decode_complex_matrix(m) for m in [doc["hamiltonian"], *doc["jumps"]]]


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", default="1,2,3,8,16,32")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for d in (int(x) for x in args.dims.split(",")):
            lind = depolarizing_toward_random_state(d)
            h, jumps = lind.hamiltonian, lind.jumps
            for spelling, save in (("packed", save_packed), ("nested", save_nested)):
                path = Path(tmp) / f"{spelling}-{d}.json"
                save_s = median_time(lambda: save(path, h, jumps), args.repeats)
                parse_s = median_time(lambda: parse(path), args.repeats)
                decoded = parse(path)
                exact = all(np.array_equal(a, b) for a, b in zip(decoded, [h, *jumps]))
                print(json.dumps({"d": d, "spelling": spelling, "matrices": len(decoded),
                                  "save_s": save_s, "parse_s": parse_s,
                                  "bytes": path.stat().st_size, "values_equal": exact}))


if __name__ == "__main__":
    main()
