"""Seeded inputs for the benchmark workloads.

Everything the `qdev` verbs read is written here from the benchmark seed
alone: faithful states, depolarizing model files, measurement setups,
trajectory configs and rate grids. The generator uses numpy only, so the
same seed gives the same files whatever the version of `qdev` under test.
Each writer returns the values the session and the output checks need.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOAD_SALT = {"analytics-d24": 1, "qutrit": 2}

ANALYTICS_DIM = 24
QUTRIT = 3
# Weight of the maximally mixed state in each random state; it keeps the
# smallest eigenvalue at or above MIX / d, away from the faithfulness limit.
MIX = 0.2

RATE_GRID_AXIS = 6          # feasible points per channel: 6**3 = 216
RATE_INFEASIBLE = 24        # points with a negative counting coordinate

SIM_PATHS = 256
SIM_DT = 1e-3
SIM_T_MAX = 2.0
SIM_CHECKPOINTS = [1.0, 2.0]


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOAD_SALT[workload], seed])


def encode(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """A full-rank density matrix: a Ginibre state mixed with identity / d."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = (1.0 - MIX) * rho / np.trace(rho).real + MIX * np.eye(d) / d
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def depolarizing_jumps(sigma: np.ndarray) -> list[np.ndarray]:
    """sqrt(s_x) |x><y| over ordered pairs of sigma's eigenbasis, x outer,
    eigenvalues in descending order: jump index x * d + y."""
    w, v = np.linalg.eigh(sigma)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    d = len(w)
    return [np.sqrt(w[x]) * np.outer(v[:, x], v[:, y].conj()) for x in range(d) for y in range(d)]


def means(sigma: np.ndarray, jumps: list[np.ndarray], directions: np.ndarray, q: int) -> np.ndarray:
    """Stationary channel means: Tr[sigma (L_u + L_u*)] for Brownian rows,
    Tr[sigma L_u* L_u] for counting rows."""
    out = []
    for j, u in enumerate(directions):
        l_u = sum(c * l for c, l in zip(u, jumps))
        op = l_u + l_u.conj().T if j < q else l_u.conj().T @ l_u
        out.append(np.trace(sigma @ op).real)
    return np.array(out)


def lsi_alpha2(sigma: np.ndarray) -> float:
    """Closed-form log-Sobolev constant of the depolarizing semigroup."""
    s_min = float(np.linalg.eigvalsh(sigma)[0])
    if abs(s_min - 0.5) < 1e-9:
        return 0.5
    return (1.0 - 2.0 * s_min) / np.log(1.0 / s_min - 1.0)


def pair_index(d: int, x: int, y: int) -> int:
    return x * d + y


def distinct_pairs(rng: np.random.Generator, d: int, n: int) -> list[tuple[int, int]]:
    """n ordered pairs x != y whose unordered pairs are all distinct."""
    pairs: list[tuple[int, int]] = []
    seen: set[frozenset] = set()
    while len(pairs) < n:
        x, y = (int(v) for v in rng.choice(d, size=2, replace=False))
        if frozenset((x, y)) not in seen:
            seen.add(frozenset((x, y)))
            pairs.append((x, y))
    return pairs


def _write(path: Path, doc):
    path.write_text(json.dumps(doc))


def _setup_rows(d: int, brownian: list[tuple[int, int]], poisson: list[tuple[int, int]]) -> np.ndarray:
    rows = []
    for x, y in brownian:
        u = np.zeros(d * d)
        u[pair_index(d, x, y)] = u[pair_index(d, y, x)] = 1.0 / np.sqrt(2.0)
        rows.append(u)
    for x, y in poisson:
        u = np.zeros(d * d)
        u[pair_index(d, x, y)] = 1.0
        rows.append(u)
    return np.array(rows)


def analytics_d24(seed: int, work: Path) -> dict:
    """sigma_24 for `model new`, and a one-channel Brownian setup."""
    rng = rng_for("analytics-d24", seed)
    d = ANALYTICS_DIM
    sigma = random_state(rng, d)
    directions = _setup_rows(d, distinct_pairs(rng, d, 1), [])
    _write(work / "sigma.json", {"dim": d, "rho": encode(sigma)})
    _write(work / "setup.json", {"directions": directions.tolist(), "q": 1})
    return {"r": [float(rng.uniform(0.2, 0.4))], "t": [1.0, 5.0, 10.0], "sigma": sigma,
            "lsi_alpha2": lsi_alpha2(sigma)}


def qutrit(seed: int, work: Path) -> dict:
    """Qutrit with one Brownian and two counting channels; a rate grid
    whose first point is the bound's m + r, then a feasible box around the
    means, then points with a negative counting coordinate; and an ensemble
    config whose base seed comes from the benchmark seed."""
    rng = rng_for("qutrit", seed)
    sigma = random_state(rng, QUTRIT)
    jumps = depolarizing_jumps(sigma)
    pairs = distinct_pairs(rng, QUTRIT, 3)
    directions = _setup_rows(QUTRIT, pairs[:1], pairs[1:])
    _write(work / "model.json", {"kind": "lindblad", "dim": QUTRIT, "template": "depolarizing",
                                 "hamiltonian": encode(np.zeros((QUTRIT, QUTRIT))),
                                 "jumps": [encode(l) for l in jumps]})
    _write(work / "setup.json", {"directions": directions.tolist(), "q": 1})
    m = means(sigma, jumps, directions, 1)
    r = rng.uniform(0.05, 0.15, size=3) * np.array([1.0, m[1], m[2]])
    axis = np.linspace(0.3, 1.7, RATE_GRID_AXIS)
    brownian = np.linspace(-0.6, 0.6, RATE_GRID_AXIS)
    feasible = [[b, m[1] * a1, m[2] * a2] for b in brownian for a1 in axis for a2 in axis]
    infeasible = []
    for _ in range(RATE_INFEASIBLE):
        p = [float(rng.uniform(-0.5, 0.5)), m[1] * float(rng.uniform(0.3, 1.7)),
             m[2] * float(rng.uniform(0.3, 1.7))]
        p[1 + int(rng.integers(2))] = -float(rng.uniform(0.01, 0.5))
        infeasible.append(p)
    grid = [(m + r).tolist()] + feasible + infeasible
    _write(work / "grid.json", grid)
    _write(work / "config.json", {"dt": SIM_DT, "t_max": SIM_T_MAX, "n_paths": SIM_PATHS,
                                  "base_seed": int(rng.integers(1, 2**31)),
                                  "checkpoints": SIM_CHECKPOINTS})
    n_steps = int(round(SIM_T_MAX / SIM_DT))
    return {"r": r.tolist(), "t": SIM_CHECKPOINTS, "grid": np.array(grid),
            "path_steps": SIM_PATHS * n_steps}


GENERATORS = {"analytics-d24": analytics_d24, "qutrit": qutrit}
