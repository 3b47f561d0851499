"""Monte Carlo simulation of diffusive/counting quantum trajectories.

Simulates the nonlinear filtering equation for the conditioned state: drift
by the full master equation, innovation terms for the monitored channels
(Brownian for homodyne directions, thinned state-dependent jumps for
counting directions), Euler-Maruyama stepping with left-endpoint
evaluation, and clip-and-renormalize positivity maintenance. The linear
(unnormalized) equation under the reference noise law is also provided; its
trace is the change-of-measure martingale and averages to one.

Reproducibility: every path owns counter-based Philox streams keyed by
(base_seed, path_index, attempt, channel), so ensembles are bit-identical
for a given seed regardless of how paths are scheduled across threads.
Blocks of paths are stepped together as stacked arrays; per-path results
never depend on the block partition.

One resampler, ``_Engine.run_paths``, steps a block of paths and reruns
each path the block left invalid (a degenerate jump normalization or a
collapsed state) alone with the next attempt's streams; ``simulate_path``
and ``run_ensemble`` both go through it. One scheduler, ``_run_blocks``,
splits an ensemble into fixed BLOCK_PATHS blocks, runs them on a thread
pool and returns their partial results in index order, for the nonlinear
and the linear ensemble alike.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .deviation import MeasurementSetup, mean_vector
from .linalg import DensityOperator, NumericalError, ValidationError, as_complex_matrix, hermitian_part
from .lindblad import Lindbladian

NOISE_CHUNK_STEPS = 512
BLOCK_PATHS = 256
MAX_RESAMPLE_ATTEMPTS = 8
DEGENERATE_INTENSITY = 1e-14


@dataclass(frozen=True)
class TrajectoryConfig:
    """Discretization and ensemble parameters.

    ``checkpoints`` default to (t_max,); times snap to the step grid and
    must be positive (estimators divide by t).
    """

    dt: float
    t_max: float
    n_paths: int
    base_seed: int
    positivity_clip: float = 1e-10
    checkpoints: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.dt <= 0 or self.t_max <= 0 or self.dt > self.t_max:
            raise ValidationError("need 0 < dt <= t_max")
        if self.n_paths < 1:
            raise ValidationError("n_paths must be positive")
        if self.positivity_clip < 0:
            raise ValidationError("positivity_clip must be nonnegative")

    def n_steps(self) -> int:
        return max(1, int(round(self.t_max / self.dt)))

    def checkpoint_steps(self) -> list[int]:
        times = self.checkpoints if self.checkpoints is not None else (self.t_max,)
        steps = []
        for t in times:
            s = int(round(t / self.dt))
            if s < 1:
                raise ValidationError(f"checkpoint {t} precedes the first grid time")
            if s > self.n_steps():
                raise ValidationError(f"checkpoint {t} exceeds t_max")
            steps.append(s)
        if len(set(steps)) != len(steps):
            raise ValidationError("checkpoints collide on the step grid")
        return steps

    def checkpoint_times(self) -> np.ndarray:
        return np.array(self.checkpoint_steps()) * self.dt


@dataclass(frozen=True, eq=False)
class PathRecord:
    """Per-channel estimator values of one trajectory at the checkpoints."""

    checkpoint_times: np.ndarray
    estimators: np.ndarray            # (n_checkpoints, ell)
    states: np.ndarray | None
    clip_violations: int
    steps: int
    attempt: int


@dataclass(frozen=True, eq=False)
class EmpiricalTail:
    """Joint exceedance count with a Clopper-Pearson interval."""

    thresholds: np.ndarray
    count: int
    n_paths: int
    estimate: float
    ci_low: float
    ci_high: float
    confidence: float = 0.99


def clopper_pearson(count: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    import scipy.special  # here, so that importing qdev loads no scipy

    alpha = 1.0 - confidence
    low = scipy.special.betaincinv(count, n - count + 1, alpha / 2.0) if count > 0 else 0.0
    high = scipy.special.betaincinv(count + 1, n - count, 1.0 - alpha / 2.0) if count < n else 1.0
    return float(low), float(high)


def _stream(base_seed: int, path_index: int, attempt: int, channel: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(path_index, attempt, channel))
    return np.random.Generator(np.random.Philox(seq))


class _Engine:
    """Precomputed operators for stepping a block of paths together."""

    def __init__(self, setup: MeasurementSetup, config: TrajectoryConfig):
        lind: Lindbladian = setup.ctx.require_jumps()
        self.setup = setup
        self.config = config
        self.d = lind.dim
        self.q = setup.q
        self.ell = setup.ell
        self.n_poisson = setup.ell - setup.q
        d = self.d
        self.brownian_ops = [np.ascontiguousarray(l) for l in setup.monitored[:setup.q]]
        self.brownian_obs = [l + l.conj().T for l in self.brownian_ops]
        self.poisson_ops = [np.ascontiguousarray(l) for l in setup.monitored[setup.q:]]
        self.poisson_intensity = [l.conj().T @ l for l in self.poisson_ops]

        def tensorize(m):
            return m.reshape(d, d, d, d).transpose(1, 0, 3, 2).copy()

        drift = setup.ctx.schrodinger.matrix.copy()
        for l in self.poisson_ops:
            drift -= np.kron(l.conj(), l)     # rho -> L rho L^dagger
        self.drift_tensor = tensorize(drift)
        self.linear_drift_tensor = tensorize(drift + self.n_poisson * np.eye(d * d))

        max_rate = max((np.linalg.norm(m, 2) for m in self.poisson_intensity), default=0.0)
        if max_rate * config.dt >= 0.1:
            warnings.warn(f"dt * max jump intensity = {max_rate * config.dt:.3f} >= 0.1; "
                          "thinning bias may be visible", RuntimeWarning)

    # -- noise ------------------------------------------------------------

    def _generators(self, path_indices, attempts):
        return [[_stream(self.config.base_seed, int(p), int(a), c) for c in range(self.ell)]
                for p, a in zip(path_indices, attempts)]

    def _draw_chunk(self, gens, n_steps):
        b = len(gens)
        sqrt_dt = math.sqrt(self.config.dt)
        dws = np.empty((self.q, b, n_steps)) if self.q else None
        us = np.empty((self.n_poisson, b, n_steps)) if self.n_poisson else None
        for i, row in enumerate(gens):
            for c in range(self.q):
                dws[c, i, :] = row[c].standard_normal(n_steps) * sqrt_dt
            for c in range(self.n_poisson):
                us[c, i, :] = row[self.q + c].random(n_steps)
        return dws, us

    # -- stepping ---------------------------------------------------------

    def run_block(self, rho0: np.ndarray, path_indices, attempts, record_states: bool):
        """Step a block of paths; returns per-path estimators and flags."""
        cfg = self.config
        d, q, npo = self.d, self.q, self.n_poisson
        b = len(path_indices)
        steps = cfg.n_steps()
        cp_steps = cfg.checkpoint_steps()
        cp_lookup = {s: i for i, s in enumerate(cp_steps)}
        n_cp = len(cp_steps)

        rho = np.broadcast_to(rho0, (b, d, d)).astype(complex).copy()
        integ = np.zeros((b, q))
        wiener = np.zeros((b, q))
        counts = np.zeros((b, npo))
        invalid = np.zeros(b, dtype=bool)
        clip_violations = np.zeros(b, dtype=np.int64)
        estimators = np.zeros((b, n_cp, self.ell))
        states = np.zeros((n_cp, b, d, d), dtype=complex) if record_states else None

        gens = self._generators(path_indices, attempts)
        dt = cfg.dt
        step = 0
        while step < steps:
            n_chunk = min(NOISE_CHUNK_STEPS, steps - step)
            dws, us = self._draw_chunk(gens, n_chunk)
            for s in range(n_chunk):
                delta = np.einsum("ijkl,nkl->nij", self.drift_tensor, rho) * dt
                for i, (l, obs) in enumerate(zip(self.brownian_ops, self.brownian_obs)):
                    c = np.einsum("ab,nba->n", obs, rho).real
                    integ[:, i] += c * dt
                    dw = dws[i, :, s]
                    wiener[:, i] += dw
                    h = np.matmul(l, rho) + np.matmul(rho, l.conj().T) - c[:, None, None] * rho
                    delta += dw[:, None, None] * h
                nu_total = np.zeros(b)
                for j, (l, m) in enumerate(zip(self.poisson_ops, self.poisson_intensity)):
                    nu = np.einsum("ab,nba->n", m, rho).real
                    nu = np.clip(nu, 0.0, None)
                    nu_total += nu
                    fired = us[j, :, s] < np.minimum(nu * dt, 1.0)
                    if np.any(fired):
                        degenerate = fired & (nu < DEGENERATE_INTENSITY)
                        invalid |= degenerate
                        ok = fired & ~degenerate
                        if np.any(ok):
                            jumped = np.matmul(np.matmul(l, rho[ok]), l.conj().T)
                            jumped /= nu[ok, None, None]
                            delta[ok] += jumped - rho[ok]
                        counts[:, j] += fired
                delta += (nu_total * dt)[:, None, None] * rho
                rho = rho + delta
                rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
                rho, newly_invalid, violated = _clip_and_renormalize(rho, cfg.positivity_clip)
                invalid |= newly_invalid
                clip_violations += violated
                step += 1
                cp = cp_lookup.get(step)
                if cp is not None:
                    t = step * dt
                    for i in range(q):
                        estimators[:, cp, i] = (integ[:, i] + wiener[:, i]) / t
                    for j in range(npo):
                        estimators[:, cp, q + j] = counts[:, j] / t
                    if record_states:
                        states[cp] = rho
        return estimators, states, invalid, clip_violations

    def run_paths(self, rho0: np.ndarray, idx: list[int], record_states: bool):
        """Step paths ``idx`` as one block, then rerun each invalid path alone
        with fresh streams, up to MAX_RESAMPLE_ATTEMPTS attempts in all.

        Returns per-path estimators, states (or None), clip counts and the
        attempt that produced each path.
        """
        est, states, invalid, clips = self.run_block(rho0, idx, [0] * len(idx), record_states)
        attempts = np.zeros(len(idx), dtype=np.int64)
        for pos in np.nonzero(invalid)[0]:
            for attempt in range(1, MAX_RESAMPLE_ATTEMPTS):
                e2, s2, inv2, c2 = self.run_block(rho0, [idx[pos]], [attempt], record_states)
                if not inv2[0]:
                    est[pos] = e2[0]
                    if record_states:
                        states[:, pos] = s2[:, 0]
                    clips[pos] = c2[0]
                    attempts[pos] = attempt
                    break
            else:
                raise NumericalError(f"path {idx[pos]} kept hitting degenerate jumps or "
                                     f"collapsing after {MAX_RESAMPLE_ATTEMPTS} attempts")
        return est, states, clips, attempts

    def run_linear_block(self, rho0: np.ndarray, path_indices, attempts):
        """Linear (unnormalized) stepping under the reference noise law."""
        cfg = self.config
        d, q, npo = self.d, self.q, self.n_poisson
        b = len(path_indices)
        steps = cfg.n_steps()
        cp_steps = cfg.checkpoint_steps()
        cp_lookup = {s: i for i, s in enumerate(cp_steps)}
        z_values = np.zeros((b, len(cp_steps)))
        failed = np.zeros(b, dtype=bool)

        sigma = np.broadcast_to(rho0, (b, d, d)).astype(complex).copy()
        gens = self._generators(path_indices, attempts)
        dt = cfg.dt
        fire_prob = min(dt, 1.0)
        step = 0
        while step < steps:
            n_chunk = min(NOISE_CHUNK_STEPS, steps - step)
            dws, us = self._draw_chunk(gens, n_chunk)
            for s in range(n_chunk):
                delta = np.einsum("ijkl,nkl->nij", self.linear_drift_tensor, sigma) * dt
                for i, l in enumerate(self.brownian_ops):
                    dw = dws[i, :, s]
                    delta += dw[:, None, None] * (np.matmul(l, sigma) + np.matmul(sigma, l.conj().T))
                for j, l in enumerate(self.poisson_ops):
                    fired = us[j, :, s] < fire_prob
                    if np.any(fired):
                        delta[fired] += np.matmul(np.matmul(l, sigma[fired]), l.conj().T) - sigma[fired]
                sigma = sigma + delta
                sigma = 0.5 * (sigma + sigma.conj().transpose(0, 2, 1))
                step += 1
                cp = cp_lookup.get(step)
                if cp is not None:
                    z = np.einsum("nii->n", sigma).real
                    failed |= z <= 0.0
                    z_values[:, cp] = z
        return z_values, failed


def _clip_and_renormalize(rho: np.ndarray, clip_tol: float):
    """Project a block of Hermitian matrices onto unit-trace PSD matrices.

    Returns (rho, invalid, violated) where ``violated`` counts eigenvalues
    below -clip_tol (the validity diagnostic) and ``invalid`` flags paths
    whose state collapsed (nonpositive trace after clipping).
    """
    b, d, _ = rho.shape
    violated = np.zeros(b, dtype=np.int64)
    if d == 1:
        x = rho[:, 0, 0].real
        violated += x < -clip_tol
        x = np.clip(x, 0.0, None)
        invalid = x <= 0.0
        rho = np.where(invalid, 1.0, x)[:, None, None].astype(complex)
        return rho, invalid, violated
    if d == 2:
        a = rho[:, 0, 0].real
        dd = rho[:, 1, 1].real
        off = rho[:, 0, 1]
        mean = 0.5 * (a + dd)
        disc = np.sqrt(np.maximum(0.25 * (a - dd) ** 2 + np.abs(off) ** 2, 0.0))
        lo = mean - disc
        hi = mean + disc
        violated += lo < -clip_tol
        invalid = hi <= 0.0
        needs = (lo < 0.0) & ~invalid
        if np.any(needs):
            denom = np.where(2.0 * disc > 0, 2.0 * disc, 1.0)
            proj = (rho - lo[:, None, None] * np.eye(2)) / denom[:, None, None]
            clipped = hi[:, None, None] * proj
            rho = np.where(needs[:, None, None], clipped, rho)
    else:
        w, v = np.linalg.eigh(rho)
        violated += w[:, 0] < -clip_tol
        needs = w[:, 0] < 0.0
        if np.any(needs):
            wc = np.clip(w, 0.0, None)
            rebuilt = np.einsum("nik,nk,njk->nij", v, wc, v.conj())
            rho = np.where(needs[:, None, None], rebuilt, rho)
        invalid = np.max(np.clip(w, 0.0, None), axis=1) <= 0.0
    tr = np.einsum("nii->n", rho).real
    invalid = invalid | (tr <= 1e-14)
    rho = rho / np.where(invalid, 1.0, tr)[:, None, None]
    return rho, invalid, violated


def _as_initial_state(rho0, dim: int) -> np.ndarray:
    if isinstance(rho0, DensityOperator):
        m = rho0.matrix
    else:
        m = DensityOperator(as_complex_matrix(rho0, "rho0")).matrix
    if m.shape[0] != dim:
        raise ValidationError(f"initial state dim {m.shape[0]} != generator dim {dim}")
    return m


def _run_blocks(setup: MeasurementSetup, rho0, config: TrajectoryConfig, checkpoints,
                n_threads: int, run_block):
    """The one ensemble scheduler: ``run_block(engine, rho0, idx)`` over fixed
    BLOCK_PATHS blocks of path indices, on up to ``n_threads`` threads.

    Returns the config (with ``checkpoints`` applied) and the partial
    results in block order, so that combining them in order does not
    depend on the thread count.
    """
    if checkpoints is not None:
        config = dataclasses.replace(config, checkpoints=tuple(checkpoints))
    engine = _Engine(setup, config)
    rho0m = _as_initial_state(rho0, engine.d)
    n = config.n_paths
    blocks = [list(range(start, min(start + BLOCK_PATHS, n))) for start in range(0, n, BLOCK_PATHS)]

    def run_one(idx):
        return run_block(engine, rho0m, idx)

    if n_threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return config, list(pool.map(run_one, blocks))
    return config, [run_one(idx) for idx in blocks]


def simulate_path(setup: MeasurementSetup, rho0, config: TrajectoryConfig,
                  path_index: int, record_states: bool = False) -> PathRecord:
    """Integrate one trajectory and report the estimators at the checkpoints.

    Paths invalidated by a degenerate jump normalization are resampled with
    a fresh noise stream (deterministically derived from the attempt
    number), up to MAX_RESAMPLE_ATTEMPTS.
    """
    engine = _Engine(setup, config)
    rho0 = _as_initial_state(rho0, engine.d)
    est, states, clips, attempts = engine.run_paths(rho0, [path_index], record_states)
    return PathRecord(config.checkpoint_times(), est[0], states[:, 0] if record_states else None,
                      int(clips[0]), config.n_steps(), int(attempts[0]))


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Ensemble aggregates per checkpoint.

    ``state_stderr`` is the Frobenius-aggregated Monte Carlo standard error
    sqrt(sum_ij Var(rho_ij) / n) of the mean state. ``path_estimators``
    holds every path's estimators, in path order.
    """

    checkpoint_times: np.ndarray
    thresholds: np.ndarray
    means: np.ndarray                  # stationary means m_u
    tails: list[EmpiricalTail]
    estimator_mean: np.ndarray         # (n_cp, ell)
    estimator_stderr: np.ndarray
    mean_states: np.ndarray            # (n_cp, d, d)
    state_stderr: np.ndarray           # (n_cp,)
    path_estimators: np.ndarray        # (n_paths, n_cp, ell)
    n_paths: int
    n_resampled: int
    clip_violation_fraction: float
    total_steps: int


def run_ensemble(setup: MeasurementSetup, rho0, config: TrajectoryConfig, thresholds,
                 checkpoints=None, n_threads: int = 1) -> EnsembleResult:
    """Simulate an ensemble and estimate the joint exceedance probability.

    The exceedance event at each checkpoint is the intersection over
    channels of {E_j - m_j >= r_j}; -inf thresholds disable channels.
    Aggregation is associative over fixed-size path blocks combined in
    index order, so results do not depend on the thread count.
    """
    r = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if r.shape != (setup.ell,):
        raise ValidationError(f"thresholds must have shape ({setup.ell},)")
    m_u = mean_vector(setup)

    def run_block(engine, rho0m, idx):
        est, states, clips, attempts = engine.run_paths(rho0m, idx, True)
        return est, states.sum(axis=1), (np.abs(states) ** 2).sum(axis=1), clips, attempts

    config, partials = _run_blocks(setup, rho0, config, checkpoints, n_threads, run_block)
    blocks, state_sums, state_sqs, clips, attempts = zip(*partials)
    # Per-block sums combined in block order keep the bytes independent of n_threads.
    n = config.n_paths
    est_mean = sum(b.sum(axis=0) for b in blocks) / n
    est_var = np.clip(sum((b ** 2).sum(axis=0) for b in blocks) / n - est_mean ** 2, 0.0, None)
    est_stderr = np.sqrt(est_var / n)
    mean_states = sum(state_sums) / n
    state_var = np.clip(sum(state_sqs) / n - np.abs(mean_states) ** 2, 0.0, None)
    state_stderr = np.sqrt(state_var.sum(axis=(1, 2)) / n)

    est = np.concatenate(blocks)
    exceed = np.ones(est.shape[:2], dtype=bool)
    for j in range(setup.ell):
        if math.isinf(r[j]) and r[j] < 0:
            continue
        exceed &= est[:, :, j] - m_u[j] >= r[j]
    tails = []
    for count in exceed.sum(axis=0):
        low, high = clopper_pearson(int(count), n)
        tails.append(EmpiricalTail(r.copy(), int(count), n, count / n, low, high))
    total_steps = n * config.n_steps()
    clip_fraction = int(np.concatenate(clips).sum()) / total_steps
    resampled = int(np.count_nonzero(np.concatenate(attempts)))
    return EnsembleResult(config.checkpoint_times(), r, m_u, tails, est_mean, est_stderr,
                          mean_states, state_stderr, est, n, resampled, clip_fraction, total_steps)


def run_linear_ensemble(setup: MeasurementSetup, rho0, config: TrajectoryConfig,
                        checkpoints=None, n_threads: int = 1):
    """Ensemble of linear paths: per checkpoint mean of Z and its stderr."""

    def run_block(engine, rho0m, idx):
        z, failed = engine.run_linear_block(rho0m, idx, [0] * len(idx))
        return z.sum(axis=0), (z ** 2).sum(axis=0), int(failed.sum())

    config, partials = _run_blocks(setup, rho0, config, checkpoints, n_threads, run_block)
    z_sum = sum(p[0] for p in partials)
    z_sq = sum(p[1] for p in partials)
    failures = sum(p[2] for p in partials)
    n = config.n_paths
    mean = z_sum / n
    var = np.clip(z_sq / n - mean ** 2, 0.0, None)
    return config.checkpoint_times(), mean, np.sqrt(var / n), failures


@dataclass(frozen=True, eq=False)
class ComparisonResult:
    consistent: bool
    margin: float
    bound_value: float
    t: float


def compare_with_bound(tail: EmpiricalTail, report, t: float) -> ComparisonResult:
    """A tail estimate is consistent with a bound when the lower end of its
    confidence interval does not exceed the bound value."""
    bound_value = report.bound(t)
    return ComparisonResult(tail.ci_low <= bound_value, bound_value - tail.estimate, bound_value, t)
