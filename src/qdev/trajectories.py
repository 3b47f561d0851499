"""Monte Carlo simulation of diffusive/counting quantum trajectories.

One stepper, ``_Engine.step_block``, advances a block of paths by the
Kraus-form update of Rouchon & Ralph, "Efficient quantum filtering for
quantum feedback control", PRA 91, 012118 (2015). In a step of length dt:

- no count: rho <- M rho M^dagger + dt Phi_u(rho), where
  M = I - (iH + K/2) dt + sum_B L_B dy_B, K = sum_k L_k^dagger L_k, and
  Phi_u(rho) = sum_v L_v rho L_v^dagger over an orthonormal complement v
  of the monitored directions;
- a count on channel P: rho <- L_P rho L_P^dagger.

Both maps are completely positive, so states stay positive semidefinite
by construction; nothing is clipped. They are also Hermiticity-preserving,
and the records read Hermitian observables, so the stepper works in the
real coordinates of linalg: a state is its d^2 coordinates x in the
orthonormal Hermitian basis (hermitian_coordinates), whose trace is the
sum of the first d. Every map becomes its real matrix there, made from
its Heisenberg matrix (hermitian_map_matrix, which checks the dropped
imaginary part at construction), a recorded observable O its functional
c(O), since Tr[O rho] = c(O) . x, a block's states are the columns of a
(d^2, b) array, and a step is one real GEMM by the stacked no-count
blocks and functionals, then one einsum that sums the blocks with their
weights 1, dy_B and dy_B dy_B'. States return to complex d x d matrices
only at checkpoints, for the positivity check and the reported states.

The filter (nonlinear equation) records dy_B = Tr[(L_B + L_B^dagger) rho] dt
+ dW_B, counts at intensity Tr[L_P^dagger L_P rho] and divides by the
trace; ``_Engine.run_paths`` reruns a path whose trace falls to
COLLAPSED_TRACE with fresh streams. The linear equation under the
reference law records dy_B = dW_B, counts at intensity 1, adds n_P dt / 2
to M and keeps the trace Z, the change-of-measure martingale (mean one).
``clip_violation_fraction`` is the share of path-checkpoints where
rho + POSITIVITY_CLIP * I fails a Cholesky factorization.

Every path owns Philox streams keyed by (base_seed, path_index, attempt,
channel): Generator(Philox(SeedSequence(entropy=base_seed,
spawn_key=(path_index, attempt, channel)))). The keys of a whole block are
derived in one vectorised pass of SeedSequence's hash (_philox_keys), so
the streams are exactly those. ``_run_blocks`` runs fixed BLOCK_PATHS
blocks on a thread pool and combines them in index order, so ensembles
are bit-identical for a given seed whatever the thread count.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .deviation import MeasurementSetup, mean_vector
from .linalg import (NumericalError, ValidationError, density_matrix, hermitian_coordinates,
                     hermitian_from_coordinates, hermitian_map_matrix, left_right_sum_matrix)

BLOCK_PATHS = 1024
# Noise is drawn NOISE_CHUNK_STEPS steps at a time: 2**17 draws per channel
# for a full block.
NOISE_CHUNK_STEPS = 128
MAX_RESAMPLE_ATTEMPTS = 8
COLLAPSED_TRACE = 1e-14
# A checkpoint state counts as a positivity violation when rho + POSITIVITY_CLIP * I
# fails a Cholesky factorization.
POSITIVITY_CLIP = 1e-10
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_POOL_WORDS = 4
_WORD = 0xFFFFFFFF
# Path indices are spawn words, so they stay below 2**32.
_SPAWN_LIMIT = _WORD + 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Confidence level of the Clopper-Pearson interval of an empirical tail.
CONFIDENCE = 0.99


@dataclass(frozen=True)
class TrajectoryConfig:
    """Discretization and ensemble parameters.

    ``checkpoints`` default to (t_max,); times snap to the step grid and
    must be positive (estimators divide by t). ``base_seed`` is nonnegative
    and ``n_paths`` at most 2**32, so every path index is one spawn word.
    """

    dt: float
    t_max: float
    n_paths: int
    base_seed: int
    checkpoints: tuple[float, ...] | None = None

    def __post_init__(self):
        times = self.checkpoints if self.checkpoints is not None else ()
        if not all(math.isfinite(x) for x in (self.dt, self.t_max, *times)):
            raise ValidationError("dt, t_max and checkpoints must be finite")
        if self.dt <= 0 or self.t_max <= 0 or self.dt > self.t_max:
            raise ValidationError("need 0 < dt <= t_max")
        if not 1 <= self.n_paths <= _SPAWN_LIMIT:
            raise ValidationError(f"n_paths must be in [1, 2**32], got {self.n_paths}")
        if self.base_seed < 0:
            raise ValidationError(f"base_seed must be nonnegative, got {self.base_seed}")

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
    clip_violations: int              # checkpoints whose state failed the positivity check
    steps: int
    attempt: int


@dataclass(frozen=True, eq=False)
class EmpiricalTail:
    """Joint exceedance count with a Clopper-Pearson interval at CONFIDENCE."""

    thresholds: np.ndarray
    count: int
    n_paths: int
    estimate: float
    ci_low: float
    ci_high: float


# ln n! - ln(sqrt(2 pi n) (n/e)^n) for n = 0..15 (Loader 2000, Table 1; the
# n = 0 entry is never read).
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(n: int) -> float:
    """ln n! - ln(sqrt(2 pi n) (n/e)^n): the table to 15, the Stirling
    series to the n^-9 term beyond."""
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x ln(x/m) + m - x, by its series in v = (x - m)/(x + m) when x is
    within 10 % of m, where the direct form cancels (Loader 2000)."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s = (x - m) * v
    term = 2.0 * x * v
    v *= v
    j = 3
    while True:
        term *= v
        s_next = s + term / j
        if s_next == s:
            return s
        s, j = s_next, j + 2


def _binomial_pmf(k: int, n: int, p: float, q: float) -> float:
    """P(Bin(n, p) = k) for 1 <= k <= n and q = 1 - p, in Loader's
    saddle-point form, "Fast and accurate computation of binomial
    probabilities" (2000): no difference of log-factorials is formed."""
    if k == n:
        return math.exp(n * (math.log(p) if p <= q else math.log1p(-q)))
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
    return math.exp(lc) * math.sqrt(n / (2.0 * math.pi * k * (n - k)))


def _beta_fraction(a: int, b: int, x: float) -> float:
    """The continued fraction of I_x(a, b) for x < (a+1)/(a+b+2), by the
    modified Lentz method (Numerical Recipes, 3rd ed., section 6.4). For
    integer b its numerator m (b - m) x / ... vanishes at m = b, so the
    fraction ends there."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, b):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= 2.0 ** -52:
            break
    return h


def _beta_tails(a: int, b: int, x: float) -> tuple[float, float]:
    """(I_x(a, b), 1 - I_x(a, b)) for integers a, b >= 1 and 0 < x < 1. The
    continued fraction gives the lower tail below x = (a+1)/(a+b+2) and the
    upper one, as I_(1-x)(b, a), above; the other is one minus it. The
    prefactor x^a (1-x)^b / (a B(a, b)) is (1-x) P(Bin(a+b-1, x) = a)."""
    y = 1.0 - x
    if x < (a + 1) / (a + b + 2):
        lower = y * _binomial_pmf(a, a + b - 1, x, y) * _beta_fraction(a, b, x)
        return lower, 1.0 - lower
    upper = x * _binomial_pmf(b, a + b - 1, y, x) * _beta_fraction(b, a, y)
    return 1.0 - upper, upper


def _bisect(residual) -> float:
    """The x in (0, 1) where the increasing ``residual`` changes sign, by
    bisection down to adjacent floats: of the last two, the one with the
    smaller |residual|."""
    lo, hi = 0.0, 1.0
    r_lo, r_hi = -math.inf, math.inf
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if -r_lo < r_hi else hi
        r = residual(mid)
        if r < 0.0:
            lo, r_lo = mid, r
        else:
            hi, r_hi = mid, r


def clopper_pearson(count: int, n: int) -> tuple[float, float]:
    """The Clopper-Pearson interval at CONFIDENCE of ``count`` successes in
    ``n`` trials: the beta quantiles low with I_low(count, n - count + 1)
    = alpha/2 and high with 1 - I_high(count + 1, n - count) = alpha/2,
    in closed form at count = 0 and count = n."""
    tail = (1.0 - CONFIDENCE) / 2.0
    if count == 0:
        low = 0.0
    elif count == n:
        low = math.exp(math.log(tail) / n)
    else:
        low = _bisect(lambda x: _beta_tails(count, n - count + 1, x)[0] - tail)
    if count == n:
        high = 1.0
    elif count == 0:
        high = -math.expm1(math.log(tail) / n)
    else:
        high = _bisect(lambda x: tail - _beta_tails(count + 1, n - count, x)[1])
    return low, high


def _philox_keys(base_seed: int, spawn: np.ndarray) -> np.ndarray:
    """The (m, 2) uint64 Philox keys that
    SeedSequence(entropy=base_seed, spawn_key=row).generate_state(2, np.uint64)
    gives for the rows of the (m, k) array ``spawn`` of words below 2**32:
    numpy's SeedSequence hash (mix_entropy, then generate_state) run once
    over all rows, in mod-2**32 arithmetic on uint64 arrays."""
    m = len(spawn)
    words, rest = [], base_seed
    while True:
        words.append(rest & _WORD)
        rest >>= 32
        if not rest:
            break
    # A spawn key follows the base words padded to the pool size.
    words += [0] * (_POOL_WORDS - len(words))
    entropy = [np.full(m, w, dtype=np.uint64) for w in words]
    entropy += [np.ascontiguousarray(col, dtype=np.uint64) for col in spawn.T]
    word, shift = np.uint64(_WORD), np.uint64(16)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint64(hash_const)
        hash_const = (hash_const * _MULT_A) & _WORD
        value = (value * np.uint64(hash_const)) & word
        return value ^ (value >> shift)

    def mix(x, y):
        result = (np.uint64(_MIX_L) * x - np.uint64(_MIX_R) * y) & word
        return result ^ (result >> shift)

    pool = [hashmix(entropy[i]) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(value))
    hash_const, state = _INIT_B, []
    for i in range(4):
        value = pool[i % _POOL_WORDS] ^ np.uint64(hash_const)
        hash_const = (hash_const * _MULT_B) & _WORD
        value = (value * np.uint64(hash_const)) & word
        state.append(value ^ (value >> shift))
    return np.stack([state[0] | (state[1] << np.uint64(32)), state[2] | (state[3] << np.uint64(32))], axis=1)


@functools.cache
def _key_sequence():
    """The seed-sequence class that hands Philox a precomputed key, defined
    on first use so that importing this module loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise NumericalError(f"a Philox key is 2 uint64 words, not {n_words} {np.dtype(dtype)}")
            return self.key

    return PhiloxKey


def _streams(base_seed: int, idx, attempts, ell: int) -> list[list[np.random.Generator]]:
    """Per path of ``idx`` (run with the streams of ``attempts``), the
    Generator(Philox) of each channel, seeded as
    SeedSequence(entropy=base_seed, spawn_key=(path, attempt, channel)) seeds
    it, the keys from one pass of _philox_keys. TrajectoryConfig and
    simulate_path keep the seed nonnegative and every word below 2**32."""
    spawn = [(int(p), int(a), c) for p, a in zip(idx, attempts) for c in range(ell)]
    key = _key_sequence()
    keys = _philox_keys(base_seed, np.array(spawn, dtype=np.uint64).reshape(-1, 3))
    gens = [np.random.Generator(np.random.Philox(key(k))) for k in keys]
    return [gens[i:i + ell] for i in range(0, len(gens), ell)]


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def positivity_failures(rho: np.ndarray, clip: float) -> np.ndarray:
    """Per state of the stack ``rho``: whether rho + clip * I fails a
    Cholesky factorization (one batched call when all pass)."""
    shifted = rho + clip * np.eye(rho.shape[-1])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        if len(rho) == 1:
            return np.ones(1, dtype=bool)
        return np.concatenate([positivity_failures(m[None], 0.0) for m in shifted])
    return np.zeros(len(rho), dtype=bool)


class _Engine:
    """Precomputed real operators for stepping a block of paths together by
    the filter or, if ``linear``, the linear equation.

    A block's states are the columns of a (d^2, b) array of real coordinates
    (linalg.hermitian_coordinates). ``operators`` stacks, as rows, the real
    matrices of the no-count blocks, weighted 1, dy_B and dy_B dy_B'
    (B <= B'), then, for the filter, the functionals dt c(O_u) of the
    recorded observables (setup.observables: the Brownian means and counting
    intensities are Tr[O_u rho] dt = dt c(O_u) . x); ``count`` holds the real
    count maps.
    """

    def __init__(self, setup: MeasurementSetup, config: TrajectoryConfig, linear: bool):
        lind = setup.ctx.lindbladian
        self.config = config
        self.linear = linear
        d = self.d = lind.dim
        n = self.n = d * d
        q = self.q = setup.q
        self.ell = setup.ell
        self.n_poisson = setup.ell - q
        dt = config.dt
        monitored = setup.monitored
        lb = monitored[:q]
        self.pairs = [(i, j) for i in range(q) for j in range(i, q)]
        self.n_blocks = 1 + q + len(self.pairs)
        n_rows = self.n_blocks * n + (0 if linear else self.ell)
        operators = self.operators = np.empty((n_rows, n))
        # The no-count update M rho M^dagger + dt Phi_u(rho), with
        # M = M0 + sum_B dy_B L_B, expands exactly into blocks weighted 1, dy_B
        # and dy_B dy_B': M0 rho M0^dagger + dt Phi_u(rho), L_B rho M0^dagger +
        # M0 rho L_B^dagger and L_B rho L_B'^dagger + L_B' rho L_B^dagger (once
        # if B = B'). With M0 = I - g dt, g = iH + K/2 (minus n_P / 2 for the
        # linear equation, its compensator) and the Schrodinger generator
        # L(rho) = sum_k L_k rho L_k^dagger - g rho - rho g^dagger, the first
        # block is rho + dt (L - Phi_m)(rho) + dt^2 g rho g^dagger, plus n_P dt rho
        # for the linear equation; Phi_m(rho) = sum over the orthonormal monitored
        # jumps of L_u rho L_u^dagger, so L - Phi_m keeps the unmonitored jumps.
        # Each map enters as the Heisenberg matrix of its dual: the context's
        # for L, and for rho -> sum_j A_j rho B_j, closed under the adjoint, that
        # of X -> sum_j B_j X A_j, left_right_sum_matrix(rights, lefts).
        eye = np.eye(d)
        g = 1j * lind.hamiltonian + 0.5 * lind._kappa - (0.5 * self.n_poisson * eye if linear else 0.0)
        m0 = eye - g * dt
        first = operators[:n]
        first[:] = hermitian_map_matrix(setup.ctx.heisenberg, "generator")
        first -= hermitian_map_matrix(left_right_sum_matrix(_dagger(monitored), monitored),
                                     "monitored jump map")
        first *= dt
        first += dt * dt * hermitian_map_matrix(left_right_sum_matrix([_dagger(g)], [g]), "no-count map")
        first.reshape(-1)[::n + 1] += 1.0 + (self.n_poisson * dt if linear else 0.0)
        blocks = [([l, m0], [_dagger(m0), _dagger(l)]) for l in lb]
        for i, j in self.pairs:
            ls = lb[[i]] if i == j else lb[[i, j]]
            blocks.append((ls, _dagger(ls[::-1])))
        for t, (lefts, rights) in enumerate(blocks, 1):
            operators[t * n:(t + 1) * n] = hermitian_map_matrix(left_right_sum_matrix(rights, lefts),
                                                                "Brownian map")
        if not linear:
            operators[self.n_blocks * n:] = dt * hermitian_coordinates(setup.observables)
        self.count = [hermitian_map_matrix(left_right_sum_matrix([_dagger(l)], [l]), "count map")
                      for l in monitored[q:]]

        max_rate = max((np.linalg.norm(m, 2) for m in setup.observables[q:]), default=0.0)
        if max_rate * dt >= 0.1:
            warnings.warn(f"dt * max jump intensity = {max_rate * dt:.3f} >= 0.1; "
                          "thinning bias may be visible", RuntimeWarning)

    def _noise(self, gens, steps: int):
        """The draws (ell, b, n) of each chunk of NOISE_CHUNK_STEPS steps in
        turn, from the streams ``gens`` of the block's paths: Wiener
        increments for the Brownian channels, then uniforms for the counting
        channels. One buffer is refilled, so a chunk is used before the next
        is drawn."""
        draws = np.empty((self.ell, len(gens), NOISE_CHUNK_STEPS))
        fills = [(row[c].standard_normal if c < self.q else row[c].random, draws[c, p])
                 for p, row in enumerate(gens) for c in range(self.ell)]
        scale = math.sqrt(self.config.dt)
        for start in range(0, steps, NOISE_CHUNK_STEPS):
            n = min(NOISE_CHUNK_STEPS, steps - start)
            if n < NOISE_CHUNK_STEPS:
                draws = draws[:, :, :n]
                fills = [(fill, out[:n]) for fill, out in fills]
            for fill, out in fills:
                fill(out=out)
            draws[:self.q] *= scale
            yield draws

    def advance(self, x, dw, weights):
        """One no-count step of the coordinate columns ``x``: one real GEMM
        by ``self.operators`` (a broadcast product at d = 1), then the blocks
        summed with their weights 1, dy_B and dy_B dy_B' in one einsum, the
        (T, b) array ``weights`` (row 0 all ones) receiving them.

        Returns the new columns, the record increments dy (dW_B under the
        reference law, plus Tr[(L_B + L_B^dagger) rho] dt for the filter;
        None without Brownian channels) and the counting thresholds: dt
        times the intensities for the filter, dt (intensity 1) under the
        reference law."""
        n, q, rows = self.n, self.q, self.n_blocks * self.n
        p = self.operators * x if n == 1 else self.operators @ x
        threshold = self.config.dt if self.linear else p[rows + q:]
        if not q:
            return p[:n], None, threshold
        dy = weights[1:q + 1]
        if self.linear:
            dy[:] = dw
        else:
            np.add(p[rows:rows + q], dw, out=dy)
        for t, (i, j) in enumerate(self.pairs, q + 1):
            np.multiply(dy[i], dy[j], out=weights[t])
        out = np.einsum("tb,tnb->nb", weights, p[:rows].reshape(self.n_blocks, n, -1))
        return out, dy, threshold

    def jumps(self, x, out, u, threshold):
        """Thinned counts: channel P fires where u < intensity * dt, the
        ``threshold`` (u < 1, so a threshold above one always fires). Where it
        fires, the column of ``out`` becomes that of L_P rho L_P^dagger
        (applied in channel order if several fire)."""
        fired = u < threshold
        if fired.any():
            done = None
            for j in np.flatnonzero(fired.any(axis=1)):
                cols = np.flatnonzero(fired[j])
                src = x[:, cols] if done is None else np.where(done[cols], out[:, cols], x[:, cols])
                out[:, cols] = self.count[j] @ src
                if done is None:
                    done = np.zeros(x.shape[1], dtype=bool)
                done[cols] = True
        return fired

    def normalize(self, out, valid):
        """Filter columns divided by their trace, the sum of the first d
        coordinates, in place; a trace at or below COLLAPSED_TRACE (or not
        finite) clears ``valid``, and such a column is left undivided."""
        tr = out[0] if self.d == 1 else out[:self.d].sum(axis=0)
        valid &= tr > COLLAPSED_TRACE
        return np.divide(out, tr, out=out, where=valid)

    def step_block(self, rho0: np.ndarray, idx, attempts):
        """Step paths ``idx`` (with the streams of ``attempts``) together.

        Returns, per path and checkpoint, the estimators (time-averaged
        records), the filter state (None for the linear equation) and the
        trace;
        per path, the invalid flag (a collapsed filter trace, or a linear
        trace Z <= 0 at a checkpoint) and the number of checkpoints whose
        filter state failed the positivity check."""
        cfg, linear = self.config, self.linear
        d, q = self.d, self.q
        b = len(idx)
        cp_steps = cfg.checkpoint_steps()
        cp_lookup = {s: i for i, s in enumerate(cp_steps)}
        n_cp = len(cp_steps)

        x = np.repeat(hermitian_coordinates(rho0)[:, None], b, axis=1)
        record = np.zeros((self.ell, b))
        valid = np.ones(b, dtype=bool)
        weights = np.ones((self.n_blocks, b))
        violations = np.zeros(b, dtype=np.int64)
        estimators = np.zeros((b, n_cp, self.ell))
        traces = np.zeros((b, n_cp))
        states = None if linear else np.zeros((n_cp, b, d, d), dtype=complex)

        step = 0
        for draws in self._noise(_streams(cfg.base_seed, idx, attempts, self.ell), cfg.n_steps()):
            for s in range(draws.shape[2]):
                out, dy, threshold = self.advance(x, draws[:q, :, s], weights)
                if q:
                    record[:q] += dy
                if self.n_poisson:
                    record[q:] += self.jumps(x, out, draws[q:, :, s], threshold)
                x = out if linear else self.normalize(out, valid)
                step += 1
                cp = cp_lookup.get(step)
                if cp is not None:
                    estimators[:, cp] = (record / (step * cfg.dt)).T
                    traces[:, cp] = x[:d].sum(axis=0)
                    if not linear:
                        states[cp] = hermitian_from_coordinates(x.T)
                        violations += positivity_failures(states[cp], POSITIVITY_CLIP)
        invalid = ~np.all(traces > 0.0, axis=1) if linear else ~valid
        return estimators, states, traces, invalid, violations

    def run_paths(self, rho0: np.ndarray, idx: list[int]):
        """Step filter paths ``idx`` as one block, then rerun each invalid
        path alone with fresh streams, up to MAX_RESAMPLE_ATTEMPTS attempts in
        all. Returns per-path estimators, states, positivity-check failures
        and the attempt that produced each path."""
        est, states, _, invalid, fails = self.step_block(rho0, idx, [0] * len(idx))
        attempts = np.zeros(len(idx), dtype=np.int64)
        for pos in np.nonzero(invalid)[0]:
            for attempt in range(1, MAX_RESAMPLE_ATTEMPTS):
                e2, s2, _, inv2, f2 = self.step_block(rho0, [idx[pos]], [attempt])
                if not inv2[0]:
                    est[pos] = e2[0]
                    states[:, pos] = s2[:, 0]
                    fails[pos] = f2[0]
                    attempts[pos] = attempt
                    break
            else:
                raise NumericalError(f"path {idx[pos]} kept hitting degenerate jumps or "
                                     f"collapsing after {MAX_RESAMPLE_ATTEMPTS} attempts")
        return est, states, fails, attempts


def _as_initial_state(rho0, dim: int) -> np.ndarray:
    m = density_matrix(rho0, "rho0")
    if m.shape[0] != dim:
        raise ValidationError(f"initial state dim {m.shape[0]} != generator dim {dim}")
    return m


def _run_blocks(setup: MeasurementSetup, rho0, config: TrajectoryConfig, n_threads: int,
                linear: bool, run_block):
    """The one ensemble scheduler: ``run_block(engine, rho0, idx)`` over fixed
    BLOCK_PATHS blocks of path indices, on up to ``n_threads`` threads, with
    one engine for the filter or, if ``linear``, the linear equation.

    Returns the partial results in block order, so that combining them in
    order does not depend on the thread count.
    """
    engine = _Engine(setup, config, linear)
    rho0m = _as_initial_state(rho0, engine.d)
    n = config.n_paths
    blocks = [list(range(start, min(start + BLOCK_PATHS, n))) for start in range(0, n, BLOCK_PATHS)]

    def run_one(idx):
        return run_block(engine, rho0m, idx)

    if n_threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(run_one, blocks))
    return [run_one(idx) for idx in blocks]


def simulate_path(setup: MeasurementSetup, rho0, config: TrajectoryConfig, path_index: int) -> PathRecord:
    """Integrate one trajectory and report the estimators at the checkpoints.

    A path whose state collapses (a count of near-zero intensity, a
    vanishing trace) is resampled with a fresh noise stream
    (deterministically derived from the attempt number), up to
    MAX_RESAMPLE_ATTEMPTS. ``path_index`` lies in [0, 2**32).
    """
    if not 0 <= path_index < _SPAWN_LIMIT:
        raise ValidationError(f"path_index must be in [0, 2**32), got {path_index}")
    engine = _Engine(setup, config, False)
    rho0 = _as_initial_state(rho0, engine.d)
    est, _, fails, attempts = engine.run_paths(rho0, [path_index])
    return PathRecord(config.checkpoint_times(), est[0], int(fails[0]), config.n_steps(), int(attempts[0]))


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Ensemble aggregates per checkpoint.

    ``state_stderr`` is the Frobenius-aggregated Monte Carlo standard error
    sqrt(sum_ij Var(rho_ij) / n) of the mean state. ``path_estimators``
    holds every path's estimators, in path order.
    ``clip_violation_fraction`` is the share of path-checkpoints whose
    state failed the positivity check (a Cholesky factorization of
    rho + POSITIVITY_CLIP * I).
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
                 n_threads: int = 1) -> EnsembleResult:
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
        est, states, fails, attempts = engine.run_paths(rho0m, idx)
        return est, states.sum(axis=1), (np.abs(states) ** 2).sum(axis=1), fails, attempts

    partials = _run_blocks(setup, rho0, config, n_threads, False, run_block)
    blocks, state_sums, state_sqs, fails, attempts = zip(*partials)
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
    clip_fraction = int(np.concatenate(fails).sum()) / exceed.size
    resampled = int(np.count_nonzero(np.concatenate(attempts)))
    return EnsembleResult(config.checkpoint_times(), r, m_u, tails, est_mean, est_stderr,
                          mean_states, state_stderr, est, n, resampled, clip_fraction,
                          n * config.n_steps())


def run_linear_ensemble(setup: MeasurementSetup, rho0, config: TrajectoryConfig, n_threads: int = 1):
    """Ensemble of linear paths: per checkpoint mean of Z and its stderr."""

    def run_block(engine, rho0m, idx):
        _, _, z, failed, _ = engine.step_block(rho0m, idx, [0] * len(idx))
        return z.sum(axis=0), (z ** 2).sum(axis=0), int(failed.sum())

    partials = _run_blocks(setup, rho0, config, n_threads, True, run_block)
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
