import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.special
import scipy.stats

from conftest import random_faithful, random_state, scalar_lindblad
from qdev.linalg import (
    NumericalError,
    ValidationError,
    hermitian_coordinates,
    hermitian_from_coordinates,
    hermitian_map_matrix,
    left_right_sum_matrix,
    unvec,
    vec,
)
from qdev.lindblad import Lindbladian, stationary_state
from qdev.deviation import MeasurementSetup, main_bound
from qdev import trajectories
from qdev.models import depolarizing, maximally_mixed
from qdev.trajectories import (
    CONFIDENCE,
    TrajectoryConfig,
    _dagger,
    _Engine,
    _philox_keys,
    _streams,
    clopper_pearson,
    compare_with_bound,
    positivity_failures,
    run_ensemble,
    run_linear_ensemble,
    simulate_path,
)


@pytest.fixture(scope="module")
def gaussian_setup():
    ctx = stationary_state(scalar_lindblad(0.0))
    return MeasurementSetup(ctx, [[1.0]], q=1)


@pytest.fixture(scope="module")
def qubit_setup():
    ctx = stationary_state(depolarizing(maximally_mixed(2)))
    u = np.zeros(4)
    u[1] = u[2] = 1 / math.sqrt(2)
    return MeasurementSetup(ctx, [u], q=1)


def seed_sequence_stream(base_seed, path, attempt, channel):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(path, attempt, channel))))


class TestStreamKeys:
    @pytest.mark.parametrize("base_seed", [0, 1, 2**32 + 7, 2**64 - 1, 2**100 + 3])
    def test_one_pass_keys_match_seed_sequence(self, base_seed):
        rng = np.random.default_rng(base_seed % 2**32)
        spawn = np.stack([rng.integers(0, 2**32, 1000), rng.integers(0, 8, 1000),
                          rng.integers(0, 5, 1000)], axis=1).astype(np.uint64)
        spawn[:3] = [[0, 0, 0], [2**32 - 1] * 3, [5, 2, 1]]
        want = np.array([np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(int(w) for w in row))
                         .generate_state(2, np.uint64) for row in spawn])
        assert np.array_equal(_philox_keys(base_seed, spawn), want)

    def test_engine_stream_is_the_seed_sequence_stream(self):
        ctx = stationary_state(depolarizing(maximally_mixed(2)))
        setup = MeasurementSetup(ctx, np.eye(4)[:2], q=2)
        cfg = TrajectoryConfig(dt=1e-2, t_max=2.0, n_paths=1, base_seed=20240817)
        engine = _Engine(setup, cfg, False)
        # the chunks share one buffer, so each is copied before the next is drawn
        chunks = [c.copy() for c in engine._noise(_streams(20240817, [5], [2], 2), 200)]
        assert [c.shape for c in chunks] == [(2, 1, 128), (2, 1, 72)]
        want = seed_sequence_stream(20240817, 5, 2, 1).standard_normal(200) * math.sqrt(1e-2)
        assert np.array_equal(np.concatenate(chunks, axis=2)[1, 0], want)


def random_setup(rng, d, q, n_poisson, k=5):
    """A random jump-form model with k jumps and q Brownian plus n_poisson
    counting channels along orthonormal random directions."""
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    ctx = stationary_state(Lindbladian(h + h.conj().T, jumps / d))
    directions = np.linalg.qr(rng.normal(size=(k, k)))[0][:q + n_poisson]
    return MeasurementSetup(ctx, directions, q)


def complex_blocks(setup, dt, linear):
    """The Heisenberg matrices of the no-count blocks' duals, built from the
    Kraus form: M0 rho M0^dagger + dt Phi_u(rho), then the Brownian blocks.
    The dual of rho -> sum_j A_j rho B_j, closed under the adjoint, is
    X -> sum_j B_j X A_j."""
    lind, q, monitored = setup.ctx.lindbladian, setup.q, setup.monitored
    eye = np.eye(lind.dim)
    g = 1j * lind.hamiltonian + 0.5 * lind._kappa - (0.5 * (setup.ell - q) * eye if linear else 0.0)
    m0 = eye - g * dt
    unmonitored = np.tensordot(np.linalg.svd(setup.directions)[2][setup.ell:], lind.jumps, axes=1)
    blocks = [left_right_sum_matrix([_dagger(m0)], [m0])
              + dt * left_right_sum_matrix(_dagger(unmonitored), unmonitored)]
    blocks += [left_right_sum_matrix([_dagger(m0), _dagger(l)], [l, m0]) for l in monitored[:q]]
    for i in range(q):
        for j in range(i, q):
            ls = monitored[[i]] if i == j else monitored[[i, j]]
            blocks.append(left_right_sum_matrix(_dagger(ls[::-1]), ls))
    return blocks


def image(h, rho):
    """Phi(rho) for the map whose dual has the Heisenberg matrix h."""
    return unvec(h.conj().T @ vec(rho))


class TestRealCoordinates:
    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_real_blocks_reproduce_complex_maps(self, d, linear):
        rng = np.random.default_rng(d)
        setup = random_setup(rng, d, q=2, n_poisson=1)
        dt = 1e-3
        engine = _Engine(setup, TrajectoryConfig(dt=dt, t_max=1.0, n_paths=1, base_seed=0), linear)
        n = d * d
        for _ in range(3):
            rho = random_state(rng, d)
            x = hermitian_coordinates(rho)
            for t, g in enumerate(complex_blocks(setup, dt, linear)):
                want = hermitian_coordinates(image(g, rho))
                got = engine.operators[t * n:(t + 1) * n] @ x
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            for count, l in zip(engine.count, setup.monitored[setup.q:]):
                want = hermitian_coordinates(l @ rho @ l.conj().T)
                assert np.linalg.norm(count @ x - want) <= 1e-13 * np.linalg.norm(want)
            if not linear:
                lb, lp = setup.monitored[:setup.q], setup.monitored[setup.q:]
                want = dt * np.array([np.trace((l + l.conj().T) @ rho).real for l in lb]
                                     + [np.trace(l.conj().T @ l @ rho).real for l in lp])
                got = engine.operators[engine.n_blocks * n:] @ x
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        if not linear:
            # the functionals are dt c(O_u) of the setup's recorded observables
            assert np.array_equal(engine.operators[engine.n_blocks * n:],
                                  dt * hermitian_coordinates(setup.observables))

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_round_trip_is_exactly_hermitian(self, d):
        rho = random_state(np.random.default_rng(d), d)
        back = hermitian_from_coordinates(hermitian_coordinates(rho))
        assert np.array_equal(back, back.conj().T)
        assert np.max(np.abs(back - rho)) <= 1e-15
        # the coordinates are the Hilbert-Schmidt ones: the trace is the sum
        # of the first d, the norm is the Frobenius norm
        x = hermitian_coordinates(rho)
        assert x[:d].sum() == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(rho), rel=1e-14)

    def test_map_that_is_not_hermiticity_preserving_refused(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        with pytest.raises(NumericalError, match="Hermiticity"):
            hermitian_map_matrix(left_right_sum_matrix([b], [a]), "test map")
        # an engine whose generator is i L is refused at construction
        setup = random_setup(rng, 3, q=1, n_poisson=1)
        setup.ctx.heisenberg = 1j * setup.ctx.heisenberg
        with pytest.raises(NumericalError, match="generator is not Hermiticity-preserving"):
            _Engine(setup, TrajectoryConfig(dt=1e-3, t_max=1.0, n_paths=1, base_seed=0), False)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=0.0, t_max=1.0, n_paths=1, base_seed=0)
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=2.0, t_max=1.0, n_paths=1, base_seed=0)

    def test_seed_and_path_indices_fit_the_spawn_words(self):
        # a path index is one 32-bit spawn word, and the seed is nonnegative
        with pytest.raises(ValidationError, match="base_seed"):
            TrajectoryConfig(dt=0.1, t_max=1.0, n_paths=1, base_seed=-3)
        with pytest.raises(ValidationError, match="n_paths"):
            TrajectoryConfig(dt=0.1, t_max=1.0, n_paths=2**32 + 1, base_seed=0)
        TrajectoryConfig(dt=0.1, t_max=1.0, n_paths=2**32, base_seed=2**100)
        ctx = stationary_state(scalar_lindblad(0.5))
        setup = MeasurementSetup(ctx, [[1.0]], q=1)
        cfg = TrajectoryConfig(dt=0.1, t_max=0.2, n_paths=1, base_seed=0)
        for index in (-1, 2**32):
            with pytest.raises(ValidationError, match="path_index"):
                simulate_path(setup, ctx.sigma, cfg, index)
        assert simulate_path(setup, ctx.sigma, cfg, 2**32 - 1).steps == 2

    def test_checkpoints_snap_to_grid(self):
        cfg = TrajectoryConfig(dt=0.1, t_max=1.0, n_paths=1, base_seed=0,
                               checkpoints=(0.5, 1.0))
        assert cfg.checkpoint_steps() == [5, 10]
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=0.1, t_max=1.0, n_paths=1, base_seed=0,
                             checkpoints=(0.0,)).checkpoint_steps()


class TestPositivityByConstruction:
    @pytest.fixture(scope="class")
    def qutrit_setup(self):
        # depolarizing toward a generic faithful qutrit state; one Brownian
        # channel on the |0><1|, |1><0| pair and two counting channels
        ctx = stationary_state(depolarizing(random_faithful(np.random.default_rng(3), 3)))
        u = np.zeros((3, 9))
        u[0, 1] = u[0, 3] = 1 / math.sqrt(2)
        u[1, 2] = 1.0
        u[2, 5] = 1.0
        return MeasurementSetup(ctx, u, q=1)

    def test_qutrit_states_stay_unit_trace_psd(self, qutrit_setup):
        cfg = TrajectoryConfig(dt=1e-3, t_max=2.0, n_paths=64, base_seed=4,
                               checkpoints=tuple(np.arange(1, 11) * 0.2))
        engine = _Engine(qutrit_setup, cfg, False)
        rho0 = qutrit_setup.ctx.sigma
        est, states, _, invalid, fails = engine.step_block(rho0, list(range(64)), [0] * 64)
        assert not invalid.any() and not fails.any()
        assert est[:, -1, 1:].sum() > 0      # counts fired, so jumps were applied
        traces = np.einsum("cnii->cn", states).real
        assert np.max(np.abs(traces - 1.0)) <= 1e-12
        assert np.linalg.eigvalsh(states).min() >= -1e-12
        res = run_ensemble(qutrit_setup, rho0, cfg, [-math.inf] * 3)
        assert res.clip_violation_fraction == 0.0

    def test_forced_non_psd_state_counted(self, qubit_setup):
        shifted = np.array([np.diag([1.05, -0.05]), np.diag([0.5, 0.5]), np.diag([1.0, -1e-12])])
        assert positivity_failures(shifted.astype(complex), 1e-10).tolist() == [True, False, False]
        assert positivity_failures(np.array([np.diag([0.9, 0.2, -0.1])], dtype=complex), 1e-10)[0]
        # a non-PSD initial state stays non-PSD over one short step of the
        # stepper, and each path's one checkpoint is counted
        cfg = TrajectoryConfig(dt=1e-3, t_max=1e-3, n_paths=3, base_seed=0)
        bad = np.diag([1.2, -0.2]).astype(complex)
        _, _, _, invalid, fails = _Engine(qubit_setup, cfg, False).step_block(bad, [0, 1, 2], [0] * 3)
        assert not invalid.any() and fails.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("c, q", [(0.0, 1), (1.0, 0)])
    def test_linear_and_filter_agree_when_laws_coincide(self, c, q):
        # L = 0 (Brownian) and L = 1 (counting at unit rate): the physical
        # law is the reference law, so both modes see the same records and
        # the change-of-measure martingale Z stays exactly 1
        ctx = stationary_state(scalar_lindblad(c))
        setup = MeasurementSetup(ctx, [[1.0]], q=q)
        cfg = TrajectoryConfig(dt=1e-2, t_max=2.0, n_paths=50, base_seed=6, checkpoints=(1.0, 2.0))
        idx = list(range(50))
        filt = _Engine(setup, cfg, False).step_block(ctx.sigma, idx, [0] * 50)
        lin = _Engine(setup, cfg, True).step_block(ctx.sigma, idx, [0] * 50)
        assert np.array_equal(filt[0], lin[0])
        assert np.all(lin[2] == 1.0) and not lin[3].any()

    @pytest.mark.parametrize("c, q", [(0.4, 1), (1.2, 0)])
    def test_linear_reweights_to_filter(self, c, q):
        # E_Q[Z_t E_t] = E_P[E_t]: the reference-law records weighted by Z
        # reproduce the filter's mean estimator (2c Brownian, c^2 counting)
        ctx = stationary_state(scalar_lindblad(c))
        setup = MeasurementSetup(ctx, [[1.0]], q=q)
        n = 4000
        cfg = TrajectoryConfig(dt=1e-3, t_max=1.0, n_paths=n, base_seed=12)
        est, _, z, _, _ = _Engine(setup, cfg, True).step_block(ctx.sigma, list(range(n)), [0] * n)
        weighted = z[:, 0] * est[:, 0, 0]
        exact = 2 * c if q else c * c
        filt = _Engine(setup, cfg, False).step_block(ctx.sigma, list(range(n, 2 * n)),
                                                     [0] * n)[0][:, 0, 0]
        se = math.hypot(weighted.std() / math.sqrt(n), filt.std() / math.sqrt(n))
        assert abs(weighted.mean() - filt.mean()) <= 4 * se
        assert abs(filt.mean() - exact) <= 4 * filt.std() / math.sqrt(n) + exact * cfg.dt


class TestScalarFixtures:
    def test_pure_noise_estimator_is_wiener_average(self, gaussian_setup):
        cfg = TrajectoryConfig(dt=1e-2, t_max=2.0, n_paths=1, base_seed=3,
                               checkpoints=(1.0, 2.0))
        record = simulate_path(gaussian_setup, gaussian_setup.ctx.sigma, cfg, 0)
        # the state is trivially 1, the integrand Tr[O rho] = 0, so the
        # estimator is exactly W_t / t; reproduce it from the same stream
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=3, spawn_key=(0, 0, 0))))
        increments = gen.standard_normal(200) * math.sqrt(1e-2)
        w = np.cumsum(increments)
        assert record.estimators[0, 0] == pytest.approx(w[99] / 1.0, abs=1e-12)
        assert record.estimators[1, 0] == pytest.approx(w[199] / 2.0, abs=1e-12)

    def test_poisson_counts_match_homogeneous_rate(self):
        mu = 1.44
        ctx = stationary_state(scalar_lindblad(math.sqrt(mu)))
        setup = MeasurementSetup(ctx, [[1.0]], q=0)
        cfg = TrajectoryConfig(dt=1e-3, t_max=3.0, n_paths=4000, base_seed=11)
        res = run_ensemble(setup, ctx.sigma, cfg, [math.inf * -1])
        est = res.estimator_mean[0, 0]
        se = res.estimator_stderr[0, 0]
        assert abs(est - mu) <= 3 * se + mu * cfg.dt  # thinning bias O(mu^2 dt)

    def test_gaussian_tail_against_exact(self, gaussian_setup):
        cfg = TrajectoryConfig(dt=1e-3, t_max=4.0, n_paths=4000, base_seed=20240817)
        res = run_ensemble(gaussian_setup, gaussian_setup.ctx.sigma, cfg, [1.0])
        tail = res.tails[0]
        exact = scipy.stats.norm.sf(2.0)
        assert tail.ci_low <= exact <= tail.ci_high


class TestDeterminism:
    def test_same_seed_same_results(self, qubit_setup):
        cfg = TrajectoryConfig(dt=1e-2, t_max=0.5, n_paths=600, base_seed=42)
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        a = run_ensemble(qubit_setup, rho0, cfg, [0.2])
        b = run_ensemble(qubit_setup, rho0, cfg, [0.2])
        assert a.tails[0].count == b.tails[0].count
        assert np.array_equal(a.estimator_mean, b.estimator_mean)
        assert np.array_equal(a.mean_states, b.mean_states)

    def test_thread_count_invariance(self, qubit_setup):
        cfg = TrajectoryConfig(dt=1e-2, t_max=0.5, n_paths=600, base_seed=42)
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        a = run_ensemble(qubit_setup, rho0, cfg, [0.2], n_workers=1)
        b = run_ensemble(qubit_setup, rho0, cfg, [0.2], n_workers=4)
        assert a.tails[0].count == b.tails[0].count
        assert np.array_equal(a.estimator_mean, b.estimator_mean)
        assert np.array_equal(a.mean_states, b.mean_states)

    def test_multi_block_thread_invariance(self, qubit_setup, tmp_path, monkeypatch):
        # 64-path blocks, so that 600 paths span ten blocks and 4 threads split them
        import qdev.trajectories as traj
        from qdev.cli import main as cli_main
        monkeypatch.setattr(traj, "BLOCK_PATHS", 64)
        cfg = TrajectoryConfig(dt=1e-2, t_max=0.5, n_paths=600, base_seed=42, checkpoints=(0.25, 0.5))
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        one = run_ensemble(qubit_setup, rho0, cfg, [0.2], n_workers=1)
        four = run_ensemble(qubit_setup, rho0, cfg, [0.2], n_workers=4)
        assert np.array_equal(one.path_estimators, four.path_estimators)
        assert np.array_equal(one.mean_states, four.mean_states)
        _, z_one, se_one, _ = run_linear_ensemble(qubit_setup, rho0, cfg, n_workers=1)
        _, z_four, se_four, _ = run_linear_ensemble(qubit_setup, rho0, cfg, n_workers=4)
        assert np.array_equal(z_one, z_four) and np.array_equal(se_one, se_four)

        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.json").write_text(json.dumps({
            "kind": "lindblad", "dim": 1, "hamiltonian": [[[0.0, 0.0]]], "jumps": [[[[1.0, 0.0]]]]}))
        (tmp_path / "setup.json").write_text(json.dumps({"directions": [[1.0]], "q": 0}))
        (tmp_path / "config.json").write_text(json.dumps(
            {"dt": 1e-2, "t_max": 2.0, "n_paths": 600, "base_seed": 33, "checkpoints": [1.0, 2.0]}))
        args = ["simulate", "--model", "model.json", "--setup", "setup.json",
                "--config", "config.json", "--r", "0.5"]
        assert cli_main(args + ["-o", "run1.csv"]) == 0
        assert cli_main(["--threads", "4"] + args + ["-o", "run4.csv"]) == 0
        assert (tmp_path / "run1.csv").read_bytes() == (tmp_path / "run4.csv").read_bytes()

    def test_path_results_independent_of_block(self, qubit_setup):
        cfg = TrajectoryConfig(dt=1e-2, t_max=0.3, n_paths=1, base_seed=9)
        rho0 = np.diag([0.7, 0.3]).astype(complex)
        solo = simulate_path(qubit_setup, rho0, cfg, 5)
        cfg_many = TrajectoryConfig(dt=1e-2, t_max=0.3, n_paths=8, base_seed=9)
        res = run_ensemble(qubit_setup, rho0, cfg_many, [-math.inf])
        # ensemble mean over 8 paths includes path 5's contribution computed
        # from the same stream; rebuild the mean from individual paths
        singles = [simulate_path(qubit_setup, rho0, cfg, p).estimators for p in range(8)]
        assert np.allclose(np.mean(singles, axis=0), res.estimator_mean, atol=1e-13)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Armed (non-empty), the next fork interrupts its parent from an after-fork hook.
INTERRUPT_NEXT_FORK = []


def _interrupt_after_fork():
    if INTERRUPT_NEXT_FORK:
        INTERRUPT_NEXT_FORK.clear()
        os.kill(os.getpid(), signal.SIGINT)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_parent=_interrupt_after_fork)


def failing_blocks(monkeypatch, act):
    """Make _Engine.step_block call ``act(first path index)`` in a forked
    worker before stepping; in this process it only steps."""
    parent = os.getpid()
    step_block = _Engine.step_block

    def patched(self, rho0, idx, attempts):
        if os.getpid() != parent:
            act(idx[0])
        return step_block(self, rho0, idx, attempts)

    monkeypatch.setattr(_Engine, "step_block", patched)


class TestForkedWorkers:
    """Ensembles split over forked workers: the exceptions, deaths and
    interruptions that must reach the parent, and leave no child behind."""

    CONFIG = TrajectoryConfig(dt=1e-2, t_max=0.2, n_paths=12, base_seed=3)

    def test_earliest_failing_block_is_raised(self, qubit_setup, monkeypatch):
        monkeypatch.setattr(trajectories, "BLOCK_PATHS", 2)

        def act(first):
            if first in (2, 4):   # blocks 1 (worker 1) and 2 (worker 0)
                raise NumericalError(f"block from path {first} failed")

        failing_blocks(monkeypatch, act)
        with pytest.raises(NumericalError, match="block from path 2 failed"):
            run_ensemble(qubit_setup, np.eye(2) / 2, self.CONFIG, [0.2], n_workers=2)
        assert_no_children()

    def test_killed_worker_raises(self, qubit_setup, monkeypatch):
        monkeypatch.setattr(trajectories, "BLOCK_PATHS", 4)

        def act(first):
            if first == 4:
                os.kill(os.getpid(), signal.SIGKILL)

        failing_blocks(monkeypatch, act)
        with pytest.raises(NumericalError, match="died of SIGKILL"):
            run_linear_ensemble(qubit_setup, np.eye(2) / 2, self.CONFIG, n_workers=3)
        assert_no_children()

    def test_parent_interrupted_kills_its_workers(self, qubit_setup, monkeypatch):
        monkeypatch.setattr(trajectories, "BLOCK_PATHS", 6)
        parent = os.getpid()

        def act(first):   # the last worker interrupts the parent, then both workers hang
            if first == 6:
                time.sleep(0.2)   # past the fork hooks, where a raised exception is dropped
                os.kill(parent, signal.SIGUSR1)
            time.sleep(60)

        def interrupt(signum, frame):
            raise RuntimeError("interrupted")

        failing_blocks(monkeypatch, act)
        previous = signal.signal(signal.SIGUSR1, interrupt)
        start = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="interrupted"):
                run_ensemble(qubit_setup, np.eye(2) / 2, self.CONFIG, [0.2], n_workers=2)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_interrupt_during_fork_is_not_lost(self, qubit_setup, monkeypatch):
        # an interrupt that lands while os.fork runs its after-fork hooks
        monkeypatch.setattr(trajectories, "BLOCK_PATHS", 6)   # two blocks
        INTERRUPT_NEXT_FORK.append(True)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_ensemble(qubit_setup, np.eye(2) / 2, self.CONFIG, [0.2], n_workers=2)
        finally:
            INTERRUPT_NEXT_FORK.clear()
        assert_no_children()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux only")
    def test_workers_die_with_a_killed_parent(self, tmp_path):
        script = f"""
import os, time, numpy as np
from qdev import trajectories
from qdev.deviation import MeasurementSetup
from qdev.lindblad import stationary_state
from conftest import scalar_lindblad
trajectories.BLOCK_PATHS = 1
def hang(self, rho0, idx):
    open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w").close()
    time.sleep(60)
trajectories._Engine.run_paths = hang
setup = MeasurementSetup(stationary_state(scalar_lindblad(0.0)), [[1.0]], q=1)
cfg = trajectories.TrajectoryConfig(dt=1e-2, t_max=0.1, n_paths=2, base_seed=1)
trajectories.run_ensemble(setup, np.eye(1), cfg, [0.0], n_workers=2)
"""
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            deadline = time.monotonic() + 60
            while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            workers = [int(f.name) for f in tmp_path.iterdir()]
            assert len(workers) == 2
        finally:
            proc.kill()
            proc.wait(timeout=60)
        deadline = time.monotonic() + 10
        while any(running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in workers)


def running(pid: int) -> bool:
    """Is process pid alive (neither gone nor a zombie)?"""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestLinearPaths:
    def test_trivial_generator_keeps_z_one(self, gaussian_setup):
        cfg = TrajectoryConfig(dt=1e-2, t_max=1.0, n_paths=1, base_seed=1)
        _, mean, _, failures = run_linear_ensemble(gaussian_setup, gaussian_setup.ctx.sigma, cfg)
        assert mean[0] == pytest.approx(1.0, abs=1e-12)
        assert failures == 0

    def test_scalar_geometric_brownian_mean(self):
        c = 0.4
        ctx = stationary_state(scalar_lindblad(c))
        setup = MeasurementSetup(ctx, [[1.0]], q=1)
        cfg = TrajectoryConfig(dt=1e-3, t_max=1.0, n_paths=4000, base_seed=13)
        _, mean, se, failures = run_linear_ensemble(setup, ctx.sigma, cfg)
        assert failures == 0
        assert abs(mean[0] - 1.0) <= 3 * se[0]

    def test_qubit_depolarizing_martingale(self, qubit_setup):
        rho0 = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
        cfg = TrajectoryConfig(dt=1e-3, t_max=2.0, n_paths=3000, base_seed=5,
                               checkpoints=(0.5, 1.0, 2.0))
        _, mean, se, failures = run_linear_ensemble(qubit_setup, rho0, cfg)
        assert failures == 0
        assert np.all(np.abs(mean - 1.0) <= 3 * se)


class TestEnsemblePhysics:
    def test_mean_state_follows_master_equation(self, qubit_setup):
        rho0 = np.array([[0.9, 0.2 - 0.1j], [0.2 + 0.1j, 0.1]], dtype=complex)
        cfg = TrajectoryConfig(dt=1e-3, t_max=1.0, n_paths=3000, base_seed=77,
                               checkpoints=(0.25, 0.5, 1.0))
        res = run_ensemble(qubit_setup, rho0, cfg, [-math.inf])
        schro = qubit_setup.ctx.heisenberg.conj().T
        for i, t in enumerate(res.checkpoint_times):
            target = (scipy.linalg.expm(t * schro) @ vec(rho0)).reshape(2, 2, order="F")
            diff = res.mean_states[i] - target
            trace_norm = np.sum(np.linalg.svd(diff, compute_uv=False))
            assert trace_norm <= 5 * math.sqrt(2) * res.state_stderr[i]

    def test_brownian_estimator_ergodic_mean(self, qubit_setup):
        # estimator mean approaches m_u = 0 with O(1/t) bias + MC error
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        cfg = TrajectoryConfig(dt=2e-3, t_max=8.0, n_paths=1500, base_seed=31)
        res = run_ensemble(qubit_setup, rho0, cfg, [-math.inf])
        est = res.estimator_mean[0, 0]
        se = res.estimator_stderr[0, 0]
        assert abs(est - res.means[0]) <= 3 * se + 1.0 / 8.0

    def test_disabled_channel_sentinel(self, qubit_setup):
        cfg = TrajectoryConfig(dt=1e-2, t_max=0.2, n_paths=50, base_seed=2)
        res = run_ensemble(qubit_setup, qubit_setup.ctx.sigma, cfg, [-math.inf])
        assert res.tails[0].estimate == 1.0

    def test_validity_counter_stays_low(self, qubit_setup):
        cfg = TrajectoryConfig(dt=1e-3, t_max=0.5, n_paths=200, base_seed=8)
        res = run_ensemble(qubit_setup, qubit_setup.ctx.sigma, cfg, [-math.inf])
        assert res.clip_violation_fraction <= 0.01


class TestClopperPearson:
    def test_extreme_counts(self):
        low, high = clopper_pearson(0, 100)
        assert low == 0.0 and 0 < high < 0.1
        low, high = clopper_pearson(100, 100)
        assert high == 1.0 and 0.9 < low < 1.0

    def test_interval_contains_estimate(self, rng):
        for _ in range(25):
            n = int(rng.integers(10, 1000))
            k = int(rng.integers(0, n + 1))
            low, high = clopper_pearson(k, n)
            assert low <= k / n <= high


def scipy_interval(k, n):
    alpha = 1.0 - CONFIDENCE
    low = scipy.special.betaincinv(k, n - k + 1, alpha / 2) if k > 0 else 0.0
    high = scipy.special.betaincinv(k + 1, n - k, 1 - alpha / 2) if k < n else 1.0
    return float(low), float(high)


def mpmath_quantile(a, b, tail, upper, start):
    """The x with I_x(a, b) = tail (1 - I_x(a, b) = tail when ``upper``), to
    40 digits: Newton's method from ``start``."""
    with mpmath.workdps(40):
        x = mpmath.mpf(start)
        for _ in range(8):
            cdf = mpmath.betainc(a, b, 0, x, regularized=True)
            step = ((1 - cdf if upper else cdf) - tail) / (x ** (a - 1) * (1 - x) ** (b - 1) / mpmath.beta(a, b))
            x = x + step if upper else x - step
        return float(x)


def interval_grid(sizes):
    for n in sizes:
        for k in sorted({0, 1, 2, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
            yield k, n


def assert_relative(got, want, tol):
    assert got == want if want in (0.0, 1.0) else abs(got - want) <= tol * want, (got, want)


class TestClopperPearsonAccuracy:
    """The interval is the pair of beta quantiles, computed without scipy:
    pinned against scipy's betaincinv and a 40-digit mpmath root."""

    def test_matches_scipy(self):
        for k, n in interval_grid((1, 2, 7, 50, 333, 1000, 4000)):
            for got, want in zip(clopper_pearson(k, n), scipy_interval(k, n)):
                assert_relative(got, want, 1e-12)

    def test_matches_40_digit_root(self):
        tail = (1.0 - CONFIDENCE) / 2
        for k, n in interval_grid((1, 2, 7, 50, 333, 1000)):
            low, high = clopper_pearson(k, n)
            ref_low, ref_high = scipy_interval(k, n)
            if 0 < k:
                assert_relative(low, mpmath_quantile(k, n - k + 1, tail, False, ref_low), 1e-13)
            if k < n:
                assert_relative(high, mpmath_quantile(k + 1, n - k, tail, True, ref_high), 1e-13)

    def test_large_ensembles_match_scipy(self):
        for k, n in interval_grid((10 ** 5, 10 ** 6)):
            for got, want in zip(clopper_pearson(k, n), scipy_interval(k, n)):
                assert_relative(got, want, 1e-10)


class TestCompareWithBound:
    def test_zero_estimate_consistent(self, gaussian_setup):
        rep = main_bound(gaussian_setup, gaussian_setup.ctx.sigma, [1.0])
        from qdev.trajectories import EmpiricalTail
        tail = EmpiricalTail(np.array([1.0]), 0, 1000, 0.0, 0.0, 0.0037)
        assert compare_with_bound(tail, rep, 4.0).consistent

    def test_gaussian_grid_consistency(self, gaussian_setup):
        cfg = TrajectoryConfig(dt=1e-3, t_max=4.0, n_paths=3000, base_seed=101,
                               checkpoints=(1.0, 2.0, 4.0))
        res = run_ensemble(gaussian_setup, gaussian_setup.ctx.sigma, cfg, [0.7])
        rep = main_bound(gaussian_setup, gaussian_setup.ctx.sigma, [0.7])
        for tail, t in zip(res.tails, res.checkpoint_times):
            assert compare_with_bound(tail, rep, t).consistent

    def test_corrupted_bound_flagged(self, gaussian_setup):
        # Chernoff for the Gaussian is at best a factor ~ z sqrt(2 pi) off,
        # so an eightfold deflation at z = 2 must undercut the interval.
        cfg = TrajectoryConfig(dt=1e-3, t_max=4.0, n_paths=10_000, base_seed=20240817)
        res = run_ensemble(gaussian_setup, gaussian_setup.ctx.sigma, cfg, [1.0])
        rep = main_bound(gaussian_setup, gaussian_setup.ctx.sigma, [1.0])
        honest = compare_with_bound(res.tails[0], rep, 4.0)
        assert honest.consistent

        class Corrupted:
            def bound(self, t):
                return rep.bound(t) / 8.0

        assert not compare_with_bound(res.tails[0], Corrupted(), 4.0).consistent


class TestDiagnostics:
    def test_large_dt_intensity_warns(self):
        mu = 25.0
        ctx = stationary_state(scalar_lindblad(math.sqrt(mu)))
        setup = MeasurementSetup(ctx, [[1.0]], q=0)
        cfg = TrajectoryConfig(dt=1e-2, t_max=0.1, n_paths=1, base_seed=0)
        with pytest.warns(RuntimeWarning, match="thinning bias"):
            simulate_path(setup, ctx.sigma, cfg, 0)

    def test_degenerate_jump_flags_and_resamples(self, monkeypatch):
        # force every state to count as collapsed: each attempt is flagged
        # invalid and the path is eventually given up on
        import qdev.trajectories as traj
        mu = 4.0
        ctx = stationary_state(scalar_lindblad(math.sqrt(mu)))
        setup = MeasurementSetup(ctx, [[1.0]], q=0)
        cfg = TrajectoryConfig(dt=1e-2, t_max=1.0, n_paths=1, base_seed=3)
        monkeypatch.setattr(traj, "COLLAPSED_TRACE", 1e9)
        from qdev.linalg import NumericalError
        with pytest.raises(NumericalError, match="degenerate"):
            simulate_path(setup, ctx.sigma, cfg, 0)
        with pytest.raises(NumericalError, match="degenerate"):
            run_ensemble(setup, ctx.sigma, cfg, [-math.inf])
