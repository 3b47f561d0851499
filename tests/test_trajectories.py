import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from conftest import scalar_lindblad
from qdev.linalg import ValidationError, vec
from qdev.lindblad import stationary_state
from qdev.deviation import MeasurementSetup, main_bound
from qdev.models import depolarizing, maximally_mixed
from qdev.trajectories import (
    TrajectoryConfig,
    _clip_and_renormalize,
    clopper_pearson,
    compare_with_bound,
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


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=0.0, t_max=1.0, n_paths=1, base_seed=0)
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=2.0, t_max=1.0, n_paths=1, base_seed=0)

    def test_checkpoints_snap_to_grid(self):
        cfg = TrajectoryConfig(dt=0.1, t_max=1.0, n_paths=1, base_seed=0,
                               checkpoints=(0.5, 1.0))
        assert cfg.checkpoint_steps() == [5, 10]
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=0.1, t_max=1.0, n_paths=1, base_seed=0,
                             checkpoints=(0.0,)).checkpoint_steps()


class TestClipAndRenormalize:
    def test_negative_eigenvalue_clipped_and_counted(self):
        rho = np.array([[[1.05, 0.0], [0.0, -0.05]]], dtype=complex)
        out, invalid, violated = _clip_and_renormalize(rho, 1e-10)
        assert violated[0] == 1 and not invalid[0]
        w = np.linalg.eigvalsh(out[0])
        assert w[0] >= 0.0
        assert np.trace(out[0]).real == pytest.approx(1.0, abs=1e-12)

    def test_small_negative_within_tolerance_not_counted(self):
        rho = np.array([[[1.0, 0.0], [0.0, -1e-12]]], dtype=complex)
        _, invalid, violated = _clip_and_renormalize(rho, 1e-10)
        assert violated[0] == 0 and not invalid[0]

    def test_qutrit_path_uses_eigh(self):
        rho = np.array([np.diag([0.9, 0.2, -0.1])], dtype=complex)
        out, invalid, violated = _clip_and_renormalize(rho, 1e-10)
        assert violated[0] == 1 and not invalid[0]
        assert np.linalg.eigvalsh(out[0])[0] >= 0.0
        assert np.trace(out[0]).real == pytest.approx(1.0, abs=1e-12)


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
        a = run_ensemble(qubit_setup, rho0, cfg, [0.2], n_threads=1)
        b = run_ensemble(qubit_setup, rho0, cfg, [0.2], n_threads=4)
        assert a.tails[0].count == b.tails[0].count
        assert np.array_equal(a.estimator_mean, b.estimator_mean)
        assert np.array_equal(a.mean_states, b.mean_states)

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
        schro = qubit_setup.ctx.schrodinger.matrix
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

    @pytest.mark.parametrize("confidence", [0.99, 0.95])
    def test_equals_beta_quantiles(self, confidence):
        alpha = 1.0 - confidence
        for n in (1, 2, 7, 50, 333, 1000, 4000):
            for k in sorted({0, 1, 2, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
                low = scipy.stats.beta.ppf(alpha / 2, k, n - k + 1) if k > 0 else 0.0
                high = scipy.stats.beta.ppf(1 - alpha / 2, k + 1, n - k) if k < n else 1.0
                assert clopper_pearson(k, n, confidence) == (float(low), float(high))


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
        # force every fired jump to count as degenerate: each attempt is
        # flagged invalid and the path is eventually given up on
        import qdev.trajectories as traj
        mu = 4.0
        ctx = stationary_state(scalar_lindblad(math.sqrt(mu)))
        setup = MeasurementSetup(ctx, [[1.0]], q=0)
        cfg = TrajectoryConfig(dt=1e-2, t_max=1.0, n_paths=1, base_seed=3)
        monkeypatch.setattr(traj, "DEGENERATE_INTENSITY", 1e9)
        from qdev.linalg import NumericalError
        with pytest.raises(NumericalError, match="degenerate"):
            simulate_path(setup, ctx.sigma, cfg, 0)
        with pytest.raises(NumericalError, match="degenerate"):
            run_ensemble(setup, ctx.sigma, cfg, [-math.inf])
