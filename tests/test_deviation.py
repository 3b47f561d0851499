import math

import numpy as np
import pytest

from conftest import random_hermitian, scalar_lindblad
from qdev import deviation
from qdev.linalg import NumericalError, ValidationError, left_right_matrix, top_eigenpair, vec
from qdev.lindblad import Lindbladian, NotKmsSymmetricError, stationary_state
from qdev.deviation import (
    MeasurementSetup,
    TiltedFamily,
    direct_variational_crosscheck,
    f_statistics,
    main_bound,
    mass_relative_entropy,
    mean_vector,
    perturbed_generator,
    rate_function,
    scgf,
)
from qdev.models import ClassicalChain, classical_embedding, depolarizing, maximally_mixed


@pytest.fixture(scope="module")
def qubit_setup():
    ctx = stationary_state(depolarizing(maximally_mixed(2)))
    u = np.zeros(4)
    u[1] = u[2] = 1 / math.sqrt(2)
    return MeasurementSetup(ctx, [u], q=1)


@pytest.fixture(scope="module")
def generic_setup():
    """d = 4, random Hamiltonian and three random jumps; one Brownian and
    one Poisson channel."""
    rng = np.random.default_rng(5)
    jumps = [(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / 4 for _ in range(3)]
    ctx = stationary_state(Lindbladian(random_hermitian(rng, 4), jumps))
    return MeasurementSetup(ctx, np.eye(3)[:2], q=1)


@pytest.fixture(scope="module")
def mixed_setup():
    """Qubit depolarizing with one Brownian and one Poisson channel."""
    ctx = stationary_state(depolarizing(maximally_mixed(2)))
    u1 = np.zeros(4)
    u1[1] = u1[2] = 1 / math.sqrt(2)
    u2 = np.zeros(4)
    u2[1] = 1 / math.sqrt(2)
    u2[2] = -1 / math.sqrt(2)
    return MeasurementSetup(ctx, [u1, u2], q=1)


class TestSetupValidation:
    def test_non_unit_direction(self, qubit_setup):
        with pytest.raises(ValidationError):
            MeasurementSetup(qubit_setup.ctx, [[1.0, 1.0, 0.0, 0.0]], q=1)

    def test_non_orthogonal_directions(self, qubit_setup):
        u = [1.0, 0.0, 0.0, 0.0]
        v = [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0, 0.0]
        with pytest.raises(ValidationError):
            MeasurementSetup(qubit_setup.ctx, [u, v], q=1)

    def test_q_out_of_range(self, qubit_setup):
        with pytest.raises(ValidationError):
            MeasurementSetup(qubit_setup.ctx, [[1.0, 0, 0, 0]], q=2)


class TestMeanVector:
    def test_scalar_brownian(self):
        c = 0.4 - 0.7j
        ctx = stationary_state(scalar_lindblad(c))
        setup = MeasurementSetup(ctx, [[1.0]], q=1)
        assert mean_vector(setup)[0] == pytest.approx(2 * c.real, abs=1e-14)

    def test_scalar_poisson(self):
        c = 0.4 - 0.7j
        ctx = stationary_state(scalar_lindblad(c))
        setup = MeasurementSetup(ctx, [[1.0]], q=0)
        assert mean_vector(setup)[0] == pytest.approx(abs(c) ** 2, abs=1e-14)

    def test_depolarizing_offdiagonal_direction(self, qubit_setup):
        assert mean_vector(qubit_setup)[0] == pytest.approx(0.0, abs=1e-14)


class TestFStatistics:
    def test_identity_gives_mean(self, mixed_setup):
        f = f_statistics(mixed_setup, np.eye(2))
        assert np.allclose(f, mean_vector(mixed_setup), atol=1e-12)

    def test_scalar_brownian(self):
        c = 0.3 + 0.2j
        ctx = stationary_state(scalar_lindblad(c))
        setup = MeasurementSetup(ctx, [[1.0]], q=1)
        assert f_statistics(setup, np.eye(1))[0] == pytest.approx(2 * c.real, abs=1e-14)

    def test_zero_observable(self, mixed_setup):
        assert np.allclose(f_statistics(mixed_setup, np.zeros((2, 2))), 0.0)

    def test_poisson_entries_nonnegative_on_psd(self, rng, mixed_setup):
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            x = a @ a.conj().T
            assert f_statistics(mixed_setup, x)[1] >= -1e-12


class TestPerturbedGenerator:
    def test_zero_tilt_is_generator(self, mixed_setup):
        m = perturbed_generator(mixed_setup, [0.0, 0.0]).matrix
        assert np.max(np.abs(m - mixed_setup.ctx.heisenberg.matrix)) <= 1e-14

    def test_scalar_brownian_form(self):
        c = 0.3 + 0.2j
        ctx = stationary_state(scalar_lindblad(c))
        setup = MeasurementSetup(ctx, [[1.0]], q=1)
        lam = 0.8
        value = perturbed_generator(setup, [lam]).matrix[0, 0]
        assert value == pytest.approx(lam * 2 * c.real + lam**2 / 2, abs=1e-13)

    def test_scalar_poisson_form(self):
        c = 0.3 + 0.2j
        ctx = stationary_state(scalar_lindblad(c))
        setup = MeasurementSetup(ctx, [[1.0]], q=0)
        lam = 0.8
        value = perturbed_generator(setup, [lam]).matrix[0, 0]
        assert value == pytest.approx(math.expm1(lam) * abs(c) ** 2, abs=1e-13)

    def test_completely_positive_decomposition(self, mixed_setup):
        """The tilt decomposes as a CP map minus |lam^B|^2/2 minus the
        anticommutator with sum_i L_i* L_i (H = 0 here)."""
        setup = mixed_setup
        lind = setup.ctx.lindbladian
        lam = np.array([0.7, 0.4])
        d = 2
        eye = np.eye(d)
        shift = np.array([lam[0] * setup.directions[0, m] for m in range(lind.k)])
        psi = math.expm1(lam[1]) * left_right_matrix(setup.monitored[1].conj().T, setup.monitored[1])
        for i, l in enumerate(lind.jumps):
            shifted = l + shift[i] * eye
            psi = psi + left_right_matrix(shifted.conj().T, shifted)
        kappa = sum(l.conj().T @ l for l in lind.jumps)
        expected = (psi - 0.5 * lam[0] ** 2 * np.eye(d * d)
                    - 0.5 * (left_right_matrix(kappa, eye) + left_right_matrix(eye, kappa)))
        assert np.max(np.abs(perturbed_generator(setup, lam).matrix - expected)) < 1e-12
        # complete positivity of the CP piece: Choi eigenvalues >= ~0
        choi = np.zeros((d * d, d * d), dtype=complex)
        unit = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                unit[i, j] = 1.0
                image = (psi @ vec(unit)).reshape((d, d), order="F")
                choi += np.kron(unit, image)
                unit[i, j] = 0.0
        assert np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0] > -1e-10


class TestScgf:
    def test_zero_at_origin(self, mixed_setup):
        assert abs(scgf(mixed_setup, [0.0, 0.0])) <= 1e-10

    def test_scalar_closed_forms(self):
        c = 0.5 - 0.1j
        ctx = stationary_state(scalar_lindblad(c))
        brownian = MeasurementSetup(ctx, [[1.0]], q=1)
        poisson = MeasurementSetup(ctx, [[1.0]], q=0)
        for lam in (0.2, 1.1, 3.0):
            assert scgf(brownian, [lam]) == pytest.approx(lam * 2 * c.real + lam**2 / 2, abs=1e-12)
            assert scgf(poisson, [lam]) == pytest.approx(math.expm1(lam) * abs(c) ** 2, abs=1e-12)

    def test_convexity_on_random_segments(self, rng, mixed_setup):
        for _ in range(25):
            a = rng.uniform(-1.5, 1.5, size=2)
            b = rng.uniform(-1.5, 1.5, size=2)
            mid = scgf(mixed_setup, (a + b) / 2)
            assert mid <= (scgf(mixed_setup, a) + scgf(mixed_setup, b)) / 2 + 1e-9


class TestMainBound:
    def test_zero_threshold_gives_zero_exponent(self, mixed_setup):
        rep = main_bound(mixed_setup, mixed_setup.ctx.sigma, [0.0, 0.0])
        assert rep.exponent == pytest.approx(0.0, abs=1e-9)
        assert rep.bound(3.0) == pytest.approx(rep.prefactor, rel=1e-9)

    def test_gaussian_exponent(self):
        ctx = stationary_state(scalar_lindblad(0.0))
        setup = MeasurementSetup(ctx, [[1.0]], q=1)
        rep = main_bound(setup, ctx.sigma, [1.0])
        assert rep.exponent == pytest.approx(0.5, abs=1e-10)
        assert rep.prefactor == pytest.approx(1.0, abs=1e-12)

    def test_poisson_exponent(self):
        mu = 1.7
        ctx = stationary_state(scalar_lindblad(math.sqrt(mu)))
        setup = MeasurementSetup(ctx, [[1.0]], q=0)
        r = 0.9
        rep = main_bound(setup, ctx.sigma, [r])
        expected = (mu + r) * math.log((mu + r) / mu) - r
        assert rep.exponent == pytest.approx(expected, abs=1e-8)

    def test_prefactor_of_nonstationary_state(self, qubit_setup):
        rho = np.array([[0.9, 0.1], [0.1, 0.1]], dtype=complex)
        rep = main_bound(qubit_setup, rho, [0.1])
        st = qubit_setup.ctx.faithful
        inv_half = st.power(-0.5)
        expected = math.sqrt(np.trace(rho @ inv_half @ rho @ inv_half).real)
        assert rep.prefactor == pytest.approx(expected, abs=1e-12)

    def test_exponent_monotone_in_r(self, qubit_setup):
        values = [main_bound(qubit_setup, qubit_setup.ctx.sigma, [r]).exponent
                  for r in (0.0, 0.2, 0.5, 1.0, 2.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_negative_threshold_rejected(self, qubit_setup):
        with pytest.raises(ValidationError):
            main_bound(qubit_setup, qubit_setup.ctx.sigma, [-0.1])

    def test_dead_poisson_channel_unbounded(self):
        ctx = stationary_state(scalar_lindblad(0.0))
        setup = MeasurementSetup(ctx, [[1.0]], q=0)
        rep = main_bound(setup, ctx.sigma, [0.5])
        assert math.isinf(rep.exponent)
        assert rep.status == "unbounded"
        assert rep.bound(2.0) == 0.0

    def test_joint_exponent_dominates_marginals(self, mixed_setup):
        r = np.array([0.4, 0.3])
        joint = main_bound(mixed_setup, mixed_setup.ctx.sigma, r).exponent
        for j in range(2):
            single = MeasurementSetup(mixed_setup.ctx, [mixed_setup.directions[j]],
                                      q=1 if j == 0 else 0)
            alone = main_bound(single, mixed_setup.ctx.sigma, [r[j]]).exponent
            assert joint >= alone - 1e-8


class TestMassRelativeEntropy:
    def test_identity(self):
        assert mass_relative_entropy([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_two_vs_one(self):
        assert mass_relative_entropy([2.0], [1.0]) == pytest.approx(2 * math.log(2) - 1, abs=1e-14)

    def test_support_rule(self):
        assert mass_relative_entropy([1.0], [0.0]) == math.inf
        assert mass_relative_entropy([0.0], [1.0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            mass_relative_entropy([-0.1], [1.0])

    def test_nonnegative(self, rng):
        for _ in range(100):
            p = rng.uniform(0, 2, size=3)
            q = rng.uniform(0.01, 2, size=3)
            assert mass_relative_entropy(p, q) >= -1e-12


class TestRateFunction:
    def test_zero_at_mean(self, mixed_setup):
        m = mean_vector(mixed_setup)
        point = rate_function(mixed_setup, [m])[0]
        assert point.value <= 1e-8

    def test_scalar_gaussian_pair(self):
        c = 0.45
        ctx = stationary_state(scalar_lindblad(c))
        setup = MeasurementSetup(ctx, [[1.0]], q=1)
        for s in (-0.5, 0.9, 2.3):
            point = rate_function(setup, [[s]])[0]
            assert point.value == pytest.approx((s - 2 * c) ** 2 / 2, abs=1e-9)

    def test_scalar_poisson_pair(self):
        mu = 1.3
        ctx = stationary_state(scalar_lindblad(math.sqrt(mu)))
        setup = MeasurementSetup(ctx, [[1.0]], q=0)
        for s in (0.4, 1.3, 3.0):
            point = rate_function(setup, [[s]])[0]
            expected = s * math.log(s / mu) - s + mu
            assert point.value == pytest.approx(expected, abs=1e-9)
        assert rate_function(setup, [[-0.2]])[0].status == "unbounded"

    def test_convex_and_nonnegative_along_grid(self, qubit_setup):
        grid = np.linspace(-1.0, 1.0, 9)[:, None]
        values = np.array([p.value for p in rate_function(qubit_setup, grid)])
        assert np.all(values >= 0.0)
        mids = values[1:-1]
        assert np.all(mids <= (values[:-2] + values[2:]) / 2 + 1e-9)

    def test_refuses_non_kms_generator(self):
        q = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        ctx = stationary_state(classical_embedding(ClassicalChain(q)))
        u = np.zeros(ctx.lindbladian.k)
        u[1] = 1.0
        setup = MeasurementSetup(ctx, [u], q=1)
        with pytest.raises(NotKmsSymmetricError):
            rate_function(setup, [[0.5]])

    def test_legendre_duality_with_main_bound(self, qubit_setup):
        m = mean_vector(qubit_setup)
        for r in (0.1, 0.3, 1.0):
            rep = main_bound(qubit_setup, qubit_setup.ctx.sigma, [r])
            point = rate_function(qubit_setup, [[m[0] + r]])[0]
            assert abs(rep.exponent - point.value) < 1e-6


class TestDirectVariationalCrosscheck:
    def test_scalar_exact(self):
        ctx = stationary_state(scalar_lindblad(0.0))
        setup = MeasurementSetup(ctx, [[1.0]], q=1)
        assert direct_variational_crosscheck(setup, [1.0]) == pytest.approx(0.5, abs=1e-10)

    def test_zero_threshold(self, qubit_setup):
        assert direct_variational_crosscheck(qubit_setup, [0.0]) == pytest.approx(0.0, abs=1e-8)

    def test_qubit_agrees_with_main_bound(self, qubit_setup):
        rep = main_bound(qubit_setup, qubit_setup.ctx.sigma, [0.3])
        value = direct_variational_crosscheck(qubit_setup, [0.3])
        assert abs(value - rep.exponent) < 1e-5

    def test_mixed_channels_agree(self, mixed_setup):
        r = [0.25, 0.4]
        rep = main_bound(mixed_setup, mixed_setup.ctx.sigma, r)
        value = direct_variational_crosscheck(mixed_setup, r)
        assert abs(value - rep.exponent) < 1e-5

    def test_dimension_guard(self):
        ctx = stationary_state(depolarizing(maximally_mixed(4)))
        u = np.zeros(16)
        u[1] = 1.0
        setup = MeasurementSetup(ctx, [u], q=1)
        with pytest.raises(ValidationError):
            direct_variational_crosscheck(setup, [0.1])


class TestTiltedFamilyInternals:
    def test_hellmann_feynman_matches_finite_differences(self, mixed_setup):
        family = TiltedFamily(mixed_setup)
        lam = np.array([0.6, 0.2])
        grad = family.gradient(lam)
        assert grad is not None
        eps = 1e-6
        for j in range(2):
            up = lam.copy()
            dn = lam.copy()
            up[j] += eps
            dn[j] -= eps
            fd = (family.value(up) - family.value(dn)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, abs=1e-6)


TILTS = [np.array(lam) for lam in ([0.0, 0.0], [0.4, 0.3], [-0.5, 1.2], [2.0, -1.0])]


def record_convergence(monkeypatch) -> list:
    """Make TiltedFamily log whether each Lanczos solve converged."""
    flags = []

    def logged(a, start):
        theta, y, converged = top_eigenpair(a, start)
        flags.append(converged)
        return theta, y, converged

    monkeypatch.setattr(deviation, "top_eigenpair", logged)
    return flags


def assert_top(value, b):
    top = np.linalg.eigvalsh(b)[-1]
    assert abs(value - top) <= 1e-12 * max(1.0, abs(top))


class TestTopEigenvalue:
    @pytest.mark.parametrize("iterative", [True, False])
    def test_value_matches_eigvalsh(self, generic_setup, iterative, monkeypatch):
        monkeypatch.setattr(deviation, "LANCZOS_MIN_SIZE", 0 if iterative else 10**9)
        flags = record_convergence(monkeypatch)
        family = TiltedFamily(generic_setup)
        for lam in TILTS:
            assert_top(family.value(lam), family.matrix(lam))
        assert flags == ([True] * len(TILTS) if iterative else [])

    def test_warm_start_orthogonal_to_top(self, generic_setup, monkeypatch):
        monkeypatch.setattr(deviation, "LANCZOS_MIN_SIZE", 0)
        flags = record_convergence(monkeypatch)
        family = TiltedFamily(generic_setup)
        b = family.matrix(TILTS[1])
        w, v = np.linalg.eigh(b)
        # Started exactly on the second eigenvector, Lanczos stays there.
        assert abs(top_eigenpair(b, v[:, -2])[0] - w[-2]) <= 1e-10
        family._warm = v[:, -2].copy()
        assert_top(family.value(TILTS[1]), b)
        assert flags == [True]

    @pytest.mark.parametrize("split", [1e-9, 1e-6])
    def test_nearly_degenerate_top_pair(self, generic_setup, split, monkeypatch):
        monkeypatch.setattr(deviation, "LANCZOS_MIN_SIZE", 0)
        family = TiltedFamily(generic_setup)
        b = family.matrix(TILTS[1])
        w, v = np.linalg.eigh(b)
        b = b + (w[-1] - w[-2] - split) * np.outer(v[:, -2], v[:, -2].conj())
        monkeypatch.setattr(family, "matrix", lambda lam: b)
        for _ in range(2):  # a cold start, then warm from the first top vector
            assert_top(family.value(TILTS[1]), b)

    def test_wrong_iterative_value_fails_the_bound(self, mixed_setup, monkeypatch):
        exact = TiltedFamily.value
        monkeypatch.setattr(TiltedFamily, "value", lambda self, lam: exact(self, lam) + 1e-6)
        with pytest.raises(NumericalError, match="dense eigh"):
            main_bound(mixed_setup, mixed_setup.ctx.sigma, [0.2, 0.1])
