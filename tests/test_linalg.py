import numpy as np
import pytest
import scipy.integrate

from conftest import SX, SZ, random_faithful, random_hermitian
from qdev import linalg
from qdev.linalg import (
    DensityOperator,
    DimensionMismatchError,
    FaithfulState,
    HermitianOperator,
    NotFaithfulError,
    NotHermitianError,
    SuperOperator,
    ValidationError,
    gamma_map,
    gram_superoperator,
    hermitian_from_params,
    hermitian_to_params,
    inner_product,
    left_right_matrix,
    left_right_sum_matrix,
    spectral_transform,
    spectral_transform_matrix,
    to_superoperator,
    top_eigenpair,
    unvec,
    vec,
)


class TestValidation:
    def test_hermitian_operator_symmetrizes(self):
        op = HermitianOperator(np.array([[1.0, 0.5 + 1e-12j], [0.5 - 1e-12j, 2.0]]))
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) == 0.0

    def test_hermitian_rejects_asymmetric(self):
        with pytest.raises(NotHermitianError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_density_trace_enforced(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([0.6, 0.6]).astype(complex))

    def test_density_clips_small_negatives(self):
        rho = DensityOperator(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
        assert np.linalg.eigvalsh(rho.matrix)[0] >= 0.0

    def test_density_rejects_large_negatives(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.1, -0.1]).astype(complex))

    def test_faithful_threshold(self):
        with pytest.raises(NotFaithfulError):
            FaithfulState(np.diag([1.0, 0.0]).astype(complex))

    def test_faithful_power_roundtrip(self, rng):
        st = random_faithful(rng, 4)
        assert np.allclose(st.power(0.5) @ st.power(0.5), st.matrix, atol=1e-12)
        assert np.allclose(st.power(1.0) @ st.power(-1.0), np.eye(4), atol=1e-10)


class TestInnerProducts:
    def test_kms_identity_is_one(self, rng):
        st = random_faithful(rng, 3)
        eye = np.eye(3, dtype=complex)
        assert inner_product("KMS", st, eye, eye) == pytest.approx(1.0, abs=1e-12)

    def test_gns_pauli_z(self):
        st = FaithfulState(np.diag([0.5, 0.5]).astype(complex))
        assert inner_product("GNS", st, SZ, SZ) == pytest.approx(1.0, abs=1e-14)

    def test_bkm_matrix_unit_against_quadrature(self):
        s = np.array([0.7, 0.3])
        st = FaithfulState(np.diag(s).astype(complex))
        x = np.zeros((2, 2), dtype=complex)
        x[0, 1] = 1.0
        analytic = (s[0] - s[1]) / (np.log(s[0]) - np.log(s[1]))
        quad, _ = scipy.integrate.quad(
            lambda t: np.trace(
                np.diag(s**(1 - t)) @ x.conj().T @ np.diag(s**t) @ x).real, 0.0, 1.0)
        value = inner_product("BKM", st, x, x)
        assert value.real == pytest.approx(analytic, abs=1e-12)
        assert value.real == pytest.approx(quad, abs=1e-10)

    @pytest.mark.parametrize("kind", ["GNS", "KMS", "BKM"])
    def test_positive_definite_on_random(self, kind, rng):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            st = random_faithful(rng, d)
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert inner_product(kind, st, x, x).real > 0.0

    @pytest.mark.parametrize("kind", ["GNS", "KMS", "BKM"])
    def test_conjugate_symmetry(self, kind, rng):
        st = random_faithful(rng, 3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert inner_product(kind, st, x, y) == pytest.approx(
            np.conj(inner_product(kind, st, y, x)), abs=1e-12)

    @pytest.mark.parametrize("kind", ["GNS", "KMS", "BKM"])
    def test_gram_superoperator_reproduces_inner_product(self, kind, rng):
        st = random_faithful(rng, 3)
        g = gram_superoperator(kind, st).matrix
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        via_gram = np.vdot(vec(x), g @ vec(y))
        assert via_gram == pytest.approx(inner_product(kind, st, x, y), abs=1e-12)

    def test_dimension_mismatch(self, rng):
        st = random_faithful(rng, 2)
        with pytest.raises(DimensionMismatchError):
            inner_product("KMS", st, np.eye(3), np.eye(3))


class TestSpectralTransforms:
    def test_delta_identity_on_commutant(self, rng):
        st = random_faithful(rng, 3)
        x = st.from_eigenbasis(np.diag(rng.normal(size=3)).astype(complex))
        assert np.allclose(spectral_transform("delta_power", st, x, power=1.0), x, atol=1e-12)

    def test_tanh_log_quarter_kills_diagonal(self, rng):
        st = FaithfulState(np.diag([0.6, 0.4]).astype(complex))
        x = np.diag([1.3, -0.2]).astype(complex)
        assert np.max(np.abs(spectral_transform("tanh_log_quarter", st, x))) == 0.0

    def test_bkm_pair_inverts(self, rng):
        st = random_faithful(rng, 4)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        y = spectral_transform("bkm_M_inverse", st, spectral_transform("bkm_M", st, x))
        assert np.max(np.abs(y - x)) < 1e-10

    def test_delta_powers_invert(self, rng):
        st = random_faithful(rng, 3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for p in (0.5, 1.0, 2.0):
            y = spectral_transform("delta_power", st,
                                   spectral_transform("delta_power", st, x, power=p), power=-p)
            assert np.max(np.abs(y - x)) < 1e-10

    def test_matrix_form_matches_callable(self, rng):
        st = random_faithful(rng, 3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for kind in ("bkm_M", "bkm_M_inverse", "tanh_log_quarter"):
            m = spectral_transform_matrix(kind, st)
            assert np.allclose(unvec(m @ vec(x)), spectral_transform(kind, st, x), atol=1e-11)

    def test_unknown_kind(self, rng):
        with pytest.raises(ValidationError):
            spectral_transform("nope", random_faithful(rng, 2), np.eye(2))


class TestGammaMap:
    def test_power_one_of_identity(self, rng):
        st = random_faithful(rng, 3)
        assert np.allclose(gamma_map(1.0, st, np.eye(3)), st.matrix, atol=1e-13)

    def test_inverse_of_sigma(self, rng):
        st = random_faithful(rng, 3)
        assert np.allclose(gamma_map(-1.0, st, st.matrix), np.eye(3), atol=1e-11)

    def test_half_composes_to_one(self, rng):
        st = random_faithful(rng, 3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        twice = gamma_map(0.5, st, gamma_map(0.5, st, x))
        assert np.max(np.abs(twice - gamma_map(1.0, st, x))) < 1e-12

    def test_trace_pairs_with_kms(self, rng):
        st = random_faithful(rng, 3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.trace(gamma_map(1.0, st, x)) == pytest.approx(
            inner_product("KMS", st, np.eye(3), x), abs=1e-12)


class TestSuperOperators:
    def test_vec_convention(self):
        d = 3
        unit = np.zeros((d, d), dtype=complex)
        unit[1, 2] = 1.0
        v = vec(unit)
        assert v[2 * d + 1] == 1.0 and np.count_nonzero(v) == 1

    def test_identity_map(self):
        s = to_superoperator(lambda x: x, 2)
        assert np.allclose(s.matrix, np.eye(4))

    def test_pauli_x_conjugation(self):
        s = SuperOperator(left_right_matrix(SX, SX))
        out = s.apply(np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(out, np.diag([0.0, 1.0]))

    def test_composition_is_matrix_product(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sa = SuperOperator(left_right_matrix(a, a.conj().T))
        sb = SuperOperator(left_right_matrix(b, b.conj().T))
        x = random_hermitian(rng, 2)
        assert np.allclose(sa.compose(sb).apply(x), sa.apply(sb.apply(x)), atol=1e-12)

    def test_roundtrip_on_matrix_units(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s = to_superoperator(lambda x: a @ x @ b, 3)
        for i in range(3):
            for j in range(3):
                unit = np.zeros((3, 3), dtype=complex)
                unit[i, j] = 1.0
                assert np.max(np.abs(s.apply(unit) - a @ unit @ b)) < 1e-12

    def test_dimension_guard(self):
        s = SuperOperator(np.eye(4, dtype=complex))
        with pytest.raises(DimensionMismatchError):
            s.apply(np.eye(3))

    @pytest.mark.parametrize("d,k", [(1, 1), (1, 3), (3, 1), (3, 5), (4, 16)])
    def test_left_right_sum_matches_kron_loop(self, d, k, rng):
        lefts = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        rights = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        loop = sum(left_right_matrix(a, b) for a, b in zip(lefts, rights))
        assert np.max(np.abs(left_right_sum_matrix(lefts, rights) - loop)) <= 1e-13 * max(1, k)

    def test_left_right_sum_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            left_right_sum_matrix(np.zeros((2, 3, 3)), np.zeros((1, 3, 3)))


class TestTopEigenpair:
    def test_converges_to_top(self, rng):
        a = random_hermitian(rng, 30)
        w = np.linalg.eigvalsh(a)
        theta, y, converged = top_eigenpair(a, rng.normal(size=30) + 0j)
        assert converged
        assert abs(theta - w[-1]) <= 1e-12 * max(1.0, abs(w[-1]))
        assert np.linalg.norm(a @ y - theta * y) <= 1e-10

    def test_step_budget_reports_not_converged(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "LANCZOS_MAX_STEPS", 2)
        a = random_hermitian(rng, 30)
        theta, y, converged = top_eigenpair(a, rng.normal(size=30) + 0j)
        assert not converged
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
        assert theta <= np.linalg.eigvalsh(a)[-1] + 1e-12


class TestHermitianCodec:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_roundtrip(self, d, rng):
        x = random_hermitian(rng, d)
        params = hermitian_to_params(x)
        assert params.shape == (d * d,) and params.dtype == float
        assert np.array_equal(hermitian_from_params(params, d), x)
        p = rng.normal(size=d * d)
        assert np.array_equal(hermitian_to_params(hermitian_from_params(p, d)), p)

    def test_layout(self):
        # diagonal, then real parts, then imaginary parts of the upper triangle
        x = hermitian_from_params(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert np.array_equal(x, np.array([[1.0, 3.0 + 4.0j], [3.0 - 4.0j, 2.0]]))
