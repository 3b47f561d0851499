import math

import numpy as np
import pytest
import scipy.integrate

from conftest import (
    SX,
    SZ,
    apply_superoperator,
    gram_superoperator,
    left_right_matrix,
    random_faithful,
    random_hermitian,
    superoperator_in_basis,
    tanh_log_quarter,
    to_superoperator,
)
from qdev import linalg
from qdev.linalg import (
    DimensionMismatchError,
    FaithfulState,
    NotFaithfulError,
    NotHermitianError,
    ValidationError,
    add_left_right_pair,
    density_matrix,
    gram_weights,
    hermitian_coordinates,
    hermitian_from_coordinates,
    hermitian_part,
    hermitianize,
    inner_product,
    left_right_sum_matrix,
    rotate_superoperator,
    spectral_transform,
    top_eigenpair,
    unvec,
    vec,
)


class TestValidation:
    def test_hermitian_rejects_asymmetric(self):
        with pytest.raises(NotHermitianError):
            density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]), "rho")

    def test_density_trace_enforced(self):
        with pytest.raises(ValidationError):
            density_matrix(np.diag([0.6, 0.6]).astype(complex), "rho")

    def test_density_clips_small_negatives(self):
        rho = density_matrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex), "rho")
        assert np.linalg.eigvalsh(rho)[0] >= 0.0

    def test_density_rejects_large_negatives(self):
        with pytest.raises(ValidationError):
            density_matrix(np.diag([1.1, -0.1]).astype(complex), "rho")

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
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_gram_superoperator_reproduces_inner_product(self, kind, d):
        rng = np.random.default_rng(600 + d)
        st = random_faithful(rng, d)
        g = gram_superoperator(kind, st)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        via_gram = np.vdot(vec(x), g @ vec(y))
        assert via_gram == pytest.approx(inner_product(kind, st, x, y), abs=1e-12)

    def test_dimension_mismatch(self, rng):
        st = random_faithful(rng, 2)
        with pytest.raises(DimensionMismatchError):
            inner_product("KMS", st, np.eye(3), np.eye(3))

    @pytest.mark.parametrize("kind", ["GNS", "KMS", "BKM"])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_gram_weights_diagonalize_dense_gram(self, kind, d):
        st = random_faithful(np.random.default_rng(d), d)
        u = st.eigenvectors
        k = np.kron(u.conj(), u)
        rotated = k.conj().T @ gram_superoperator(kind, st) @ k
        assert np.max(np.abs(rotated - np.diag(gram_weights(kind, st)))) < 1e-13


class TestSuperoperatorInBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_matches_dense_conjugation_and_inverts(self, d):
        rng = np.random.default_rng(d)
        m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        u = random_faithful(rng, d).eigenvectors
        k = np.kron(u.conj(), u)
        rotated = rotate_superoperator(m.copy(), u)
        assert np.max(np.abs(rotated - k.conj().T @ m @ k)) < 1e-13 * d * d
        assert np.max(np.abs(rotate_superoperator(rotated.copy(), u.conj().T) - m)) < 1e-13 * d * d

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_in_place_matches_out_of_place_both_ways(self, d):
        rng = np.random.default_rng(10 + d)
        m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        u = random_faithful(rng, d).eigenvectors
        for factor in (u, u.conj().T):
            work = m.copy()
            assert rotate_superoperator(work, factor) is work
            assert np.max(np.abs(work - superoperator_in_basis(m, factor))) <= 1e-14 * d * d

    def test_acts_on_rotated_matrices(self):
        rng = np.random.default_rng(3)
        d = 3
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u = random_faithful(rng, d).eigenvectors
        x_u = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rotated = rotate_superoperator(left_right_matrix(a, b), u)
        image = u.conj().T @ (a @ (u @ x_u @ u.conj().T) @ b) @ u
        assert np.max(np.abs(unvec(rotated @ vec(x_u)) - image)) < 1e-12


class TestSpectralTransforms:
    def test_delta_identity_on_commutant(self, rng):
        st = random_faithful(rng, 3)
        x = st.from_eigenbasis(np.diag(rng.normal(size=3)).astype(complex))
        assert np.allclose(spectral_transform(st, x, 1.0), x, atol=1e-12)

    def test_tanh_log_quarter_kills_diagonal(self, rng):
        st = FaithfulState(np.diag([0.6, 0.4]).astype(complex))
        x = np.diag([1.3, -0.2]).astype(complex)
        assert np.max(np.abs(tanh_log_quarter(st, x))) == 0.0

    def test_delta_powers_invert(self, rng):
        st = random_faithful(rng, 3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for p in (0.5, 1.0, 2.0):
            y = spectral_transform(st, spectral_transform(st, x, p), -p)
            assert np.max(np.abs(y - x)) < 1e-10


class TestSuperOperators:
    def test_vec_convention(self):
        d = 3
        unit = np.zeros((d, d), dtype=complex)
        unit[1, 2] = 1.0
        v = vec(unit)
        assert v[2 * d + 1] == 1.0 and np.count_nonzero(v) == 1

    def test_identity_map(self):
        s = to_superoperator(lambda x: x, 2)
        assert np.allclose(s, np.eye(4))

    def test_pauli_x_conjugation(self):
        s = left_right_matrix(SX, SX)
        out = apply_superoperator(s, np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(out, np.diag([0.0, 1.0]))

    def test_roundtrip_on_matrix_units(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s = to_superoperator(lambda x: a @ x @ b, 3)
        for i in range(3):
            for j in range(3):
                unit = np.zeros((3, 3), dtype=complex)
                unit[i, j] = 1.0
                assert np.max(np.abs(apply_superoperator(s, unit) - a @ unit @ b)) < 1e-12

    @pytest.mark.parametrize("d,k", [(1, 1), (1, 3), (3, 1), (3, 5), (4, 16)])
    def test_left_right_sum_matches_kron_loop(self, d, k, rng):
        lefts = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        rights = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        loop = sum(left_right_matrix(a, b) for a, b in zip(lefts, rights))
        assert np.max(np.abs(left_right_sum_matrix(lefts, rights) - loop)) <= 1e-13 * max(1, k)

    def test_left_right_sum_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            left_right_sum_matrix(np.zeros((2, 3, 3)), np.zeros((1, 3, 3)))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_left_right_pair_equals_kron_sum(self, d, rng):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        eye = np.eye(d)
        m = np.zeros((d * d, d * d), dtype=complex)
        assert add_left_right_pair(m, a, b) is m
        assert np.array_equal(m, left_right_matrix(a, eye) + left_right_matrix(eye, b))

    def test_left_right_pair_adds_in_place_with_given_diagonal(self, rng):
        d = 3
        a, b, base = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in (d, d, d * d))
        diagonal = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = add_left_right_pair(base.copy(), a, b, diagonal)
        expected = base + left_right_matrix(a, np.eye(d)) + left_right_matrix(np.eye(d), b)
        np.fill_diagonal(expected, base.diagonal() + diagonal.ravel())
        assert np.max(np.abs(m - expected)) <= 1e-14


class TestHermitianize:
    @pytest.mark.parametrize("n", [1, 5, linalg.HERMITIANIZE_BLOCK, 2 * linalg.HERMITIANIZE_BLOCK + 3])
    def test_equals_hermitian_part_in_place(self, n, rng):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        expected = hermitian_part(a)
        out = hermitianize(a)
        assert out is a
        assert np.array_equal(a, expected)


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
        # off-diagonal entries are rounded through sqrt(1/2) twice
        x = random_hermitian(rng, d)
        c = hermitian_coordinates(x)
        assert c.shape == (d * d,) and c.dtype == float
        back = hermitian_from_coordinates(c)
        assert np.array_equal(back, back.conj().T)
        assert np.max(np.abs(back - x)) <= 1e-15 * max(1.0, np.max(np.abs(x)))
        p = rng.normal(size=d * d)
        again = hermitian_coordinates(hermitian_from_coordinates(p))
        assert np.max(np.abs(again - p)) <= 1e-15 * max(1.0, np.max(np.abs(p)))

    @pytest.mark.parametrize("d", [1, 3, 4])
    def test_stacks_match_single_matrices(self, d, rng):
        xs = np.array([random_hermitian(rng, d) for _ in range(4)])
        c = hermitian_coordinates(xs)
        assert c.shape == (4, d * d)
        assert np.array_equal(c, np.array([hermitian_coordinates(x) for x in xs]))
        back = hermitian_from_coordinates(c)
        assert np.array_equal(back, np.array([hermitian_from_coordinates(row) for row in c]))
        assert np.array_equal(back, back.conj().swapaxes(1, 2))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_isometry(self, d, rng):
        # Tr[X Y] = c(X) . c(Y): the basis is orthonormal
        x, y = random_hermitian(rng, d), random_hermitian(rng, d)
        cx, cy = hermitian_coordinates(x), hermitian_coordinates(y)
        assert cx @ cy == pytest.approx(np.trace(x @ y).real, rel=1e-13, abs=1e-13)
        assert np.linalg.norm(cx) == pytest.approx(np.linalg.norm(x), rel=1e-14)
        assert cx[:d].sum() == pytest.approx(np.trace(x).real, rel=1e-14, abs=1e-14)
        # a matrix that is not Hermitian has the coordinates of its Hermitian part
        a = x + 1j * y + rng.normal(size=(d, d))
        assert np.max(np.abs(hermitian_coordinates(a) - hermitian_coordinates(hermitian_part(a)))) <= 1e-14

    def test_layout(self):
        # e_aa, then (e_ab + e_ba)/sqrt(2), then i (e_ab - e_ba)/sqrt(2), a < b row-major
        r = math.sqrt(0.5)
        x = hermitian_from_coordinates(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(x, [[1.0, (3.0 + 4.0j) * r], [(3.0 - 4.0j) * r, 2.0]], rtol=0, atol=1e-15)
        c = np.arange(1.0, 10.0)
        x = hermitian_from_coordinates(c)
        assert np.array_equal(np.diag(x).real, [1.0, 2.0, 3.0])
        assert np.allclose([x[0, 1], x[0, 2], x[1, 2]], (c[3:6] + 1j * c[6:]) * r, rtol=0, atol=1e-15)
