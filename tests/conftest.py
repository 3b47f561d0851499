import numpy as np
import pytest

from qdev.linalg import (
    FaithfulState,
    SuperOperator,
    hermitian_part,
    left_right_matrix,
    spectral_transform_matrix,
)
from qdev.lindblad import Lindbladian, stationary_state
from qdev.models import depolarizing, maximally_mixed

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return hermitian_part(a)


def random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_faithful(rng, d):
    return FaithfulState(random_state(rng, d))


def gram_superoperator(kind, st):
    """Dense Gram map of an inner product, <X, Y> = vec(X)^dagger G vec(Y):
    the reference against which the eigenbasis calculus is tested."""
    if kind == "GNS":
        return SuperOperator(left_right_matrix(np.eye(st.dim), st.matrix))
    if kind == "KMS":
        r = st.power(0.5)
        return SuperOperator(left_right_matrix(r, r))
    return SuperOperator(spectral_transform_matrix("bkm_M", st))


def dense_kms_conjugated(st, m):
    """G^(1/2) M G^(-1/2) with the dense KMS half-Grams, in the original
    basis: the reference for GeneratorContext.kms_conjugated."""
    return left_right_matrix(st.power(0.25), st.power(0.25)) @ m @ left_right_matrix(
        st.power(-0.25), st.power(-0.25))


def scalar_lindblad(c):
    return Lindbladian(np.zeros((1, 1)), [np.array([[c]], dtype=complex)])


def aligned_thermal_qubit(s0=0.7, gamma=0.6 + 0.3j, d0=0.4, d1=-0.2):
    """Jump satisfying sigma^(1/2) L* sigma^(-1/2) = L for sigma = diag(s0, 1-s0).

    Mixes a diagonal part with the off-diagonal aligned pair so that
    sum L* L has off-diagonal entries and the canonical Hamiltonian is
    nonzero.
    """
    s1 = 1.0 - s0
    l = np.array([[d0, gamma], [np.conj(gamma) * np.sqrt(s1 / s0), d1]], dtype=complex)
    sigma = np.diag([s0, s1]).astype(complex)
    return sigma, l


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def qubit_depolarizing():
    return stationary_state(depolarizing(maximally_mixed(2)))


@pytest.fixture(scope="session")
def qutrit_depolarizing():
    return stationary_state(depolarizing(maximally_mixed(3)))
