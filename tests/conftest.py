import numpy as np
import pytest

from qdev.linalg import FaithfulState, SuperOperator, hermitian_part
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


def left_right_matrix(a, b):
    """Matrix of X -> A X B in the column-stacking convention, kron(B.T, A):
    the Kronecker-product reference for the library's superoperator builders."""
    return np.kron(np.asarray(b, dtype=complex).T, np.asarray(a, dtype=complex))


def superoperator_in_basis(m, u):
    """K^dagger M K for K = kron(conj(U), U), out of place: four products of
    the (d, d^3) leading-index view, transposed, with a d x d factor, each
    moving the new index to the back. The reference for the library's
    in-place rotate_superoperator."""
    d = u.shape[0]
    x = np.asarray(m, dtype=complex)
    for factor in (u, u.conj(), u.conj(), u):
        x = x.reshape(d, -1).T @ factor
    return x.reshape(d * d, d * d)


# Gauss-Legendre nodes for the BKM integral over [0, 1]. In sigma's
# eigenbasis the integrand is s_j exp(t ln(s_i/s_j)); 30 nodes integrate it
# to its rounding floor (about |ln(s_i/s_j)| eps) for |ln(s_i/s_j)| up to
# 80, beyond the 28 that faithful states (s > 1e-12) can reach.
BKM_QUADRATURE_NODES = 30


def gram_superoperator(kind, st):
    """Dense Gram map of an inner product, <X, Y> = vec(X)^dagger G vec(Y),
    from the defining formula with Kronecker products: the reference
    against which the eigenbasis calculus is tested. BKM is the integral
    over t in [0, 1] of X -> sigma^t X sigma^(1-t), by Gauss-Legendre
    quadrature, so it does not read the divided differences it checks."""
    if kind == "GNS":
        return SuperOperator(left_right_matrix(np.eye(st.dim), st.matrix))
    if kind == "KMS":
        r = st.power(0.5)
        return SuperOperator(left_right_matrix(r, r))
    nodes, weights = np.polynomial.legendre.leggauss(BKM_QUADRATURE_NODES)
    g = sum(0.5 * w * left_right_matrix(st.power(t), st.power(1.0 - t))
            for t, w in zip(0.5 * (nodes + 1.0), weights))
    return SuperOperator(g)


def kron_counterexample_channels(v1, v2, p):
    """Heisenberg matrices (phi, psi, psi_tilde, p_channel) of the
    counterexample family, built with Kronecker products and dense Gram
    maps: phi = sum_k K_k* . K_k, psi = G_KMS^(-1) phi^dagger G_KMS phi and
    psi_tilde = G_BKM^(-1) psi^dagger G_KMS. The reference for
    models.counterexample_channels."""
    v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    a, b = v2[0] ** 2, v1[1] ** 2
    k1 = np.outer(v1, [1.0, 0.0])
    k2 = np.outer(v2, [0.0, 1.0])
    phi = left_right_matrix(k1.T, k1) + left_right_matrix(k2.T, k2)
    sigma = FaithfulState((a * np.outer(v1, v1) + b * np.outer(v2, v2)) / (a + b))
    kms = gram_superoperator("KMS", sigma).matrix
    psi = np.linalg.solve(kms, phi.conj().T @ kms) @ phi
    psi_tilde = np.linalg.solve(gram_superoperator("BKM", sigma).matrix, psi.conj().T @ kms)
    pk1 = np.diag([np.sqrt(p), np.sqrt(1 - p)])
    pk2 = np.array([[0.0, np.sqrt(p)], [np.sqrt(1 - p), 0.0]])
    p_channel = left_right_matrix(pk1.T, pk1) + left_right_matrix(pk2.T, pk2)
    return phi, psi, psi_tilde, p_channel


def dense_kms_conjugated(st, m):
    """G^(1/2) M G^(-1/2) with the dense KMS half-Grams, in the original
    basis: the reference for GeneratorContext.kms_conjugated."""
    return left_right_matrix(st.power(0.25), st.power(0.25)) @ m @ left_right_matrix(
        st.power(-0.25), st.power(-0.25))


def modular_frequencies_one_shot(st, jumps):
    """Bohr frequencies of a (k, d, d) jump stack from one pass over the
    whole stack: the reference for the chunked lindblad._modular_frequencies."""
    u = st.eigenvectors
    s = st.eigenvalues
    le = u.conj().T @ jumps @ u
    image = le * (s[:, None] / s[None, :])
    norm2 = np.sum(np.abs(le) ** 2, axis=(1, 2))
    live = norm2 >= 1e-28
    le, image = le[live], image[live]
    c = np.einsum("kij,kij->k", le.conj(), image) / norm2[live]
    residual = (np.linalg.norm(image - c[:, None, None] * le, axis=(1, 2))
                / np.linalg.norm(image, axis=(1, 2)))
    if np.any((residual > 1e-8) | (c.real <= 0) | (np.abs(c.imag) > 1e-8 * np.abs(c))):
        return None
    omegas = np.zeros(len(jumps))
    omegas[live] = -np.log(c.real)
    return [float(w) for w in omegas]


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
