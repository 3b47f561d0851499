import base64
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from qdev.deviation import MeasurementSetup, mean_vector
from qdev.inequalities import LipschitzContext, spectral_gap, tilde_observable
from qdev.linalg import (
    DimensionMismatchError,
    FaithfulState,
    ValidationError,
    add_left_right_pair,
    as_complex_matrix,
    density_matrix,
    dual_in_eigenbasis,
    hermitian_coordinates,
    hermitian_from_coordinates,
    hermitian_part,
    inner_product,
    left_right_sum_matrix,
    require_hermitian,
    rotate_superoperator,
    spectral_transform,
    unvec,
    vec,
)
from qdev.lindblad import GeneratorContext, Lindbladian, dirichlet_form, stationary_state
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
        return left_right_matrix(np.eye(st.dim), st.matrix)
    if kind == "KMS":
        r = st.power(0.5)
        return left_right_matrix(r, r)
    nodes, weights = np.polynomial.legendre.leggauss(BKM_QUADRATURE_NODES)
    return sum(0.5 * w * left_right_matrix(st.power(t), st.power(1.0 - t))
               for t, w in zip(0.5 * (nodes + 1.0), weights))


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
    kms = gram_superoperator("KMS", sigma)
    psi = np.linalg.solve(kms, phi.conj().T @ kms) @ phi
    psi_tilde = np.linalg.solve(gram_superoperator("BKM", sigma), psi.conj().T @ kms)
    pk1 = np.diag([np.sqrt(p), np.sqrt(1 - p)])
    pk2 = np.array([[0.0, np.sqrt(p)], [np.sqrt(1 - p), 0.0]])
    p_channel = left_right_matrix(pk1.T, pk1) + left_right_matrix(pk2.T, pk2)
    return phi, psi, psi_tilde, p_channel


def dense_kms_conjugated(st, m):
    """G^(1/2) M G^(-1/2) with the dense KMS half-Grams, in the original
    basis: its Hermitian part is the reference for
    GeneratorContext.kms_hermitian_part."""
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


# ---------------------------------------------------------------------------
# References and fixture builders that no CLI verb reaches: the tests check
# the library against them, or build their cases with them.
# ---------------------------------------------------------------------------

def heisenberg_action(lind, x):
    """L(X) = i[H, X] + sum_j L_j* X L_j - {K, X}/2, K = sum_j L_j* L_j, from
    the jump form: the Heisenberg-picture reference for the assembled
    generator."""
    x = as_complex_matrix(x, "X")
    h = lind.hamiltonian
    kappa = sum((l.conj().T @ l for l in lind.jumps), np.zeros((lind.dim, lind.dim), dtype=complex))
    out = 1j * (h @ x - x @ h)
    out -= 0.5 * (kappa @ x + x @ kappa)
    for l in lind.jumps:
        out += l.conj().T @ x @ l
    return out


def schrodinger_action(lind, rho):
    """L*(rho) = -i[H, rho] + sum_j L_j rho L_j* - {K, rho}/2, K = sum_j L_j* L_j,
    from the jump form: the Schrodinger-picture reference."""
    rho = as_complex_matrix(rho, "rho")
    h = lind.hamiltonian
    kappa = sum((l.conj().T @ l for l in lind.jumps), np.zeros((lind.dim, lind.dim), dtype=complex))
    out = -1j * (h @ rho - rho @ h)
    out -= 0.5 * (kappa @ rho + rho @ kappa)
    for l in lind.jumps:
        out += l @ rho @ l.conj().T
    return out


def apply_superoperator(m, x):
    """The image of the dim x dim matrix X under the superoperator whose
    dim^2 x dim^2 matrix is M: unvec(M vec(X))."""
    x = as_complex_matrix(x, "X")
    return unvec(m @ vec(x), x.shape[0])


def to_superoperator(mapping, dim):
    """Matrix of a map given as a callable on dim x dim matrices: column
    j*dim + i is the vectorized image of the matrix unit |i><j|."""
    m = np.zeros((dim * dim, dim * dim), dtype=complex)
    unit = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        for i in range(dim):
            unit[i, j] = 1.0
            m[:, j * dim + i] = vec(np.asarray(mapping(unit), dtype=complex))
            unit[i, j] = 0.0
    return m


def dual_superoperator(kind, ctx, superop):
    """Adjoint G^(-1) S^dagger G of a superoperator for the inner product
    of the given kind, formed in sigma's eigenbasis and rotated back."""
    st = ctx.require_faithful()
    dual = dual_in_eigenbasis(kind, kind, st, ctx.to_eigenbasis(superop))
    return rotate_superoperator(dual, st.eigenvectors.conj().T)


def write_channel_model(path, channel, template=None):
    """A model file of kind channel_difference for the unital channel Psi
    (generator Psi - id), written as save_model wrote that kind before it
    was decoded to jumps at load: the channel matrix packed as base64 of its
    little-endian complex128 entries."""
    ch = np.ascontiguousarray(channel, dtype="<c16")
    doc = {"kind": "channel_difference", "dim": math.isqrt(ch.shape[0]),
           "channel": base64.b64encode(ch.tobytes()).decode("ascii")}
    if template:
        doc["template"] = template
    Path(path).write_text(json.dumps(doc))


def site_channels(lind, n_sites):
    """Heisenberg-picture Psi_v(X) = sum_K K^dagger X K of each site of an
    n_sites heat-bath generator, from its site-major jump stack."""
    per_site = lind.jumps.reshape(n_sites, -1, lind.dim, lind.dim)
    return [left_right_sum_matrix(k.conj().transpose(0, 2, 1), k) for k in per_site]


def f_statistics(setup, x):
    """KMS-symmetrized channel statistics of an observable X: Re <X, map(X)>_KMS
    with Phi_u(X) = L_u* X + X L_u per Brownian channel and Psi_u(X) =
    L_u* X L_u per Poisson channel (nonnegative on X >= 0)."""
    st = setup.ctx.require_faithful()
    x = as_complex_matrix(x, "X")
    out = np.empty(setup.ell)
    for j, l in enumerate(setup.monitored):
        if setup.brownian[j]:
            image = l.conj().T @ x + x @ l
        else:
            image = l.conj().T @ x @ l
        out[j] = inner_product("KMS", st, x, image).real
    return out


# Largest dimension direct_variational_crosscheck accepts.
CROSSCHECK_MAX_DIM = 3


def _one_sided_gaussian(p, f):
    gap = p - f
    return 0.5 * gap * gap if gap > 0 else 0.0


def _one_sided_poisson(p, f):
    f = max(f, 0.0)
    if p <= f:
        return 0.0
    if f == 0.0:
        return math.inf
    return p * math.log(p / f) - p + f


def direct_variational_crosscheck(setup, r):
    """The bound exponent by direct minimization over observables: the
    oracle for main_bound (acceptance criterion 3).

    Minimizes, over positive semidefinite X with unit KMS norm, the closed
    form E(X) + sum_B [(m+r-f^B(X))_+]^2/2 + sum_P Dplus(m+r || f^P(X)),
    where the per-channel terms are the exact lam >= 0 suprema for fixed X.
    One L-BFGS-B run (finite-difference gradient) from the identity; the
    lam-domain optimizer never runs here. Dimensions up to
    CROSSCHECK_MAX_DIM only.
    """
    ctx = setup.ctx
    st = ctx.require_faithful()
    d = ctx.dim
    if d > CROSSCHECK_MAX_DIM:
        raise ValidationError(f"dimension {d} exceeds the cross-check guard {CROSSCHECK_MAX_DIM}")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    target = mean_vector(setup) + r

    def objective(params):
        with np.errstate(over="ignore", invalid="ignore"):
            y = hermitian_from_coordinates(params)
            x = y @ y
            norm = np.sqrt(max(inner_product("KMS", st, x, x).real, 0.0))
        if not np.isfinite(norm) or norm < 1e-12:
            return 1e6
        x = x / norm
        total = dirichlet_form(ctx, x)
        f = f_statistics(setup, x)
        for j in range(setup.ell):
            if setup.brownian[j]:
                total += _one_sided_gaussian(target[j], f[j])
            else:
                contrib = _one_sided_poisson(target[j], f[j])
                if math.isinf(contrib):
                    return 1e6
                total += contrib
        return total

    # X = Y^2, and Y = I is the square root of the start X = I.
    res = scipy.optimize.minimize(objective, hermitian_coordinates(np.eye(d)), method="L-BFGS-B",
                                  options={"ftol": 1e-15, "gtol": 1e-10})
    return float(res.fun)


ALIGNMENT_TOL = 1e-8


def tanh_log_quarter(st, x):
    """X with entry (i, j) in sigma's eigenbasis scaled by tanh(ln(s_i/s_j)/4);
    diagonal entries (s_i == s_j) map to tanh(0) = 0."""
    log_s = np.log(st.eigenvalues)
    return st.from_eigenbasis(np.tanh(0.25 * (log_s[:, None] - log_s[None, :])) * st.to_eigenbasis(x))


def kms_canonical_hamiltonian(ctx):
    """Canonical Hamiltonian of a KMS-aligned jump family:
    (i/2) int_0^inf exp(-t sigma^(1/2)) [sum L_j* L_j, sigma^(1/2)] exp(-t sigma^(1/2)) dt,
    which acts spectrally as the entrywise multiplier -tanh(ln(s_i/s_j)/4).

    Requires sigma^(1/2) L_j* sigma^(-1/2) = L_j per jump; checked before
    evaluating. With this H the assembled generator is KMS-symmetric and
    fixes sigma: the builder of the thermal positive case for
    check_detailed_balance.
    """
    st = ctx.require_faithful()
    lind = ctx.lindbladian
    for i, l in enumerate(lind.jumps):
        aligned = spectral_transform(st, l.conj().T, 0.5)
        scale = max(float(np.linalg.norm(l)), 1e-300)
        if np.linalg.norm(aligned - l) / scale > ALIGNMENT_TOL:
            raise ValidationError(f"jump {i} violates the KMS alignment condition")
    kappa = sum((l.conj().T @ l for l in lind.jumps), np.zeros((lind.dim, lind.dim), dtype=complex))
    h = -0.5j * tanh_log_quarter(st, kappa)
    return require_hermitian(h, tol=1e-10, name="canonical Hamiltonian")


def fisher_information(ctx, rho):
    """Dirichlet form at X = sigma^(-1/4) sqrt(rho) sigma^(-1/4).

    rho is eigenvalue-clipped at zero before the square root; Monte Carlo
    states carry -1e-14-ish eigenvalues.
    """
    st = ctx.require_faithful()
    rho = require_hermitian(rho, tol=1e-8, name="rho")
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inv_quarter = st.power(-0.25)
    x = inv_quarter @ sqrt_rho @ inv_quarter
    return dirichlet_form(ctx, x)


GAP_ZERO_TOL = 1e-10


def verify_poincare_ti(ctx, rho):
    """Check the trace-norm transportation-information bound
    ||rho - sigma||_1^2 <= (4/gap) I(rho); returns (lhs, rhs, holds)."""
    st = ctx.require_faithful()
    rho = require_hermitian(rho, tol=1e-8, name="rho")
    gap = spectral_gap(ctx)
    if gap <= GAP_ZERO_TOL:
        raise ValidationError("generator has no spectral gap")
    lhs = float(np.sum(np.abs(np.linalg.eigvalsh(rho - st.matrix))) ** 2)
    rhs = 4.0 / gap * fisher_information(ctx, rho)
    return lhs, rhs, lhs <= rhs + 1e-9


def unit_derivations(ctx):
    """LipschitzContext of the generator's jumps, each of Frobenius norm above
    1e-15 rescaled to unit norm: the convention under which the depolarizing
    metric is generated by bare matrix units. Rescaling by positive
    constants leaves the Bohr frequencies untouched."""
    jumps = ctx.lindbladian.jumps
    norms = np.linalg.norm(jumps, axis=(1, 2))
    units = jumps / np.where(norms > 1e-15, norms, 1.0)[:, None, None]
    return LipschitzContext(ctx.require_faithful(), units, ctx.bohr)


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


# Held here until a verb needs them: the raw tilted generator (ROADMAP
# items 1 and 2), the entropy functionals (item 4) and alpha(u) of
# tensor-product models (items 10 and 13).

def _as_tilt(lam, ell: int) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (ell,):
        raise DimensionMismatchError(f"tilt vector must have shape ({ell},), got {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValidationError("tilt vector must be finite")
    return lam


def perturbed_generator(setup: MeasurementSetup, lam) -> np.ndarray:
    """The tilted generator L_lam as a new d^2 x d^2 Heisenberg matrix."""
    lam = _as_tilt(lam, setup.ell)
    m = setup.ctx.heisenberg.copy()
    for j, l in enumerate(setup.monitored):
        if setup.brownian[j]:
            add_left_right_pair(m, lam[j] * l.conj().T, lam[j] * l)
            m.reshape(-1)[::m.shape[0] + 1] += 0.5 * lam[j] ** 2
        else:
            m += left_right_sum_matrix([np.expm1(lam[j]) * l.conj().T], [l])
    return m


def _clipped_log(rho: np.ndarray) -> np.ndarray:
    """Support-restricted matrix logarithm of a PSD matrix."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    logs = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), 0.0)
    return (v * logs) @ v.conj().T


def entropy_functional(kind: str, ctx: GeneratorContext, argument) -> float:
    """Variance, L2 entropy, relative entropy, or entropy production.

    variance/ent2 take an observable X (ent2 requires X >= 0); the entropy
    kinds take a state rho, which density_matrix validates. All values are
    real; sigma must be faithful so the relative entropy is always finite.
    """
    st = ctx.require_faithful()
    a = as_complex_matrix(argument, "argument")
    if kind == "variance":
        mean = np.trace(st.matrix @ a)
        shifted = a - mean * np.eye(st.dim)
        return float(inner_product("KMS", st, shifted, shifted).real)
    if kind == "ent2":
        x = require_hermitian(a, tol=1e-8, name="X")
        quarter = st.power(0.25)
        gx = quarter @ x @ quarter
        rho_like = gx @ gx
        norm2 = float(np.trace(rho_like).real)
        if norm2 <= 0:
            return 0.0
        log_rho = _clipped_log(rho_like)
        log_sigma = _clipped_log(st.matrix)
        value = np.trace(rho_like @ (log_rho - log_sigma)).real - norm2 * math.log(norm2)
        return float(value)
    if kind == "relative_entropy":
        rho = density_matrix(a, "rho")
        log_sigma = _clipped_log(st.matrix)
        return float(np.trace(rho @ (_clipped_log(rho) - log_sigma)).real)
    if kind == "entropy_production":
        rho = density_matrix(a, "rho")
        log_sigma = _clipped_log(st.matrix)
        # L*(rho) = H^dagger vec(rho), the conjugate of vec(rho)^dagger H.
        lstar_rho = unvec((vec(rho).conj() @ ctx.heisenberg).conj(), st.dim)
        return float(-np.trace(lstar_rho @ (_clipped_log(rho) - log_sigma)).real)
    raise ValidationError(f"unknown entropy functional kind {kind!r}")


def tensor_alpha_u(contexts: list[GeneratorContext], u: np.ndarray) -> float:
    """Coupling constant alpha(u) of the tensorized concentration bound:
    2 |J| max_{k,j} e^{w_{k,j}/2} || sum_i u_{k,i} [L_{k,j}, O~_{k,i}] ||_inf^2
    over factors k and local jumps j."""
    n = len(contexts)
    sizes = [ctx.lindbladian.k for ctx in contexts]
    if len(set(sizes)) != 1:
        raise ValidationError("factors must share the local jump count")
    j_count = sizes[0]
    u = np.asarray(u, dtype=float).reshape(n, j_count)
    worst = 0.0
    for k, ctx in enumerate(contexts):
        omegas = ctx.bohr
        if omegas is None:
            raise ValidationError("tensor factors need Bohr frequencies")
        smoothed = tilde_observable(ctx, u[k])
        for j, l in enumerate(ctx.lindbladian.jumps):
            comm = l @ smoothed - smoothed @ l
            value = math.exp(omegas[j] / 2.0) * np.linalg.norm(comm, 2) ** 2
            worst = max(worst, value)
    return 2.0 * j_count * worst


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def qubit_depolarizing():
    return stationary_state(depolarizing(maximally_mixed(2)))


@pytest.fixture(scope="session")
def qutrit_depolarizing():
    return stationary_state(depolarizing(maximally_mixed(3)))
