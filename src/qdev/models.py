"""Constructors for the example systems used throughout: depolarizing
semigroups, classical-chain embeddings, tensor products, heat-bath Gibbs
samplers for commuting Hamiltonians, and the two-channel counterexample
family distinguishing the detailed-balance notions.

Every completely positive template (depolarizing, classical, tensor
product, heat-bath) is a Lindbladian in jump form, so
Lindbladian.heisenberg_superoperator is the one assembly of all of them;
only the counterexample channels are d^2 x d^2 Heisenberg matrices.
_on_sites places every operator on sites of a tensor product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    FaithfulState,
    ValidationError,
    _as_state,
    dual_in_eigenbasis,
    hermitian_part,
    left_right_sum_matrix,
    require_hermitian,
    rotate_superoperator,
)
from .lindblad import Lindbladian

# Largest Hilbert-space dimension of a tensor product or heat-bath lattice.
DIMENSION_GUARD = 64
# Most sites a local term of a commuting Hamiltonian may act on.
MAX_SUPPORT = 2


# ---------------------------------------------------------------------------
# Depolarizing semigroup
# ---------------------------------------------------------------------------

def depolarizing(sigma) -> Lindbladian:
    """Depolarizing generator X -> Tr[sigma X] id - X toward a faithful state.

    Jumps are sqrt(s_x) |x><y| over all ordered pairs in sigma's eigenbasis,
    jump x d + y of one (d^2, d, d) stack, which reduces to d^(-1/2) |x><y|
    at the maximally mixed state. H = 0. A state of dimension above
    DIMENSION_GUARD is refused before any jump is built.
    """
    st = _as_state(sigma)
    d = require_depolarizing_dim(st.dim)
    u = st.eigenvectors
    jumps = u.T[:, None, :, None] * u.conj().T[None, :, None, :]   # (x, y, a, b): u[a, x] conj(u[b, y])
    jumps *= np.sqrt(st.eigenvalues)[:, None, None, None]
    return Lindbladian(np.zeros((d, d)), jumps.reshape(d * d, d, d))


def require_depolarizing_dim(d: int) -> int:
    """``d``, or ValidationError when it exceeds DIMENSION_GUARD; callers
    check a declared dimension with it before they build a state of it."""
    if d > DIMENSION_GUARD:
        raise ValidationError(f"depolarizing dimension {d} exceeds guard {DIMENSION_GUARD}")
    return d


def maximally_mixed(dim: int) -> FaithfulState:
    return FaithfulState(np.eye(dim) / dim)


# ---------------------------------------------------------------------------
# Classical chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClassicalChain:
    """Continuous-time chain given by its rate matrix (rows sum to zero)."""

    rates: np.ndarray
    n: int = field(init=False)
    stationary: np.ndarray = field(init=False)
    reversible: bool = field(init=False)

    def __post_init__(self):
        q = np.asarray(self.rates, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValidationError(f"rate matrix must be square, got {q.shape}")
        n = q.shape[0]
        off = q - np.diag(np.diag(q))
        if np.min(off) < -1e-14:
            raise ValidationError("off-diagonal rates must be nonnegative")
        if np.max(np.abs(q.sum(axis=1))) > 1e-12:
            raise ValidationError("rate matrix rows must sum to zero")
        # pi Q = 0: kernel of Q^T, normalized to a probability vector.
        _, _, vh = np.linalg.svd(q.T)
        pi = np.real(vh[-1])
        pi = pi / pi.sum()
        if np.min(pi) < -1e-12:
            raise ValidationError("chain has no strictly positive stationary vector")
        pi = np.clip(pi, 0.0, None)
        pi = pi / pi.sum()
        if np.max(np.abs(pi @ q)) > 1e-12:
            raise ValidationError("stationary vector residual exceeds 1e-12")
        flux = pi[:, None] * q
        reversible = bool(np.max(np.abs(flux - flux.T)) <= 1e-12)
        object.__setattr__(self, "rates", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "stationary", pi)
        object.__setattr__(self, "reversible", reversible)

    def gap(self) -> float:
        """Smallest nonzero decay rate: -max nonzero Re eigenvalue of Q."""
        w = np.linalg.eigvals(self.rates)
        decay = sorted(-w.real)
        nonzero = [x for x in decay if x > 1e-12]
        if not nonzero:
            raise ValidationError("rate matrix has no spectral gap")
        return float(min(nonzero))


def classical_embedding(chain: ClassicalChain) -> Lindbladian:
    """Embed a classical chain as a diagonal-sector Lindbladian.

    One jump sqrt(Q_ij) |j><i| per directed edge reproduces the chain on
    diagonal observables: L(diag g) = diag(Q g). The edge jumps alone leave
    coherences decaying at (kappa_i + kappa_j)/2, which can undercut the
    chain's gap, so per-state dephasing at the rate of the chain's gap is
    added; it acts as zero on the diagonal sector and on diagonal-observable
    Dirichlet forms.
    """
    q = chain.rates
    n = chain.n
    # Edges (i, j) in row-major order, then the n dephasing jumps.
    src, dst = np.nonzero((q > 0) & ~np.eye(n, dtype=bool))
    edges, sites = np.arange(len(src)), np.arange(n)
    jumps = np.zeros((len(src) + n, n, n), dtype=complex)
    jumps[edges, dst, src] = np.sqrt(q[src, dst])
    jumps[len(src) + sites, sites, sites] = np.sqrt(chain.gap())
    return Lindbladian(np.zeros((n, n)), jumps)


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

def _on_sites(op: np.ndarray, sites, dims: list[int]) -> np.ndarray:
    """op acting on the factors ``sites`` (in the order of op's legs) of a
    tensor product with factor dimensions ``dims``, identity elsewhere. A
    (k, m, m) stack of ops gives the (k, D, D) stack of their placements."""
    n = len(dims)
    order = list(sites) + [k for k in range(n) if k not in sites]
    perm = list(np.argsort(order))
    lead = op.ndim - 2
    full = np.kron(op, np.eye(int(np.prod(dims)) // op.shape[-1]))
    t = full.reshape(*op.shape[:lead], *[dims[k] for k in order] * 2)
    return t.transpose(*range(lead), *[lead + p for p in perm + [n + p for p in perm]]).reshape(full.shape)


def tensor_product(lindbladians: list[Lindbladian]) -> Lindbladian:
    """Sum of factor generators acting on the tensor-product space."""
    dims = [l.dim for l in lindbladians]
    total = int(np.prod(dims))
    if total > DIMENSION_GUARD:
        raise ValidationError(f"product dimension {total} exceeds guard {DIMENSION_GUARD}")
    h = sum((_on_sites(l.hamiltonian, (k,), dims) for k, l in enumerate(lindbladians)),
            np.zeros((total, total), dtype=complex))
    jumps = np.concatenate([_on_sites(l.jumps, (k,), dims) for k, l in enumerate(lindbladians)])
    return Lindbladian(h, jumps)


# ---------------------------------------------------------------------------
# Heat-bath Gibbs samplers for commuting Hamiltonians
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CommutingHamiltonian:
    """H = sum of commuting local terms on n sites of local dimension d,
    each acting on at most MAX_SUPPORT distinct sites; d^n is at most
    DIMENSION_GUARD."""

    n_sites: int
    local_dim: int
    terms: list[tuple[tuple[int, ...], np.ndarray]]
    beta: float

    def __post_init__(self):
        n, d = self.n_sites, self.local_dim
        if n < 1 or d < 2:
            raise ValidationError(f"need n_sites >= 1 and local_dim >= 2, got {n} and {d}")
        # With d >= 2, d^n exceeds the guard exactly when d^min(n, guard) does.
        if d ** min(n, DIMENSION_GUARD) > DIMENSION_GUARD:
            raise ValidationError(f"lattice dimension {d}^{n} exceeds guard {DIMENSION_GUARD}")
        if not np.isfinite(self.beta):
            raise ValidationError("beta must be finite")
        embedded = []
        for support, h in self.terms:
            if len(support) > MAX_SUPPORT:
                raise ValidationError(f"support {support} exceeds max size {MAX_SUPPORT}")
            if any(s < 0 or s >= n for s in support) or len(set(support)) != len(support):
                raise ValidationError(f"support {support} out of range or repeated")
            h = require_hermitian(h, name="local term")
            if h.shape[0] != d ** len(support):
                raise ValidationError(f"local term on {support} must be {d ** len(support)} x "
                                      f"{d ** len(support)}, got {h.shape}")
            if np.linalg.norm(h, 2) > 1.0 + 1e-12:
                raise ValidationError("local terms must have operator norm at most 1")
            embedded.append(_on_sites(h, support, [d] * n))
        for i in range(len(embedded)):
            for j in range(i + 1, len(embedded)):
                comm = embedded[i] @ embedded[j] - embedded[j] @ embedded[i]
                if np.max(np.abs(comm)) > 1e-10:
                    raise ValidationError(f"terms {i} and {j} do not commute")
        object.__setattr__(self, "_embedded", embedded)

    def total(self) -> np.ndarray:
        dim = self.local_dim ** self.n_sites
        return sum(self._embedded, np.zeros((dim, dim), dtype=complex))

    def gibbs_state(self) -> np.ndarray:
        h = self.total()
        w, v = np.linalg.eigh(h)
        boltz = np.exp(-self.beta * (w - w.min()))
        omega = (v * boltz) @ v.conj().T
        return hermitian_part(omega / np.trace(omega).real)


def _partial_trace(rho: np.ndarray, site: int, n: int, d: int) -> np.ndarray:
    t = rho.reshape([d] * (2 * n))
    t = np.trace(t, axis1=site, axis2=n + site)
    return t.reshape(d ** (n - 1), d ** (n - 1))


def heat_bath(h: CommutingHamiltonian) -> Lindbladian:
    """Heat-bath generator sum_v (Psi_v - id) in jump form, with H = 0.

    Per site, Psi_v* is the partial trace followed by the recovery map:
    Psi_v*(rho) = omega^(1/2) A_v (Tr_v[rho] (x) I_v) A_v omega^(1/2), with
    omega the Gibbs state (h.gibbs_state()) and A_v = omega_vc^(-1/2) (x) I_v.
    As Tr_v[rho] (x) I_v = sum_ab E_ab rho E_ba over the matrix units E_ab at
    site v, its Kraus operators are K = omega^(1/2) A_v E_ab: the jumps, site
    v's d^2 at rows v d^2 to (v + 1) d^2 - 1 of one (n d^2, D, D) stack. Per
    site sum_K K^dagger K = sum_ab E_ba A_v omega A_v E_ab = Tr_v[A_v omega A_v] (x) I_v
    = omega_vc^(-1/2) Tr_v[omega] omega_vc^(-1/2) (x) I_v = 1, so
    sum_v Psi_v(X) - n X = sum_K K^dagger X K - {sum_K K^dagger K, X}/2.
    """
    n, d = h.n_sites, h.local_dim
    dims = [d] * n
    omega = h.gibbs_state()
    w, v = np.linalg.eigh(omega)
    sqrt_omega = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    jumps = np.empty((n, d * d, d ** n, d ** n), dtype=complex)
    for site in range(n):
        omega_vc = _partial_trace(omega, site, n, d)
        wc, vc = np.linalg.eigh(omega_vc)
        inv_sqrt_vc = (vc * (1.0 / np.sqrt(wc))) @ vc.conj().T
        left = sqrt_omega @ _on_sites(inv_sqrt_vc, [s for s in range(n) if s != site], dims)
        jumps[site] = left @ _on_sites(units, (site,), dims)
    return Lindbladian(np.zeros((d ** n, d ** n)), jumps.reshape(-1, d ** n, d ** n))


# ---------------------------------------------------------------------------
# Detailed-balance counterexample channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CounterexampleChannels:
    """Two-channel family separating the KMS/BKM/GNS symmetry notions.

    Each channel is its 4 x 4 Heisenberg matrix. ``phi`` is the base
    channel built from rank-one Kraus pieces, ``psi`` its KMS-symmetrized
    square (KMS- but not BKM-symmetric), ``psi_tilde`` the BKM-twisted
    version (BKM- but not KMS-symmetric); both fix ``sigma``.
    ``p_channel`` is KMS- and BKM- but not GNS-symmetric.
    """

    phi: np.ndarray
    psi: np.ndarray
    psi_tilde: np.ndarray
    sigma: FaithfulState
    p_channel: np.ndarray
    p_sigma: FaithfulState


def counterexample_channels(v1, v2, p: float) -> CounterexampleChannels:
    """Build the channel family from two real unit vectors and a weight p.

    Constraints: <v1, v2> != 0, a + b != 1, a*b != 0, a != b with
    a = <v2, u1>^2, b = <v1, u2>^2 over the canonical basis (u1, u2), the
    fixed state must differ from id/2, and p must lie in (0, 1/2).
    """
    v1 = np.asarray(v1, dtype=float).reshape(2)
    v2 = np.asarray(v2, dtype=float).reshape(2)
    for name, v in (("v1", v1), ("v2", v2)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValidationError(f"{name} must be a unit vector")
    if abs(v1 @ v2) < 1e-12:
        raise ValidationError("v1 and v2 must not be orthogonal")
    u1 = np.array([1.0, 0.0])
    u2 = np.array([0.0, 1.0])
    a = float(v2 @ u1) ** 2
    b = float(v1 @ u2) ** 2
    if a * b < 1e-14 or abs(a + b - 1.0) < 1e-9 or abs(a - b) < 1e-9:
        raise ValidationError("vectors violate the constraints a+b != 1, ab != 0, a != b")
    kraus = np.array([np.outer(v1, u1), np.outer(v2, u2)], dtype=complex)
    phi = left_right_sum_matrix(kraus.conj().transpose(0, 2, 1), kraus)
    sigma_mat = (a * np.outer(v1, v1) + b * np.outer(v2, v2)) / (a + b)
    sigma = FaithfulState(sigma_mat.astype(complex))
    if abs(sigma.eigenvalues[0] - 0.5) < 1e-9:
        raise ValidationError("fixed state coincides with id/2; pick different vectors")
    # psi = phi^KMS phi and psi_tilde = G_BKM^(-1) psi^dagger G_KMS, formed
    # in sigma's eigenbasis, where both Gram maps are diagonal.
    u = sigma.eigenvectors
    phi_e = rotate_superoperator(phi.copy(), u)
    psi_e = dual_in_eigenbasis("KMS", "KMS", sigma, phi_e) @ phi_e
    psi_tilde = rotate_superoperator(dual_in_eigenbasis("BKM", "KMS", sigma, psi_e), u.conj().T)
    psi = rotate_superoperator(psi_e, u.conj().T)

    if not 0.0 < p < 0.5:
        raise ValidationError("p must lie in (0, 1/2)")
    p_kraus = np.array([[[np.sqrt(p), 0.0], [0.0, np.sqrt(1 - p)]],
                        [[0.0, np.sqrt(p)], [np.sqrt(1 - p), 0.0]]], dtype=complex)
    p_channel = left_right_sum_matrix(p_kraus.conj().transpose(0, 2, 1), p_kraus)
    p_sigma = FaithfulState(np.diag([p, 1 - p]).astype(complex))
    return CounterexampleChannels(phi, psi, psi_tilde, sigma, p_channel, p_sigma)


def appendix_b_fixtures(p: float = 0.3) -> CounterexampleChannels:
    """The counterexample family at v1 = (cos 0.3, sin 0.3), v2 = (cos 1.2, sin 1.2)."""
    return counterexample_channels([np.cos(0.3), np.sin(0.3)], [np.cos(1.2), np.sin(1.2)], p)
