"""Lindblad generators, stationary states, detailed balance, and Dirichlet
forms.

A generator is held in jump-operator form: a Hamiltonian H plus jumps
L_1..L_k, Heisenberg action i[H,X] + sum_j L_j* X L_j - {L_j* L_j, X}/2.
A channel-difference generator Psi - id is decoded to that form
(lindbladian_from_channel). A stationary state is a plain d x d density
matrix. The jumps are one (k, d, d) complex array, fixed at construction
(k = 0 allowed); every consumer works on that stack as it is.
The GeneratorContext bundles the generator with its stationary state and the
sigma-weighted calculus needed everywhere else: KMS symmetrization,
detailed balance with respect to the GNS/KMS/BKM inner products, Bohr
frequencies, and the Dirichlet form. That calculus runs in sigma's
eigenbasis, where every sigma-weighted Gram map is diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    FaithfulState,
    NotFaithfulError,
    NumericalError,
    ValidationError,
    add_left_right_pair,
    as_complex_matrix,
    as_matrix_stack,
    density_matrix,
    dual_in_eigenbasis,
    gram_weights,
    hermitian_part,
    hermitianize,
    inner_product,
    left_right_sum_matrix,
    require_hermitian,
    require_same_dim,
    rotate_superoperator,
    unvec,
    vec,
)

# Relative to the generator scale (_generator_scale): the negative part of
# the compressed Choi matrix and the rebuild error that
# lindbladian_from_channel accepts, and the stationary residual |L*(sigma)|.
GKSL_TOL = 1e-10
STATIONARY_TOL = 1e-9
KERNEL_REL_TOL = 1e-9
SYMMETRY_REL_TOL = 1e-8
BOHR_REL_TOL = 1e-8


class NotKmsSymmetricError(ValidationError):
    """Operation requires a KMS-symmetric generator."""


class Lindbladian:
    """Generator data: a Hamiltonian and the (k, d, d) stack ``jumps``, made
    from any sequence of d x d matrices (a complex stack is kept, not copied)."""

    def __init__(self, hamiltonian, jumps):
        h = require_hermitian(hamiltonian, name="hamiltonian")
        self.dim = h.shape[0]
        self.hamiltonian = h
        self.jumps = as_matrix_stack(jumps, self.dim, "jump")
        self.k = len(self.jumps)
        # K = sum_j L_j* L_j enters both generator pictures. The jump form
        # is unital for every H and every set of jumps.
        self._kappa = sum((l.conj().T @ l for l in self.jumps), np.zeros((self.dim, self.dim), dtype=complex))

    def heisenberg_superoperator(self) -> np.ndarray:
        """The d^2 x d^2 Heisenberg matrix of the generator, the one
        generator-sized array this returns.

        It starts as the jump sum, one left_right_sum_matrix GEMM on the
        stored jump stack (zero when k = 0), which holds the stack's
        conjugate transpose, the product and its reordering at once (three
        generator-sized arrays when there are d^2 jumps). The Hamiltonian
        and K terms, X -> (iH - K/2) X + X (-iH - K/2), are then added in
        place (add_left_right_pair). Each entry is the same sum of the same
        terms as in the Kronecker form
        i (kron(I, H) - kron(H.T, I)) - (kron(I, K) + kron(K.T, I))/2 + S:
        entry (a, b), (a, b) of the diagonal gets
        i (H[b, b] - H[a, a]) - (K[b, b] + K[a, a])/2.
        """
        h, kappa, js = self.hamiltonian, self._kappa, self.jumps
        m = left_right_sum_matrix(np.conjugate(js.swapaxes(1, 2), order="C"), js)
        hd, kd = h.diagonal(), kappa.diagonal()
        diagonal = 1j * (hd[None, :] - hd[:, None]) - 0.5 * (kd[None, :] + kd[:, None])
        add_left_right_pair(m, 1j * h - 0.5 * kappa, 1j * (-h) - 0.5 * kappa, diagonal)
        return m


class GeneratorContext:
    """A generator together with its stationary state and weighted calculus.

    The generator is held once, as the d^2 x d^2 Heisenberg matrix
    ``heisenberg`` (L* is never formed) of the jump form ``lindbladian``,
    beside the d x d stationary state ``sigma``. The only other d^2 x d^2 matrix it may hold is
    ``eigenbasis_generator``: computed on first use, read-only while cached,
    and kept until take_eigenbasis_generator hands it, writeable, to a
    caller that overwrites it (TiltedFamily, spectral_gap). Each further
    take on the same context rotates the generator again, at d^5.
    kms_hermitian_part makes no new d^2 x d^2 matrix: it overwrites the one
    it is given. ``faithful`` is None when the stationary state is rank
    deficient; every sigma-weighted operation then refuses with
    NotFaithfulError, whose message is the one FaithfulState gave
    (``unfaithful``: the smallest eigenvalue and FAITHFUL_EPS).

    The sigma-weighted calculus works in sigma's eigenbasis,
    sigma = U diag(s) U^dagger. A superoperator matrix M is rotated there as
    M_e = K^dagger M K with the unitary K = kron(conj(U), U), at d^5: by
    to_eigenbasis, which rotates a copy of M in place (rotate_superoperator),
    so that a rotation makes only the matrix it returns; the generator's
    own M_e is computed once and kept. check_detailed_balance rotates its
    difference back the same way. There the Gram map of each inner product
    is diagonal (gram_weights: s_j for GNS, sqrt(s_i s_j) for KMS, the
    divided differences for BKM), so KMS conjugation, duals and the
    detailed-balance check are entrywise scalings. The matrix
    kms_hermitian_part returns stays in the eigenbasis: it is unitarily
    similar to the Hermitian part of G^(1/2) M G^(-1/2) in the original
    basis and has its spectrum.
    """

    def __init__(self, heisenberg: np.ndarray, sigma: np.ndarray,
                 faithful: FaithfulState | None, primitive: bool, kernel_dim: int, *,
                 lindbladian: Lindbladian, unfaithful: str = ""):
        self.heisenberg = heisenberg
        self.sigma = sigma
        self.faithful = faithful
        self.unfaithful = unfaithful
        self.primitive = primitive
        self.kernel_dim = kernel_dim
        self.lindbladian = lindbladian
        self.dim = sigma.shape[0]

    def require_faithful(self) -> FaithfulState:
        if self.faithful is None:
            raise NotFaithfulError(f"stationary state is not faithful ({self.unfaithful}): the "
                                   "stationary solve does not resolve sigma's spectrum below that "
                                   "threshold, so sigma-weighted calculus is refused")
        return self.faithful

    def require_jumps(self) -> Lindbladian:
        return self.lindbladian

    @cached_property
    def scale(self) -> float:
        """The generator scale (_generator_scale) that the depolarizing test
        of the inequalities module is relative to, computed on first use."""
        return _generator_scale(self.heisenberg)

    @cached_property
    def bohr(self) -> list[float] | None:
        """Frequencies omega_j with Delta_sigma(L_j) = exp(-omega_j) L_j for
        the jumps L_j, computed on first use. None when some jump is not an
        eigenvector of the modular operator (relative residual above
        BOHR_REL_TOL), and without a faithful state."""
        if self.faithful is None:
            return None
        return _modular_frequencies(self.faithful, self.lindbladian.jumps)

    def to_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """K^dagger M K: the superoperator matrix M in sigma's eigenbasis, as
        a copy of M rotated in place (the one new d^2 x d^2 array)."""
        return rotate_superoperator(np.array(matrix, dtype=complex), self.require_faithful().eigenvectors)

    @cached_property
    def eigenbasis_generator(self) -> np.ndarray:
        """The Heisenberg matrix of the generator in sigma's eigenbasis.
        Read-only, so that no caller writes into the cache. A reference kept
        across take_eigenbasis_generator sees the taker overwrite it."""
        m_e = self.to_eigenbasis(self.heisenberg)
        m_e.flags.writeable = False
        return m_e

    def take_eigenbasis_generator(self) -> np.ndarray:
        """The generator in sigma's eigenbasis, for the caller to overwrite:
        the cached eigenbasis_generator, made writeable and dropped by the
        context (it is recomputed on next use), or a fresh rotation."""
        cached = self.__dict__.pop("eigenbasis_generator", None)
        if cached is None:
            return self.to_eigenbasis(self.heisenberg)
        cached.flags.writeable = True
        return cached

    def kms_hermitian_part(self, eigenbasis_matrix: np.ndarray) -> np.ndarray:
        """Hermitian matrix of the KMS symmetrization (M + M^KMS)/2 of a
        superoperator M given in sigma's eigenbasis, conjugated: the
        Hermitian part of D M D^(-1), with D the diagonal KMS half-Gram
        (s_i s_j)^(1/4). M is overwritten with it."""
        half = np.sqrt(gram_weights("KMS", self.require_faithful()))
        eigenbasis_matrix *= half[:, None]
        eigenbasis_matrix /= half[None, :]
        return hermitianize(eigenbasis_matrix)


def _generator_scale(heis: np.ndarray) -> float:
    """max(1, largest |entry|) of a Heisenberg matrix: the scale of the
    decoding, stationarity, kernel and symmetry tolerances, floored at one
    so that a numerically zero generator is classified rather than its
    rounding dust amplified."""
    return max(1.0, float(np.max(np.abs(heis))))


def lindbladian_from_channel(channel, name: str = "channel") -> Lindbladian:
    """The jump form of L = Psi - id for the unital channel Psi, given as
    its d^2 x d^2 Heisenberg matrix (not modified): the GKSL construction
    (Gorini, Kossakowski & Sudarshan, J. Math. Phys. 17, 821 (1976);
    Lindblad, Commun. Math. Phys. 48, 119 (1976)).

    Realigned as R[(c, a), (e, b)] = L[(a, b), (c, e)], the jump part of L
    is sum_j l_j l_j^dagger (l_j the row-major entries of L_j, as in
    left_right_sum_matrix) and X -> G* X + X G is |w><.| + |.><w|, w the
    entries of id. R compressed to the complement of w (its Hermitian part)
    must be positive semidefinite to -GKSL_TOL * scale (L conditionally
    completely positive); its eigenpairs above rounding give the traceless
    jumps sqrt(lambda) v, largest first. sum_a R[(a, a), (e, b)] / d is
    then iH - K/2 up to a multiple of id. The jump form must rebuild L to
    GKSL_TOL * scale, which refuses a map that is not unital or does not
    preserve Hermiticity. Errors start with ``name``.
    """
    generator = np.array(as_complex_matrix(channel, name))
    n, d = generator.shape[0], math.isqrt(generator.shape[0])
    generator.reshape(-1)[::n + 1] -= 1.0
    scale = _generator_scale(generator)
    m4 = generator.reshape(d, d, d, d)
    realigned = np.array(m4.transpose(2, 0, 3, 1)).reshape(n, n)
    w = np.eye(d).reshape(-1) / math.sqrt(d)
    r_w = realigned @ w
    realigned -= np.outer(w, w @ realigned)
    realigned -= np.outer(r_w - (w @ r_w) * w, w)
    lam, vecs = np.linalg.eigh(hermitianize(realigned))
    if lam[0] < -GKSL_TOL * scale:
        raise ValidationError(f"{name}: Psi - id is not conditionally completely positive: its "
                              f"compressed Choi matrix has eigenvalue {lam[0]:.3e}")
    keep = np.flatnonzero(lam > n * np.finfo(float).eps * scale)[::-1]
    jumps = (vecs[:, keep] * np.sqrt(lam[keep])).T.reshape(len(keep), d, d)
    lind = Lindbladian(hermitian_part(-1j * np.einsum("abae->be", m4) / d), jumps)
    error = float(np.max(np.abs(lind.heisenberg_superoperator() - generator)))
    if error > GKSL_TOL * scale:
        raise ValidationError(f"{name}: Psi - id is not a quantum Markov generator: its GKSL "
                              f"form differs from it by {error:.3e}")
    return lind


def stationary_state(lind: Lindbladian) -> GeneratorContext:
    """Solve L*(sigma) = 0 for a jump-form generator and assemble its context."""
    return _context(lind.heisenberg_superoperator(), lind)


def stationary_residual(heis: np.ndarray, rho: np.ndarray) -> float:
    """max |L*(rho)| for the Heisenberg matrix H of L, as the entrywise
    max of |vec(rho)^dagger H| = |H^dagger vec(rho)|, without forming L*."""
    return float(np.max(np.abs(vec(rho).conj() @ heis)))


def _bordered_kernel(heis: np.ndarray, d: int, scale: float) -> np.ndarray | None:
    """Stationary candidate of the Schrodinger matrix M = H^dagger of the
    Heisenberg matrix H when its kernel is certified simple, else None.

    Unitality makes t = vec(id) a left null vector of M, so the trace-bordered
    A = M + c t t^dagger (c = scale/d, so the border has norm scale) is
    invertible exactly when the kernel is simple, and then A^(-1) c t is the
    kernel vector of trace one. By rank-one interlacing sigma_(n-1)(M) >=
    sigma_n(A) >= 1/|A^(-1)|_F, so the kernel is simple once that bound
    clears KERNEL_REL_TOL * scale; |M v| / |v| <= KERNEL_REL_TOL * scale
    then says that the last singular value is below it, as the SVD
    classification requires.

    With c and t real, A = conj(H_b^T) for the bordered H_b = H + c t t^T,
    so A^(-1) is the conjugate of the inverse G of H_b^T (a Fortran-ordered
    view, which LAPACK reads without a transposing copy): |A^(-1)|_F =
    |G|_F and v = c conj(G t). So H is bordered in place and its d^2
    bordered entries are restored bit for bit after the inversion, also
    when it raises; G is the one d^2 x d^2 array made. |M v| is computed
    as |v^dagger H|.
    """
    t = vec(np.eye(d))
    c = scale / d
    border = np.ix_(*(np.flatnonzero(t),) * 2)
    bordered = heis if heis.flags.writeable else heis.copy()
    saved = bordered[border]
    bordered[border] += c
    try:
        g = np.linalg.inv(bordered.T)
    except np.linalg.LinAlgError:
        return None
    finally:
        bordered[border] = saved
    if not 1.0 / np.linalg.norm(g) > KERNEL_REL_TOL * scale:
        return None
    v = c * (g @ t).conj()
    if not np.linalg.norm(v.conj() @ heis) <= KERNEL_REL_TOL * scale * np.linalg.norm(v):
        return None
    return unvec(v, d)


def _svd_kernel(m: np.ndarray, d: int, scale: float) -> tuple[np.ndarray, int]:
    """Stationary candidate and kernel multiplicity from one SVD of M.

    The multiplicity is the number of singular values at or below
    KERNEL_REL_TOL * scale. A simple kernel is spanned by the last right
    singular vector. A larger one is handled through the ergodic projector
    R (L^H R)^(-1) L^H built from the right (R) and left (L) null vectors;
    it maps the maximally mixed state to the stationary state of maximal
    support.
    """
    u, s, vh = np.linalg.svd(m)
    mult = int(np.count_nonzero(s <= KERNEL_REL_TOL * scale))
    if mult == 0:
        raise NumericalError("Schrodinger superoperator has no numerical kernel")
    if mult == 1:
        return unvec(vh[-1].conj(), d), 1
    right = vh[-mult:].conj().T
    left_h = u[:, -mult:].conj().T
    proj = right @ np.linalg.solve(left_h @ right, left_h)
    return unvec(proj @ vec(np.eye(d) / d), d), mult


def _context(h: np.ndarray, lind: Lindbladian) -> GeneratorContext:
    """Context for the generator ``lind`` given as its complex d^2 x d^2
    Heisenberg matrix H, which is kept as the context's generator, not copied.

    The kernel of the Schrodinger matrix M = H^dagger comes from one LU
    inversion of the trace-bordered H + c t t^T, the adjoint of the bordered
    M + c t t^dagger, made in H's own storage; it also certifies
    that the kernel is simple (_bordered_kernel); M itself is formed only
    when that certificate fails, and then one SVD of it classifies the
    kernel (_svd_kernel):
    a multiplicity above one is resolved by the ergodic projector, and
    faithfulness then fails only if no faithful stationary state exists
    (NotFaithfulError).
    Primitive means the kernel is simple and sigma has full rank.
    """
    d = lind.dim
    scale = _generator_scale(h)
    cand, mult = _bordered_kernel(h, d, scale), 1
    if cand is None:
        cand, mult = _svd_kernel(h.conj().T, d, scale)
    cand = hermitian_part(cand)
    tr = np.trace(cand).real
    if abs(tr) < 1e-14:
        raise NumericalError("stationary candidate has vanishing trace")
    cand = cand / tr
    residual = stationary_residual(h, cand)
    if residual > STATIONARY_TOL * scale:
        raise NumericalError(f"stationary residual {residual:.3e} exceeds {STATIONARY_TOL * scale:.1e}")
    w, v = np.linalg.eigh(cand)
    if w[0] < -1e-8:
        raise NumericalError(f"stationary candidate not positive (min eigenvalue {w[0]:.3e})")
    if w[0] < 0.0:
        cand = (v * np.clip(w, 0.0, None)) @ v.conj().T
        cand = hermitian_part(cand / np.trace(cand).real)
    sigma = density_matrix(cand, "stationary state")
    unfaithful = ""
    try:
        faithful = FaithfulState(sigma)
    except NotFaithfulError as exc:
        if mult > 1:
            raise NotFaithfulError(f"no faithful stationary state ({exc})")
        faithful, unfaithful = None, str(exc)
    primitive = (mult == 1) and faithful is not None
    return GeneratorContext(h, sigma, faithful, primitive, mult, lindbladian=lind,
                            unfaithful=unfaithful)


# ---------------------------------------------------------------------------
# Duals and detailed balance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryReport:
    symmetric: bool
    deviation: float


def check_detailed_balance(kind: str, ctx: GeneratorContext) -> SymmetryReport:
    """Deviation of the generator from self-adjointness in the given inner product.

    The difference Delta_e = M_e - G^(-1) M_e^dagger G of the generator and
    its dual is formed in sigma's eigenbasis (the one new d^2 x d^2 array,
    beside the context's cached eigenbasis generator). ``symmetric`` is
    decided there, in the balanced form G Delta_e = G M_e - (G M_e)^dagger:
    max|G Delta_e| <= SYMMETRY_REL_TOL max|G M_e|. That ratio does not
    carry the Gram-weight ratios g_b/g_a of Delta_e's entries, which grow
    with the condition number of sigma. The weighted
    maxima are taken d rows at a time, so each temporary holds d^3 entries.
    Delta_e is then rotated back in place, and ``deviation`` is its
    max-norm in the original basis.
    """
    st = ctx.require_faithful()
    m_e = ctx.eigenbasis_generator
    difference = dual_in_eigenbasis(kind, kind, st, m_e)
    np.subtract(m_e, difference, out=difference)
    g = gram_weights(kind, st)
    unbalanced = balanced_scale = 0.0
    for start in range(0, len(g), st.dim):
        rows = slice(start, start + st.dim)
        unbalanced = max(unbalanced, float(np.max(np.abs(g[rows, None] * difference[rows]))))
        balanced_scale = max(balanced_scale, float(np.max(np.abs(g[rows, None] * m_e[rows]))))
    rotate_superoperator(difference, st.eigenvectors.conj().T)
    deviation = float(np.max(np.abs(difference)))
    return SymmetryReport(unbalanced <= SYMMETRY_REL_TOL * balanced_scale, deviation)


def _modular_frequencies(st: FaithfulState, jumps: np.ndarray) -> list[float] | None:
    """GeneratorContext.bohr for the (k, d, d) jump stack, in sigma's eigenbasis,
    where Delta_sigma scales entry (i, j) by s_i / s_j. Jumps of squared
    norm below 1e-28 get frequency 0. The stack is worked through d jumps
    at a time, so each temporary holds d^3 entries."""
    u = st.eigenvectors
    s = st.eigenvalues
    ratio = s[:, None] / s[None, :]
    omegas = np.zeros(len(jumps))
    for start in range(0, len(jumps), st.dim):
        le = u.conj().T @ jumps[start:start + st.dim] @ u
        image = le * ratio
        norm2 = np.sum(np.abs(le) ** 2, axis=(1, 2))
        live = norm2 >= 1e-28
        le, image = le[live], image[live]
        c = np.einsum("kij,kij->k", le.conj(), image) / norm2[live]
        residual = (np.linalg.norm(image - c[:, None, None] * le, axis=(1, 2))
                    / np.linalg.norm(image, axis=(1, 2)))
        if np.any((residual > BOHR_REL_TOL) | (c.real <= 0) | (np.abs(c.imag) > BOHR_REL_TOL * np.abs(c))):
            return None
        omegas[start:start + st.dim][live] = -np.log(c.real)
    return [float(w) for w in omegas]


# ---------------------------------------------------------------------------
# Dirichlet form
# ---------------------------------------------------------------------------

def dirichlet_form(ctx: GeneratorContext, x) -> float:
    """Symmetrized Dirichlet form -Re <X, L(X)>_KMS."""
    st = ctx.require_faithful()
    x = as_complex_matrix(x, "X")
    require_same_dim(st.matrix, x)
    lx = unvec(ctx.heisenberg @ vec(x), ctx.dim)
    return float(-inner_product("KMS", st, x, lx).real)
