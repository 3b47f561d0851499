"""Lindblad generators, stationary states, detailed balance, and Dirichlet
forms.

A generator is held either in jump-operator form (Hamiltonian H plus jumps
L_1..L_k, Heisenberg action i[H,X] + sum_j L_j* X L_j - {L_j* L_j, X}/2) or
as a raw superoperator pair for channel-difference generators Psi - id. The
GeneratorContext bundles the generator with its stationary state and the
sigma-weighted calculus needed everywhere else: KMS symmetrization, duals
with respect to the GNS/KMS/BKM inner products, Bohr frequencies, and the
Dirichlet form / Fisher information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityOperator,
    DimensionMismatchError,
    FaithfulState,
    NotFaithfulError,
    NumericalError,
    SuperOperator,
    ValidationError,
    as_complex_matrix,
    gram_superoperator,
    hermitian_part,
    inner_product,
    left_right_matrix,
    left_right_sum_matrix,
    require_hermitian,
    require_same_dim,
    spectral_transform,
    unvec,
    vec,
)

UNITALITY_TOL = 1e-10
STATIONARY_TOL = 1e-9
KERNEL_REL_TOL = 1e-9
SYMMETRY_REL_TOL = 1e-8
BOHR_REL_TOL = 1e-8
ALIGNMENT_TOL = 1e-8


class NotKmsSymmetricError(ValidationError):
    """Operation requires a KMS-symmetric generator."""


class Lindbladian:
    """Generator data: Hamiltonian plus jump operators."""

    def __init__(self, hamiltonian, jumps):
        h = require_hermitian(hamiltonian, name="hamiltonian")
        js = [as_complex_matrix(l, f"jump {i}") for i, l in enumerate(jumps)]
        self.dim = require_same_dim(h, *js) if js else h.shape[0]
        self.hamiltonian = h
        self.jumps = js
        self.k = len(js)
        # K = sum_j L_j* L_j enters both generator pictures.
        self._kappa = sum((l.conj().T @ l for l in js), np.zeros((self.dim, self.dim), dtype=complex))
        defect = np.max(np.abs(self.heisenberg_action(np.eye(self.dim))))
        if defect > UNITALITY_TOL:
            raise ValidationError(f"generator is not unital: |L(id)| = {defect:.3e}")

    def heisenberg_action(self, x: np.ndarray) -> np.ndarray:
        x = as_complex_matrix(x, "X")
        if x.shape[0] != self.dim:
            raise DimensionMismatchError(f"operand dim {x.shape[0]} != generator dim {self.dim}")
        h = self.hamiltonian
        out = 1j * (h @ x - x @ h)
        out -= 0.5 * (self._kappa @ x + x @ self._kappa)
        for l in self.jumps:
            out += l.conj().T @ x @ l
        return out

    def schrodinger_action(self, rho: np.ndarray) -> np.ndarray:
        rho = as_complex_matrix(rho, "rho")
        if rho.shape[0] != self.dim:
            raise DimensionMismatchError(f"operand dim {rho.shape[0]} != generator dim {self.dim}")
        h = self.hamiltonian
        out = -1j * (h @ rho - rho @ h)
        out -= 0.5 * (self._kappa @ rho + rho @ self._kappa)
        for l in self.jumps:
            out += l @ rho @ l.conj().T
        return out

    def heisenberg_superoperator(self) -> SuperOperator:
        d = self.dim
        eye = np.eye(d)
        h = self.hamiltonian
        m = 1j * (left_right_matrix(h, eye) - left_right_matrix(eye, h))
        m -= 0.5 * (left_right_matrix(self._kappa, eye) + left_right_matrix(eye, self._kappa))
        if self.jumps:
            m += left_right_sum_matrix([l.conj().T for l in self.jumps], self.jumps)
        return SuperOperator(m)


def apply_generator(lind: Lindbladian, x) -> np.ndarray:
    """Heisenberg-picture action L(X)."""
    return lind.heisenberg_action(np.asarray(x, dtype=complex))


def apply_adjoint_generator(lind: Lindbladian, rho) -> np.ndarray:
    """Schrodinger-picture action L*(rho), the Hilbert-Schmidt adjoint."""
    return lind.schrodinger_action(np.asarray(rho, dtype=complex))


class GeneratorContext:
    """A generator together with its stationary state and weighted calculus.

    ``faithful`` is None when the stationary state is rank deficient; every
    sigma-weighted operation then refuses with NotFaithfulError.
    """

    def __init__(self, heisenberg: SuperOperator, schrodinger: SuperOperator,
                 sigma: DensityOperator, faithful: FaithfulState | None,
                 primitive: bool, kernel_dim: int, lindbladian: Lindbladian | None = None):
        self.heisenberg = heisenberg
        self.schrodinger = schrodinger
        self.sigma = sigma
        self.faithful = faithful
        self.primitive = primitive
        self.kernel_dim = kernel_dim
        self.lindbladian = lindbladian
        self.dim = heisenberg.dim
        self._cache: dict[str, np.ndarray] = {}
        self.bohr = bohr_frequencies(self) if (faithful is not None and lindbladian is not None) else None

    def require_faithful(self) -> FaithfulState:
        if self.faithful is None:
            raise NotFaithfulError("stationary state is not faithful; sigma-weighted calculus refused")
        return self.faithful

    def require_jumps(self) -> Lindbladian:
        if self.lindbladian is None:
            raise ValidationError("operation requires jump-operator form, context holds a raw superoperator")
        return self.lindbladian

    def _half_grams(self) -> tuple[np.ndarray, np.ndarray]:
        st = self.require_faithful()
        ghalf = self._cache.get("ghalf")
        if ghalf is None:
            quarter = st.power(0.25)
            inv_quarter = st.power(-0.25)
            ghalf = left_right_matrix(quarter, quarter)
            ginvhalf = left_right_matrix(inv_quarter, inv_quarter)
            self._cache["ghalf"] = ghalf
            self._cache["ginvhalf"] = ginvhalf
        return self._cache["ghalf"], self._cache["ginvhalf"]

    def kms_conjugated(self, matrix: np.ndarray | None = None) -> np.ndarray:
        """G^(1/2) M G^(-1/2) for the KMS Gram G; Hermitian iff M is KMS-self-adjoint."""
        ghalf, ginvhalf = self._half_grams()
        m = self.heisenberg.matrix if matrix is None else matrix
        return ghalf @ m @ ginvhalf

    def kms_hermitian_part(self, matrix: np.ndarray | None = None) -> np.ndarray:
        """Hermitian matrix of the KMS symmetrization (M + M^KMS)/2, conjugated."""
        return hermitian_part(self.kms_conjugated(matrix))


def stationary_state(lind: Lindbladian, faithfulness_threshold: float = 1e-12) -> GeneratorContext:
    """Solve L*(sigma) = 0 for a jump-form generator and assemble its context."""
    return context_from_generator(lind.heisenberg_superoperator(), faithfulness_threshold,
                                  lindbladian=lind)


def context_from_channel(channel: SuperOperator, faithfulness_threshold: float = 1e-12) -> GeneratorContext:
    """Context for the channel-difference generator L = Psi - id.

    ``channel`` is the Heisenberg (unital) superoperator Psi.
    """
    eye = np.eye(channel.dim ** 2, dtype=complex)
    return context_from_generator(SuperOperator(channel.matrix - eye), faithfulness_threshold)


def context_from_generator(heis: SuperOperator, faithfulness_threshold: float = 1e-12,
                           lindbladian: Lindbladian | None = None) -> GeneratorContext:
    """Context for a generator given as a Heisenberg superoperator.

    One SVD of the Schrodinger matrix M gives the kernel: its multiplicity
    is the number of singular values at or below KERNEL_REL_TOL * scale.
    A simple kernel is spanned by the last right singular vector. A larger
    one is handled through the ergodic projector R (L^H R)^(-1) L^H built
    from the right (R) and left (L) null vectors; it maps the maximally
    mixed state to the stationary state of maximal support, so faithfulness
    fails only if no faithful stationary state exists. Primitive means the
    kernel is simple and sigma has full rank.
    """
    d = heis.dim
    unitality = np.max(np.abs(heis.apply(np.eye(d))))
    if unitality > UNITALITY_TOL:
        raise ValidationError(f"generator is not unital: |L(id)| = {unitality:.3e}")
    schro = heis.adjoint()
    m = schro.matrix
    scale = max(1.0, float(np.max(np.abs(m))))
    u, s, vh = np.linalg.svd(m)
    mult = int(np.count_nonzero(s <= KERNEL_REL_TOL * scale))
    if mult == 0:
        raise NumericalError("Schrodinger superoperator has no numerical kernel")
    if mult == 1:
        cand = unvec(vh[-1].conj(), d)
    else:
        right = vh[-mult:].conj().T
        left_h = u[:, -mult:].conj().T
        proj = right @ np.linalg.solve(left_h @ right, left_h)
        cand = unvec(proj @ vec(np.eye(d) / d), d)
    cand = hermitian_part(cand)
    tr = np.trace(cand).real
    if abs(tr) < 1e-14:
        raise NumericalError("stationary candidate has vanishing trace")
    cand = cand / tr
    residual = np.max(np.abs(schro.apply(cand)))
    if residual > STATIONARY_TOL:
        raise NumericalError(f"stationary residual {residual:.3e} exceeds {STATIONARY_TOL:.1e}")
    w, v = np.linalg.eigh(cand)
    if w[0] < -1e-8:
        raise NumericalError(f"stationary candidate not positive (min eigenvalue {w[0]:.3e})")
    if w[0] < 0.0:
        cand = (v * np.clip(w, 0.0, None)) @ v.conj().T
        cand = hermitian_part(cand / np.trace(cand).real)
    sigma = DensityOperator(cand)
    try:
        faithful = FaithfulState(sigma, threshold=faithfulness_threshold)
    except NotFaithfulError:
        if mult > 1:
            raise NotFaithfulError("no faithful stationary state")
        faithful = None
    primitive = (mult == 1) and faithful is not None
    return GeneratorContext(heis, schro, sigma, faithful, primitive, mult, lindbladian=lindbladian)


# ---------------------------------------------------------------------------
# Duals and detailed balance
# ---------------------------------------------------------------------------

def dual_superoperator(kind: str, ctx: GeneratorContext, superop: SuperOperator) -> SuperOperator:
    """Adjoint of a superoperator with respect to the chosen inner product.

    Computed as G^(-1) S^dagger G with G the Gram superoperator of the inner
    product and S^dagger the Hilbert-Schmidt adjoint.
    """
    st = ctx.require_faithful()
    g = gram_superoperator(kind, st).matrix
    s_dag = superop.matrix.conj().T
    return SuperOperator(np.linalg.solve(g, s_dag @ g))


@dataclass(frozen=True)
class SymmetryReport:
    symmetric: bool
    deviation: float


def check_detailed_balance(kind: str, ctx: GeneratorContext) -> SymmetryReport:
    """Deviation of the generator from self-adjointness in the given inner product.

    ``symmetric`` compares the max-norm deviation against the generator
    scale, floored at one so that numerically-zero generators classify as
    symmetric rather than amplifying rounding dust.
    """
    dual = dual_superoperator(kind, ctx, ctx.heisenberg)
    deviation = float(np.max(np.abs(ctx.heisenberg.matrix - dual.matrix)))
    scale = float(np.max(np.abs(ctx.heisenberg.matrix)))
    return SymmetryReport(deviation <= SYMMETRY_REL_TOL * max(scale, 1.0), deviation)


def is_kms_symmetric(ctx: GeneratorContext) -> bool:
    return check_detailed_balance("KMS", ctx).symmetric


def bohr_frequencies(ctx: GeneratorContext) -> list[float] | None:
    """Frequencies omega_j with Delta_sigma(L_j) = exp(-omega_j) L_j, if they exist.

    Returns None as soon as one jump fails to be an eigenvector of the
    modular operator (relative residual above BOHR_REL_TOL).
    """
    st = ctx.require_faithful()
    lind = ctx.require_jumps()
    omegas: list[float] = []
    for l in lind.jumps:
        norm2 = np.vdot(l, l).real
        if norm2 < 1e-28:
            omegas.append(0.0)
            continue
        image = spectral_transform("delta_power", st, l, power=1.0)
        c = np.vdot(l, image) / norm2
        residual = np.linalg.norm(image - c * l) / np.linalg.norm(image)
        if residual > BOHR_REL_TOL or c.real <= 0 or abs(c.imag) > BOHR_REL_TOL * abs(c):
            return None
        omegas.append(float(-np.log(c.real)))
    return omegas


def kms_canonical_hamiltonian(ctx: GeneratorContext) -> np.ndarray:
    """Canonical Hamiltonian of a KMS-aligned jump family:
    (i/2) int_0^inf exp(-t sigma^(1/2)) [sum L_j* L_j, sigma^(1/2)] exp(-t sigma^(1/2)) dt,
    which acts spectrally as the entrywise multiplier -tanh(ln(s_i/s_j)/4).

    Requires sigma^(1/2) L_j* sigma^(-1/2) = L_j per jump; checked before
    evaluating. With this H the assembled generator is KMS-symmetric and
    fixes sigma.
    """
    st = ctx.require_faithful()
    lind = ctx.require_jumps()
    for i, l in enumerate(lind.jumps):
        aligned = spectral_transform("delta_power", st, l.conj().T, power=0.5)
        scale = max(float(np.linalg.norm(l)), 1e-300)
        if np.linalg.norm(aligned - l) / scale > ALIGNMENT_TOL:
            raise ValidationError(f"jump {i} violates the KMS alignment condition")
    kappa = lind._kappa
    h = -0.5j * spectral_transform("tanh_log_quarter", st, kappa)
    return require_hermitian(h, tol=1e-10, name="canonical Hamiltonian")


# ---------------------------------------------------------------------------
# Dirichlet form and Fisher information
# ---------------------------------------------------------------------------

def dirichlet_form(ctx: GeneratorContext, x) -> float:
    """Symmetrized Dirichlet form -Re <X, L(X)>_KMS."""
    st = ctx.require_faithful()
    x = as_complex_matrix(x, "X")
    lx = ctx.heisenberg.apply(x)
    return float(-inner_product("KMS", st, x, lx).real)


def fisher_information(ctx: GeneratorContext, rho) -> float:
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


def gauge_equivalence_check(l1: Lindbladian, l2: Lindbladian, tol: float = 1e-9) -> bool:
    """Whether two parametrizations define the same generator.

    Decided at the superoperator level; the unitary/shift parametrization of
    equivalent pairs is only used to construct positive test cases.
    """
    if l1.dim != l2.dim or l1.k != l2.k:
        raise DimensionMismatchError("gauge comparison requires equal dimension and jump count")
    m1 = l1.heisenberg_superoperator().matrix
    m2 = l2.heisenberg_superoperator().matrix
    return bool(np.max(np.abs(m1 - m2)) <= tol)
