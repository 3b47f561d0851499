"""Dense Hermitian matrix utilities, sigma-weighted inner products, and
modular-operator spectral calculus.

Everything downstream (generators, tilted spectra, functional inequalities)
is built on three ingredients collected here:

  * validated wrappers for Hermitian operators, density operators and
    faithful (full-rank) states, the latter carrying a cached
    eigendecomposition so that arbitrary fractional powers are cheap;
  * the GNS / KMS / BKM inner products and the corresponding Gram
    superoperators;
  * spectral transforms f(Delta) of the modular operator
    Delta: X -> sigma X sigma^{-1}, applied entrywise in the eigenbasis.

Superoperators are stored as dim^2 x dim^2 matrices in the column-stacking
convention: vec(X)[j*dim + i] = X[i, j], so the matrix unit |i><j| maps to
basis index j*dim + i and the map X -> A X B has matrix kron(B.T, A).

A sum of such maps over k pairs (the jump part sum_j L_j* X L_j of a
generator) is one matrix product, not k Kronecker products:

    sum_j kron(B_j.T, A_j)[(a,b),(c,e)] = sum_j B_j[c,a] A_j[b,e],

the (d^2 x k) stack of the B_j times the (k x d^2) stack of the A_j,
reshaped and transposed to (a,b,c,e) (left_right_sum_matrix).

Top eigenvalues of tilted generators come from top_eigenpair, a Lanczos
iteration with full reorthogonalisation, once the matrix size reaches
deviation.LANCZOS_MIN_SIZE; below it, and when Lanczos does not converge,
from a full eigvalsh. The value reported at the optimal tilt lam* is that
of one dense eigh, which the iterative value must match there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
FAITHFUL_EPS = 1e-12
ROUNDTRIP_TOL = 1e-12

# Relative eigenvalue spacing below which the BKM divided difference
# (s_i - s_j)/(ln s_i - ln s_j) switches to its diagonal limit s_i.
BKM_DIAG_REL = 1e-12

# Lanczos stopping rule for top_eigenpair: residual relative to the
# spectral scale, and the step budget before the caller solves densely.
LANCZOS_RTOL = 1e-12
LANCZOS_MAX_STEPS = 60


class QdevError(Exception):
    """Base class for all package errors."""


class ValidationError(QdevError):
    """Input violates a documented precondition or schema."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class NotHermitianError(ValidationError):
    """Matrix fails the hermiticity tolerance."""


class NotFaithfulError(ValidationError):
    """State is not full rank; sigma-weighted calculus is undefined."""


class NumericalError(QdevError):
    """A numerical routine failed to reach its contract."""


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


def hermitian_part(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().T)


def hermiticity_defect(a) -> float:
    a = np.asarray(a, dtype=complex)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(a, tol: float = HERM_TOL, name: str = "matrix") -> np.ndarray:
    """Check hermiticity in max norm and return the symmetrized matrix.

    Symmetrizing after the check removes round-off asymmetry before any
    eigendecomposition.
    """
    a = as_complex_matrix(a, name)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise NotHermitianError(f"{name} deviates from Hermitian by {defect:.3e} > {tol:.1e}")
    return hermitian_part(a)


def require_same_dim(*mats) -> int:
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatchError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A validated Hermitian matrix."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = require_hermitian(self.entries, name="HermitianOperator")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])

    @property
    def matrix(self) -> np.ndarray:
        return self.entries


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive semidefinite, trace-one matrix.

    Eigenvalues in [-PSD_TOL, 0) are clipped to zero on construction and the
    trace is renormalized afterwards; anything more negative is an error.
    """

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = require_hermitian(self.entries, name="DensityOperator")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"density operator trace {tr!r} differs from 1 by more than {TRACE_TOL:.1e}")
        w, v = np.linalg.eigh(m)
        if w[0] < -PSD_TOL:
            raise ValidationError(f"density operator has eigenvalue {w[0]:.3e} below -{PSD_TOL:.1e}")
        if w[0] < 0.0:
            w = np.clip(w, 0.0, None)
            m = (v * w) @ v.conj().T
            m = hermitian_part(m / np.trace(m).real)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])

    @property
    def matrix(self) -> np.ndarray:
        return self.entries


class FaithfulState:
    """A full-rank state with its spectral decomposition cached.

    Eigenvalues are stored in descending order together with the unitary of
    eigenvectors, so fractional powers sigma^p and modular spectral
    transforms are a diagonal rescaling away.
    """

    def __init__(self, rho, threshold: float = FAITHFUL_EPS):
        if isinstance(rho, DensityOperator):
            m = rho.matrix
        else:
            m = DensityOperator(np.asarray(rho, dtype=complex)).matrix
        w, v = np.linalg.eigh(m)
        order = np.argsort(w)[::-1]
        w, v = w[order], v[:, order]
        if w[-1] <= threshold:
            raise NotFaithfulError(f"smallest eigenvalue {w[-1]:.3e} <= faithfulness threshold {threshold:.1e}")
        unit_defect = np.max(np.abs(v.conj().T @ v - np.eye(len(w))))
        recon_defect = np.max(np.abs((v * w) @ v.conj().T - m))
        if unit_defect > 1e-10 or recon_defect > 1e-10:
            raise NumericalError("eigendecomposition of the state failed its tolerance")
        self.matrix = m
        self.dim = m.shape[0]
        self.eigenvalues = w
        self.eigenvectors = v
        self._powers: dict[float, np.ndarray] = {}

    def power(self, p: float) -> np.ndarray:
        """sigma**p via the cached eigendecomposition."""
        key = float(p)
        cached = self._powers.get(key)
        if cached is None:
            cached = (self.eigenvectors * self.eigenvalues**p) @ self.eigenvectors.conj().T
            self._powers[key] = cached
        return cached

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        return self.eigenvectors.conj().T @ x @ self.eigenvectors

    def from_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        return self.eigenvectors @ x @ self.eigenvectors.conj().T


def _as_state(sigma) -> FaithfulState:
    if isinstance(sigma, FaithfulState):
        return sigma
    return FaithfulState(sigma)


# ---------------------------------------------------------------------------
# Vectorization and superoperators (column-stacking convention)
# ---------------------------------------------------------------------------

def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(X)[j*d+i] = X[i, j]."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise DimensionMismatchError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((dim, dim), order="F")


def left_right_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of X -> A X B in the column-stacking convention."""
    return np.kron(np.asarray(b, dtype=complex).T, np.asarray(a, dtype=complex))


def left_right_sum_matrix(lefts, rights) -> np.ndarray:
    """Matrix of X -> sum_j A_j X B_j, that is sum_j kron(B_j.T, A_j).

    Entry ((a,b),(c,e)) of the sum is sum_j B_j[c,a] A_j[b,e]: one product
    of the (d^2 x k) stack of the B_j with the (k x d^2) stack of the A_j,
    reshaped and transposed to (a,b,c,e).
    """
    a = np.asarray(lefts, dtype=complex)
    b = np.asarray(rights, dtype=complex)
    if a.ndim != 3 or a.shape != b.shape or a.shape[1] != a.shape[2]:
        raise DimensionMismatchError(f"need two equal stacks of square matrices, got {a.shape}, {b.shape}")
    k, d = a.shape[:2]
    prod = b.reshape(k, d * d).T @ a.reshape(k, d * d)
    return prod.reshape(d, d, d, d).transpose(1, 2, 0, 3).reshape(d * d, d * d)


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """A linear map on dim x dim matrices, stored as a dim^2 x dim^2 matrix."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"superoperator matrix must be square, got {m.shape}")
        d = int(round(np.sqrt(m.shape[0])))
        if d * d != m.shape[0]:
            raise DimensionMismatchError(f"superoperator size {m.shape[0]} is not a perfect square")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", d)

    def apply(self, x) -> np.ndarray:
        x = as_complex_matrix(x)
        if x.shape[0] != self.dim:
            raise DimensionMismatchError(f"operand dim {x.shape[0]} != superoperator dim {self.dim}")
        return unvec(self.matrix @ vec(x), self.dim)

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        if other.dim != self.dim:
            raise DimensionMismatchError("composing superoperators of different dimension")
        return SuperOperator(self.matrix @ other.matrix)

    def adjoint(self) -> "SuperOperator":
        """Hilbert-Schmidt adjoint."""
        return SuperOperator(self.matrix.conj().T)

    @staticmethod
    def identity(dim: int) -> "SuperOperator":
        return SuperOperator(np.eye(dim * dim, dtype=complex))


def to_superoperator(mapping, dim: int) -> SuperOperator:
    """Build the matrix of a map given as a callable on dim x dim matrices.

    Columns are the vectorized images of the matrix units, so the round trip
    apply(to_superoperator(m), X) == m(X) holds on all matrix units.
    """
    m = np.zeros((dim * dim, dim * dim), dtype=complex)
    unit = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        for i in range(dim):
            unit[i, j] = 1.0
            m[:, j * dim + i] = vec(np.asarray(mapping(unit), dtype=complex))
            unit[i, j] = 0.0
    return SuperOperator(m)


def hermitian_from_params(params: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix from dim**2 real parameters: the diagonal, then the
    real parts, then the imaginary parts of the strict upper triangle in
    row-major order."""
    tri = np.triu_indices(dim, k=1)
    x = np.zeros((dim, dim), dtype=complex)
    x[np.diag_indices(dim)] = params[:dim]
    re = params[dim:dim + tri[0].size]
    im = params[dim + tri[0].size:]
    x[tri] = re + 1j * im
    x[(tri[1], tri[0])] = re - 1j * im
    return x


def hermitian_to_params(x: np.ndarray) -> np.ndarray:
    """Inverse of hermitian_from_params on Hermitian matrices."""
    tri = np.triu_indices(x.shape[0], k=1)
    return np.concatenate([np.diag(x).real, x[tri].real, x[tri].imag])


# ---------------------------------------------------------------------------
# Inner products and Gram superoperators
# ---------------------------------------------------------------------------

INNER_PRODUCT_KINDS = ("GNS", "KMS", "BKM")


def _bkm_coefficients(s: np.ndarray) -> np.ndarray:
    """Divided differences (s_i - s_j)/(ln s_i - ln s_j) with diagonal limit s_i."""
    si = s[:, None]
    sj = s[None, :]
    near = np.abs(si - sj) < BKM_DIAG_REL * si
    denom = np.where(near, 1.0, np.log(si) - np.log(sj))
    coeff = np.where(near, si, (si - sj) / denom)
    return coeff


def inner_product(kind: str, sigma, x, y) -> complex:
    """Sesquilinear sigma-weighted inner product <X, Y> of the given kind.

    GNS: Tr[sigma X* Y];  KMS: Tr[sigma^(1/2) X* sigma^(1/2) Y];
    BKM: integral over t in [0,1] of Tr[sigma^(1-t) X* sigma^t Y], evaluated
    in sigma's eigenbasis with the divided-difference coefficients.
    """
    if kind not in INNER_PRODUCT_KINDS:
        raise ValidationError(f"unknown inner product kind {kind!r}")
    st = _as_state(sigma)
    x = as_complex_matrix(x, "X")
    y = as_complex_matrix(y, "Y")
    require_same_dim(st.matrix, x, y)
    if kind == "GNS":
        return complex(np.trace(st.matrix @ x.conj().T @ y))
    if kind == "KMS":
        r = st.power(0.5)
        return complex(np.trace(r @ x.conj().T @ r @ y))
    xe = st.to_eigenbasis(x)
    ye = st.to_eigenbasis(y)
    coeff = _bkm_coefficients(st.eigenvalues)
    return complex(np.sum(coeff * xe.conj() * ye))


def kms_norm(sigma, x) -> float:
    return float(np.sqrt(max(inner_product("KMS", sigma, x, x).real, 0.0)))


def gram_superoperator(kind: str, sigma) -> SuperOperator:
    """Gram map G of the inner product: <X, Y>_kind = vec(X)^dagger G vec(Y)."""
    st = _as_state(sigma)
    if kind == "GNS":
        return SuperOperator(left_right_matrix(np.eye(st.dim), st.matrix))
    if kind == "KMS":
        r = st.power(0.5)
        return SuperOperator(left_right_matrix(r, r))
    if kind == "BKM":
        return SuperOperator(spectral_transform_matrix("bkm_M", st))
    raise ValidationError(f"unknown inner product kind {kind!r}")


# ---------------------------------------------------------------------------
# Modular spectral calculus
# ---------------------------------------------------------------------------

SPECTRAL_KINDS = ("delta_power", "tanh_log_quarter", "bkm_M", "bkm_M_inverse")


def _spectral_coefficients(kind: str, st: FaithfulState, power: float | None) -> np.ndarray:
    s = st.eigenvalues
    if kind == "delta_power":
        if power is None:
            raise ValidationError("delta_power requires the exponent argument")
        return (s[:, None] / s[None, :]) ** power
    if kind == "tanh_log_quarter":
        # Diagonal entries (s_i == s_j) map to tanh(0) = 0 by construction.
        return np.tanh(0.25 * (np.log(s)[:, None] - np.log(s)[None, :]))
    if kind == "bkm_M":
        return _bkm_coefficients(s)
    if kind == "bkm_M_inverse":
        return 1.0 / _bkm_coefficients(s)
    raise ValidationError(f"unknown spectral transform kind {kind!r}")


def spectral_transform(kind: str, sigma, x, power: float | None = None) -> np.ndarray:
    """Apply f(Delta_sigma) to X entrywise in sigma's eigenbasis.

    Element (i, j) is scaled by f(s_i/s_j), with f = x**p for delta_power,
    tanh(ln(x)/4) for tanh_log_quarter, and the BKM divided difference (or
    its reciprocal) for bkm_M / bkm_M_inverse.
    """
    st = _as_state(sigma)
    x = as_complex_matrix(x, "X")
    require_same_dim(st.matrix, x)
    coeff = _spectral_coefficients(kind, st, power)
    return st.from_eigenbasis(coeff * st.to_eigenbasis(x))


def spectral_transform_matrix(kind: str, sigma, power: float | None = None) -> np.ndarray:
    """Superoperator matrix of spectral_transform(kind, sigma, .)."""
    st = _as_state(sigma)
    coeff = _spectral_coefficients(kind, st, power)
    u = st.eigenvectors
    # In the eigenbasis the map is diagonal with entries coeff[i, j] on the
    # matrix unit |i><j|, whose vec index is j*d + i, i.e. diag = vec(coeff).
    diag = vec(coeff)
    basis_change = left_right_matrix(u, u.conj().T)
    return basis_change @ (diag[:, None] * left_right_matrix(u.conj().T, u))


def gamma_map(power: float, sigma, x) -> np.ndarray:
    """Sandwich map Gamma_sigma^power: X -> sigma^(power/2) X sigma^(power/2)."""
    st = _as_state(sigma)
    x = as_complex_matrix(x, "X")
    require_same_dim(st.matrix, x)
    half = st.power(power / 2.0)
    return half @ x @ half


def gamma_matrix(power: float, sigma) -> np.ndarray:
    st = _as_state(sigma)
    half = st.power(power / 2.0)
    return left_right_matrix(half, half)


# ---------------------------------------------------------------------------
# Top eigenpair of a Hermitian matrix
# ---------------------------------------------------------------------------

def top_eigenpair(a: np.ndarray, start: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Largest eigenvalue of the Hermitian matrix ``a`` and a unit vector for
    it, by Lanczos with full reorthogonalisation started from ``start``.

    Returns (theta, y, converged). Converged means the Ritz residual
    |a y - theta y| = beta_j |s_j| fell to LANCZOS_RTOL * max(1, largest
    |Ritz value|) within LANCZOS_MAX_STEPS steps; theta is then within
    that residual of an eigenvalue of ``a``, and it is the top one unless
    ``start`` is orthogonal to the top eigenvector (Parlett 1998, ch. 13).
    When not converged, (theta, y) is the last Ritz pair, still a good
    warm start.
    """
    n = a.shape[0]
    steps = min(LANCZOS_MAX_STEPS, n)
    basis = np.empty((steps, n), dtype=complex)
    basis_h = np.empty((steps, n), dtype=complex)
    t = np.zeros((steps, steps))
    v = start / np.linalg.norm(start)
    for j in range(steps):
        basis[j] = v
        np.conjugate(v, out=basis_h[j])
        q, q_h = basis[:j + 1], basis_h[:j + 1]
        w = a @ v
        t[j, j] = np.vdot(v, w).real
        w -= (q_h @ w) @ q
        w -= (q_h @ w) @ q
        beta = np.linalg.norm(w)
        theta, s = np.linalg.eigh(t[:j + 1, :j + 1])
        if not (math.isfinite(theta[0]) and math.isfinite(theta[-1])):
            return math.nan, start, False
        converged = beta * abs(s[-1, -1]) <= LANCZOS_RTOL * max(1.0, -theta[0], theta[-1])
        if converged or j == steps - 1:
            y = s[:, -1] @ q
            return float(theta[-1]), y / np.linalg.norm(y), bool(converged)
        t[j, j + 1] = t[j + 1, j] = beta
        v = w / beta
