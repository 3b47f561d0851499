"""Dense Hermitian matrix utilities, sigma-weighted inner products, and
modular-operator spectral calculus.

Everything downstream (generators, tilted spectra, functional inequalities)
is built on three ingredients collected here:

  * validated states (density_matrix) and faithful (full-rank) states,
    the latter carrying a cached eigendecomposition so that arbitrary
    fractional powers are cheap;
  * the GNS / KMS / BKM inner products, defined once by their Gram maps,
    which are diagonal in sigma's eigenbasis (gram_weights); inner
    products and weighted duals are entrywise scalings there;
  * powers Delta^p of the modular operator Delta: X -> sigma X sigma^{-1},
    applied entrywise in the eigenbasis.

Generators, channels and other superoperators are plain dim^2 x dim^2
complex arrays in the column-stacking convention: vec(X)[j*dim + i] =
X[i, j], so the matrix unit |i><j| maps to basis index j*dim + i and the
map X -> A X B has matrix kron(B.T, A).

A sum of such maps over k pairs (the jump part sum_j L_j* X L_j of a
generator) is one matrix product, not k Kronecker products:

    sum_j kron(B_j.T, A_j)[(a,b),(c,e)] = sum_j B_j[c,a] A_j[b,e],

the (d^2 x k) stack of the B_j times the (k x d^2) stack of the A_j,
reshaped and transposed to (a,b,c,e) (left_right_sum_matrix, the one
builder; a single map X -> A X B is the case k = 1).

Hermitian matrices have one real coordinate system (hermitian_coordinates),
in which the trajectory stepper, the W1 certificate and the record
functionals work; a map enters it by its Heisenberg matrix.

top_eigenpair is a Lanczos iteration for the top eigenpair of a Hermitian
product operator; when it is used is decided in deviation.
"""

from __future__ import annotations

import math

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
FAITHFUL_EPS = 1e-12

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


def as_matrix_stack(mats, dim: int, name: str = "matrix") -> np.ndarray:
    """The (k, dim, dim) complex stack of dim x dim matrices, k = 0 allowed:
    a complex array of that shape as it is, any other sequence copied in."""
    if isinstance(mats, np.ndarray) and mats.dtype == complex and mats.shape[1:] == (dim, dim):
        return mats
    stack = np.empty((len(mats), dim, dim), dtype=complex)
    for i, m in enumerate(mats):
        m = as_complex_matrix(m, f"{name} {i}")
        require_same_dim(stack[i], m)
        stack[i] = m
    return stack


def hermitian_part(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().T)


# Side of the square blocks hermitianize works through.
HERMITIANIZE_BLOCK = 128


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Overwrite the square matrix ``a`` with its Hermitian part and return it.

    Entry for entry the same numbers as hermitian_part(a), but made one
    pair of mirrored HERMITIANIZE_BLOCK-sized blocks at a time, so no second
    copy of ``a`` is ever made.
    """
    n = a.shape[0]
    for i in range(0, n, HERMITIANIZE_BLOCK):
        for j in range(i, n, HERMITIANIZE_BLOCK):
            upper = a[i:i + HERMITIANIZE_BLOCK, j:j + HERMITIANIZE_BLOCK]
            lower = a[j:j + HERMITIANIZE_BLOCK, i:i + HERMITIANIZE_BLOCK]
            part = 0.5 * (upper + lower.conj().T)
            upper[...] = part
            if j != i:
                lower[...] = part.conj().T
    return a


def require_hermitian(a, tol: float = HERM_TOL, name: str = "matrix") -> np.ndarray:
    """Check hermiticity in max norm and return the symmetrized matrix.

    Symmetrizing after the check removes round-off asymmetry before any
    eigendecomposition.
    """
    a = as_complex_matrix(a, name)
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if defect > tol:
        raise NotHermitianError(f"{name} deviates from Hermitian by {defect:.3e} > {tol:.1e}")
    return hermitian_part(a)


def require_same_dim(*mats) -> int:
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatchError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def density_matrix(a, name: str) -> np.ndarray:
    """The state ``a`` as a validated density matrix: Hermitian within
    HERM_TOL (then symmetrized), trace one within TRACE_TOL and positive
    semidefinite. Eigenvalues in [-PSD_TOL, 0) are clipped to zero and the
    trace is renormalized afterwards; anything more negative is an error.
    Every entry point that takes a state calls this once."""
    m = require_hermitian(a, name=name)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"{name}: density operator trace {tr!r} differs from 1 by more than {TRACE_TOL:.1e}")
    w, v = np.linalg.eigh(m)
    if w[0] < -PSD_TOL:
        raise ValidationError(f"{name}: density operator has eigenvalue {w[0]:.3e} below -{PSD_TOL:.1e}")
    if w[0] < 0.0:
        w = np.clip(w, 0.0, None)
        m = (v * w) @ v.conj().T
        m = hermitian_part(m / np.trace(m).real)
    return m


class FaithfulState:
    """A full-rank state with its spectral decomposition cached.

    Faithful means the smallest eigenvalue exceeds FAITHFUL_EPS (1e-12);
    a state at or below it raises NotFaithfulError. Eigenvalues are stored
    in descending order together with the unitary of eigenvectors, so
    fractional powers sigma^p and modular powers Delta^p are a diagonal
    rescaling away.
    """

    def __init__(self, rho):
        m = density_matrix(rho, "sigma")
        w, v = np.linalg.eigh(m)
        order = np.argsort(w)[::-1]
        w, v = w[order], v[:, order]
        if w[-1] <= FAITHFUL_EPS:
            raise NotFaithfulError(f"smallest eigenvalue {w[-1]:.3e} <= faithfulness threshold "
                                   f"{FAITHFUL_EPS:.1e}")
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


def add_left_right_pair(m: np.ndarray, left: np.ndarray, right: np.ndarray,
                        diagonal: np.ndarray | None = None) -> np.ndarray:
    """Add to the C-contiguous d^2 x d^2 matrix ``m``, in place, the matrix
    of X -> A X + X B, that is kron(I, A) + kron(B.T, I), and return ``m``.

    In the (a, b, c, e) view of m, kron(I, A) is A on the d blocks
    (i, ., i, .) and kron(B.T, I) is B.T on the d blocks (., i, ., i). The
    two meet only on the diagonal of m, whose entry (a, b), (a, b) gets
    diagonal[a, b] (default B[a, a] + A[b, b]); off it each entry gets a
    single term. No d^4 temporary is made.
    """
    d = left.shape[0]
    m4 = m.reshape(d, d, d, d)
    if diagonal is None:
        diagonal = np.add.outer(right.diagonal(), left.diagonal())
    for blocks, term in ((np.einsum("ibic->ibc", m4), left), (np.einsum("aici->iac", m4), right.T)):
        off = term.copy()
        np.fill_diagonal(off, 0.0)
        blocks += off
    on_diagonal = np.einsum("abab->ab", m4)
    on_diagonal += diagonal
    return m


def rotate_superoperator(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Overwrite the C-contiguous d^2 x d^2 matrix ``m`` with K^dagger M K,
    for K = kron(conj(U), U) and a unitary U, and return ``m``: the matrix
    of the superoperator M acting on matrices written in the basis of U's
    columns (X = U X_u U^dagger). rotate_superoperator(., U^dagger) undoes it.

    Entry ((r,s),(t,v)) is sum U[p,r] conj(U[q,s]) M[(p,q),(m,n)]
    conj(U[m,t]) U[n,v], contracted in the order p, q, m, n. In the
    (p, q, m, n) view of m, p is contracted first, d^2 columns of the
    (d, d^3) leading-index view at a time; then each (q, m, n) slab of d^3
    entries, in which q, m and n in turn are the leading index, each
    contraction one product of the (d, d^2) view, transposed, with a d x d
    factor that moves the new index to the back. The scratch is two d^3
    arrays and the cost d^5, against d^6 for the two dense products with K;
    no array of the size of M is made.
    """
    if not (m.flags.c_contiguous and m.flags.writeable):
        raise ValidationError("rotate_superoperator overwrites a C-contiguous, writeable matrix")
    d = u.shape[0]
    n = d * d
    uc = u.conj()
    a = np.empty((n, d), dtype=complex)
    b = np.empty((n, d), dtype=complex)
    leading = m.reshape(d, n * d)
    for c in range(0, n * d, n):
        cols = leading[:, c:c + n]
        np.matmul(u.T, cols, out=a.reshape(d, n))                  # r, (q, m, n)
        cols[...] = a.reshape(d, n)
    for slab in m.reshape(d, d, n):
        np.matmul(slab.reshape(d, n).T, uc, out=a)                 # (m, n), s
        np.matmul(a.reshape(d, n).T, uc, out=b)                    # (n, s), t
        np.matmul(b.reshape(d, n).T, u, out=slab.reshape(n, d))    # (s, t), v
    return m


# ---------------------------------------------------------------------------
# Real coordinates of Hermitian matrices
# ---------------------------------------------------------------------------
#
# The one map between d x d Hermitian matrices and real vectors: the d^2
# coordinates c_k = Tr[E_k X] in the Hermitian basis E: e_aa, then
# (e_ab + e_ba)/sqrt(2) for a < b, then i (e_ab - e_ba)/sqrt(2) for a < b,
# pairs in row-major order. W is the unitary whose columns are the vec(E_k),
# so vec(X) = W c. The basis is orthonormal for the Hilbert-Schmidt
# product, so Tr[X Y] = c(X) . c(Y), the Frobenius norm is |c| and the
# trace is the sum of the first d coordinates. A map Phi enters by its
# Heisenberg matrix H, that of its dual: vec(Phi*(Y)) = H vec(Y), the form
# in which generators are held. In coordinates it is R = (W^dagger H W)^T.

# A map in real coordinates whose dropped imaginary part exceeds this share
# of its largest entry is not Hermiticity-preserving.
HERMITICITY_TOL = 1e-10
_R2 = math.sqrt(0.5)


def _rotate_rows(re: np.ndarray, im: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """(Re, Im) of B (re + i im) for the (d^2, m) arrays ``re``, ``im``,
    with B = W^dagger (sign 1) or W^T (sign -1). Rows are combined through
    strided views, one output pair is made."""
    n = re.shape[0]
    d = math.isqrt(n)
    half = d * (d - 1) // 2
    re4, im4 = re.reshape(d, d, -1), im.reshape(d, d, -1)
    out_re, out_im = np.empty(re.shape), np.empty(re.shape)
    diag = np.arange(d)
    out_re[:d], out_im[:d] = re4[diag, diag], im4[diag, diag]
    row = d
    for a in range(d - 1):
        sym, anti = slice(row, row + d - 1 - a), slice(row + half, row + half + d - 1 - a)
        upper_re, lower_re = re4[a, a + 1:], re4[a + 1:, a]
        upper_im, lower_im = im4[a, a + 1:], im4[a + 1:, a]
        np.add(upper_re, lower_re, out=out_re[sym])
        np.add(upper_im, lower_im, out=out_im[sym])
        # i (u - l) for W^dagger, -i (u - l) for W^T
        np.subtract(lower_im, upper_im, out=out_re[anti])
        np.subtract(upper_re, lower_re, out=out_im[anti])
        row += d - 1 - a
    out_re[d:] *= _R2
    out_im[d:] *= _R2
    if sign < 0:
        out_re[d + half:] *= -1.0
        out_im[d + half:] *= -1.0
    return out_re, out_im


def hermitian_coordinates(x) -> np.ndarray:
    """The real coordinates Re Tr[E_k X] of the d x d matrix X, those of its
    Hermitian part: a (d^2,) array, or (k, d^2) for a (k, d, d) stack."""
    x = np.asarray(x, dtype=complex)
    d = x.shape[-1]
    # X read row by row is vec(X^T), and W^T vec(X^T) is Tr[E_k X].
    cols = x.reshape(-1, d * d).T
    coords = _rotate_rows(cols.real, cols.imag, -1)[0].T
    return coords if x.ndim == 3 else coords[0]


def hermitian_from_coordinates(c) -> np.ndarray:
    """The d x d matrix sum_k c_k E_k of the real coordinates c, exactly
    Hermitian: one matrix for a (d^2,) array, the (k, d, d) stack for
    (k, d^2)."""
    c = np.asarray(c, dtype=float)
    d = math.isqrt(c.shape[-1])
    iu, ju = np.triu_indices(d, 1)
    half = len(iu)
    x = np.empty(c.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    x[..., diag, diag] = c[..., :d]
    upper = (c[..., d:d + half] + 1j * c[..., d + half:]) * _R2
    x[..., iu, ju] = upper
    x[..., ju, iu] = upper.conj()
    return x


def hermitian_map_matrix(h: np.ndarray, what: str) -> np.ndarray:
    """The real d^2 x d^2 matrix R of a Hermiticity-preserving map Phi in
    these coordinates, c(Phi(X)) = R c(X), from the Heisenberg matrix ``h``
    of Phi, that of its dual: R = (W^dagger h W)^T. ``h`` is read through
    its real and imaginary views and released after the first pass, so a
    temporary h is freed before the second pass allocates.
    NumericalError if the dropped imaginary part exceeds HERMITICITY_TOL
    times the largest entry: Phi does not preserve Hermiticity."""
    re, im = _rotate_rows(h.real, h.imag, 1)
    del h
    re, im = _rotate_rows(re.T, im.T, -1)
    dropped = float(np.max(np.abs(im), initial=0.0))
    if dropped > HERMITICITY_TOL * max(float(np.max(np.abs(re), initial=0.0)), dropped):
        raise NumericalError(f"{what} is not Hermiticity-preserving: imaginary part {dropped:.3e} "
                             f"in real coordinates")
    return re


# ---------------------------------------------------------------------------
# Inner products and Gram weights
# ---------------------------------------------------------------------------

def _bkm_coefficients(s: np.ndarray) -> np.ndarray:
    """Divided differences (s_i - s_j)/(ln s_i - ln s_j) with diagonal limit s_i."""
    si = s[:, None]
    sj = s[None, :]
    near = np.abs(si - sj) < BKM_DIAG_REL * si
    denom = np.where(near, 1.0, np.log(si) - np.log(sj))
    coeff = np.where(near, si, (si - sj) / denom)
    return coeff


def gram_weights(kind: str, sigma) -> np.ndarray:
    """Diagonal of the Gram map of the inner product in sigma's eigenbasis.

    With X_e = U^dagger X U for sigma = U diag(s) U^dagger, <X, Y>_kind is
    sum_ij g[i, j] conj(X_e[i, j]) Y_e[i, j], where g[i, j] is s_j (GNS),
    sqrt(s_i s_j) (KMS) or the BKM divided difference of s_i and s_j.
    Returned in vec order, entry j*dim + i holding g[i, j].
    """
    st = _as_state(sigma)
    s = st.eigenvalues
    if kind == "GNS":
        g = np.broadcast_to(s[None, :], (st.dim, st.dim))
    elif kind == "KMS":
        g = np.sqrt(np.outer(s, s))
    elif kind == "BKM":
        g = _bkm_coefficients(s)
    else:
        raise ValidationError(f"unknown inner product kind {kind!r}")
    return g.ravel(order="F")


def inner_product(kind: str, sigma, x, y) -> complex:
    """Sesquilinear sigma-weighted inner product <X, Y> of the given kind.

    GNS: Tr[sigma X* Y];  KMS: Tr[sigma^(1/2) X* sigma^(1/2) Y];
    BKM: integral over t in [0,1] of Tr[sigma^(1-t) X* sigma^t Y]. Each is
    sum_ij g[i, j] conj(X_e[i, j]) Y_e[i, j] in sigma's eigenbasis, with
    the weights g of gram_weights.
    """
    st = _as_state(sigma)
    x = as_complex_matrix(x, "X")
    y = as_complex_matrix(y, "Y")
    require_same_dim(st.matrix, x, y)
    g = gram_weights(kind, st).reshape(st.dim, st.dim, order="F")
    return complex(np.sum(g * st.to_eigenbasis(x).conj() * st.to_eigenbasis(y)))


def dual_in_eigenbasis(left: str, right: str, st: FaithfulState, eigenbasis_matrix: np.ndarray) -> np.ndarray:
    """G_left^(-1) S^dagger G_right for a superoperator S given in sigma's
    eigenbasis, where the Gram maps G are the diagonal gram_weights: entry
    (a, b) is conj(S[b, a]) g_right[b] / g_left[a]. With left == right it
    is the dual of S for that inner product, <X, S Y> = <S' X, Y>. The
    weights g_right[b] / g_left[a] are made d rows at a time, so each
    temporary holds d^3 entries.
    """
    inverse_left, right_weights = 1.0 / gram_weights(left, st), gram_weights(right, st)
    dual = np.empty(eigenbasis_matrix.shape, dtype=complex)
    for start in range(0, len(dual), st.dim):
        rows = slice(start, start + st.dim)
        np.multiply(eigenbasis_matrix[:, rows].T, np.outer(inverse_left[rows], right_weights), out=dual[rows])
    return np.conjugate(dual, out=dual)


# ---------------------------------------------------------------------------
# Modular spectral calculus
# ---------------------------------------------------------------------------

def spectral_transform(sigma, x, power: float) -> np.ndarray:
    """Apply Delta_sigma^power to X, entrywise in sigma's eigenbasis:
    element (i, j) is scaled by (s_i/s_j)^power."""
    st = _as_state(sigma)
    x = as_complex_matrix(x, "X")
    require_same_dim(st.matrix, x)
    s = st.eigenvalues
    coeff = (s[:, None] / s[None, :]) ** power
    return st.from_eigenbasis(coeff * st.to_eigenbasis(x))


# ---------------------------------------------------------------------------
# Top eigenpair of a Hermitian matrix
# ---------------------------------------------------------------------------

def top_eigenpair(a: np.ndarray, start: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Largest eigenvalue of the Hermitian matrix ``a`` and a unit vector for
    it, by Lanczos with full reorthogonalisation started from ``start``.
    Only ``a.shape`` and ``a @ v`` are used, so ``a`` may be an operator
    that forms its products without the matrix.

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
