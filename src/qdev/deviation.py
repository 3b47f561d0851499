"""Tilted generators, scaled cumulant generating function, finite-time
deviation bounds, and the large-deviation rate function.

The estimator of a monitored channel pair deviates from its stationary mean
with probability controlled by

    P(E_t - m >= r) <= prefactor * exp(-t * sup_{lam >= 0} [lam.(m+r) - e(lam)]),

where e(lam) is the top eigenvalue of the KMS-symmetrized tilted generator.
The tilt adds, per Brownian channel, lam_j (L_u* X + X L_u + lam_j X / 2)
and, per Poisson channel, (exp(lam_j) - 1) L_u* X L_u. Everything here is
evaluated spectrally: in sigma's eigenbasis the square root of the KMS Gram
is diagonal, and conjugating by it turns the symmetrized tilted generator
into an ordinary Hermitian matrix whose top eigenvalue is e(lam), a concave
maximization away from the bound.
That maximization is a projected Newton ascent whose gradient
(Hellmann-Feynman) and curvature come from the eigensolve each evaluation
of e already makes (TiltedFamily.value, then TiltedFamily.derivatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatchError,
    NumericalError,
    ValidationError,
    add_left_right_pair,
    density_matrix,
    require_same_dim,
    top_eigenpair,
)
from .lindblad import (
    GeneratorContext,
    NotKmsSymmetricError,
    check_detailed_balance,
)

POISSON_LAMBDA_CAP = 700.0   # exp overflow guard
BROWNIAN_LAMBDA_CAP = 1e6
EIG_GAP_DEGENERATE = 1e-8

# Projected Newton ascent of the tilt (_maximize_tilt).
NEWTON_MAX_STEPS = 100
MAX_HALVINGS = 40
ARMIJO = 1e-4
# Stop once the projected gradient is at most this times max(1, |target|).
NEWTON_RTOL = 1e-12
# A result whose final projected gradient exceeds this times
# max(1, |target|) is reported "unconverged", not "ok".
RESIDUAL_RTOL = 1e-8
# Rounding of the objective, relative to max(1, |e|, |objective|): a step
# may lose this much and still be taken.
OBJECTIVE_NOISE_RTOL = 1e-13
# Bertsekas' eps: largest distance to a bound at which a coordinate whose
# gradient points past the bound is held there.
ACTIVE_EPS = 1e-6
# BFGS skips updates whose curvature s.y is below this times |s| |y|.
CURVATURE_EPS = 1e-12
# Step of the central differences that give a degenerate top eigenvalue
# its gradient.
FINITE_DIFFERENCE_STEP = 1e-6

# Size d^2 of the tilted matrix from which TiltedFamily.value finds the top
# eigenvalue by warm-started Lanczos instead of a dense eigh. Measured
# (bench/eig_crossover.py, BENCH_3.json and BENCH_4.json): Lanczos wins
# from n = 64 on depolarizing models (about 5 matvecs a solve); on generic
# ones (about 25) it ties with the dense Newton ascent at n = 144 and wins
# from n = 256, so the cut-over is d = 12.
LANCZOS_MIN_SIZE = 144
# The warm start is the last top vector plus this weight of a fixed-seed
# vector, so that it is never orthogonal to the new top eigenvector.
WARM_START_MIX = 1e-8
WARM_START_SEED = 0x5EED
# Largest admitted |TiltedFamily.value - dense eigvalsh| top eigenvalue at
# lam*, relative to max(1, |e|).
TOP_EIG_CHECK_RTOL = 1e-10


class MeasurementSetup:
    """Orthonormal tilt directions split into Brownian and Poisson channels.

    ``directions`` is an (ell, k) real array of orthonormal rows; the first
    ``q`` rows drive Brownian (homodyne) channels, the rest Poisson
    (counting) channels. Each row defines the monitored jump
    L_u = sum_m u_m L_m; ``monitored`` is their (ell, d, d) stack, one
    contraction of the directions with the jump stack, and ``brownian``
    the (ell,) mask of the Brownian rows. ``observables`` is the (ell, d, d)
    stack of the Hermitian observables the channels record: L_u + L_u^dagger
    for a Brownian channel, L_u^dagger L_u for a counting channel.
    """

    def __init__(self, ctx: GeneratorContext, directions, q: int):
        lind = ctx.lindbladian
        u = np.atleast_2d(np.asarray(directions, dtype=float))
        ell, k = u.shape
        if k != lind.k:
            raise DimensionMismatchError(f"directions have {k} components, generator has {lind.k} jumps")
        # q = 0 (pure counting setup) is admitted: the scalar Poisson
        # fixtures need it even though the multichannel statement assumes
        # at least one diffusive channel.
        if not 0 <= q <= ell <= k:
            raise ValidationError(f"need 0 <= q <= ell <= k, got q={q}, ell={ell}, k={k}")
        gram = u @ u.T
        if np.max(np.abs(np.diag(gram) - 1.0)) > 1e-12:
            raise ValidationError("direction vectors must have unit norm")
        if ell > 1 and np.max(np.abs(gram - np.diag(np.diag(gram)))) > 1e-12:
            raise ValidationError("direction vectors must be pairwise orthogonal")
        self.ctx = ctx
        self.directions = u
        self.ell = ell
        self.q = q
        self.brownian = np.arange(ell) < q
        self.monitored = np.tensordot(u, lind.jumps, axes=1)
        adjoints = self.monitored.conj().swapaxes(1, 2)
        self.observables = np.concatenate([self.monitored[:q] + adjoints[:q],
                                           adjoints[q:] @ self.monitored[q:]])


def mean_vector(setup: MeasurementSetup) -> np.ndarray:
    """Stationary means Tr[sigma O_u] of the recorded observables O_u:
    L_u + L_u* per Brownian channel, L_u* L_u per Poisson channel."""
    st = setup.ctx.require_faithful()
    return np.array([np.trace(st.matrix @ o).real for o in setup.observables])


class TiltedFamily:
    """The KMS-conjugated tilted generator, as B0 and one d x d operator per
    channel piece, and the one eigensolve per tilt that the optimizer makes.

    B(lam) = B0 + sum_{j<=q} lam_j B_phi_j + |lam^B|^2/2 * I
                + sum_{j>q} (exp(lam_j)-1) B_psi_j,
    and the scaled cumulant generating function is its top eigenvalue.
    Every piece is written in sigma's eigenbasis (GeneratorContext), which
    leaves the spectrum of B(lam) unchanged. There, with h = diag(s^(1/4))
    and the rotated jump L_e = U^dagger L_u U, each channel piece is a map
    of one d x d operator A = h L_e^dagger h^(-1) (``operators``):
    B_phi: X -> herm(A) X + X herm(A), and
    B_psi: X -> (A X A^dagger + A^dagger X A)/2
    (the KMS-conjugated L_e^dagger X + X L_e and L_e^dagger X L_e, made
    Hermitian; herm(A) is held for a Brownian channel).

    The regime is decided here, once, by the size d^2 of B(lam). Below
    LANCZOS_MIN_SIZE the family holds the dense (ell, d^2, d^2) stack of
    the pieces, built from the operators; value(lam) is a dense eigh, whose
    spectrum it keeps, and derivatives(lam) reads the gradient and the
    perturbation-theory Hessian from it. From LANCZOS_MIN_SIZE on it holds
    no more: value(lam) runs Lanczos on products B(lam) v (operator), at
    d^4 for B0 and d^3 per piece, warm-started from the last top vector,
    and derivatives(lam) reads the gradient from that vector and gives no
    Hessian. B0 is one d^2 x d^2 array made in place from the generator in
    sigma's eigenbasis that it takes from the context (which then keeps no
    copy of it). matrix(lam) makes one new d^2 x d^2 array, for the dense
    solves and for checked_top, the check of the ascent's result at lam*.
    """

    def __init__(self, setup: MeasurementSetup):
        ctx = setup.ctx
        st = ctx.require_faithful()
        self.setup = setup
        d = ctx.dim
        self.b0 = ctx.kms_hermitian_part(ctx.take_eigenbasis_generator())
        brownian = setup.brownian
        quarter = st.eigenvalues ** 0.25
        a = (quarter[:, None] / quarter[None, :]) * st.to_eigenbasis(setup.monitored).conj().swapaxes(1, 2)
        a[brownian] = 0.5 * (a[brownian] + a[brownian].conj().swapaxes(1, 2))
        self.operators = a
        self.dim2 = d * d
        self._stacked = None
        if self.dim2 < LANCZOS_MIN_SIZE:
            self._stacked = np.zeros((setup.ell, d * d, d * d), dtype=complex)
            for j, piece in enumerate(self._stacked):
                self._add_piece(piece, j, 1.0)
        g = np.random.default_rng(WARM_START_SEED).normal(size=(2, self.dim2))
        self._mix = WARM_START_MIX * (g[0] + 1j * g[1]) / np.linalg.norm(g)
        self._warm = np.zeros(self.dim2, dtype=complex)
        # The tilt of the last value call and, in the dense regime, the
        # eigendecomposition (w ascending, eigenvector columns v) made there.
        self._solved_at = None
        self._spectrum = None

    def _weights(self, lam: np.ndarray) -> tuple[list, float]:
        """The weight of each piece in B(lam), lam_j or exp(lam_j) - 1, and
        the Brownian shift |lam^B|^2/2."""
        weights, shift = [], 0.0
        for j, brownian in enumerate(self.setup.brownian):
            if brownian:
                weights.append(lam[j])
                shift += 0.5 * lam[j] ** 2
            else:
                weights.append(np.expm1(lam[j]))
        return weights, shift

    def _add_piece(self, m: np.ndarray, j: int, weight: float) -> None:
        """Add weight times piece j to the d^2 x d^2 matrix m, in place:
        add_left_right_pair for a Brownian piece, one (d, d, d) slab of the
        (a, b, c, e) view at a time for a counting piece, whose entry is
        (conj(A[a, c]) A[b, e] + A[c, a] conj(A[e, b]))/2."""
        a = self.operators[j]
        if self.setup.brownian[j]:
            add_left_right_pair(m, weight * a, weight * a)
            return
        d = a.shape[0]
        half = 0.5 * weight
        a_h = a.conj().T
        for i, slab in enumerate(m.reshape(d, d, d, d)):
            slab += half * (a[:, None, :] * a_h[None, :, i, None])
            slab += half * (a_h[:, None, :] * a[None, :, i, None])

    def _pieces_times(self, v: np.ndarray) -> np.ndarray:
        """(ell, d^2): each piece applied to the vector v."""
        if self._stacked is not None:
            return self._stacked @ v
        d = self.setup.ctx.dim
        # vec(X) is X^T read row by row, so with Y = X^T the Brownian piece
        # maps Y -> conj(A) Y + Y conj(A) and the counting piece
        # Y -> (conj(A) Y A^T + A^T Y conj(A))/2.
        y = v.reshape(d, d)
        out = np.empty((self.setup.ell, d, d), dtype=complex)
        for j, a in enumerate(self.operators):
            ac = a.conj()
            if self.setup.brownian[j]:
                np.add(ac @ y, y @ ac, out=out[j])
            else:
                np.add(ac @ y @ a.T, a.T @ y @ ac, out=out[j])
                out[j] *= 0.5
        return out.reshape(self.setup.ell, -1)

    def matrix(self, lam: np.ndarray) -> np.ndarray:
        """B(lam) as a new d^2 x d^2 array."""
        weights, shift = self._weights(lam)
        b = self.b0.copy()
        for j, weight in enumerate(weights):
            if self._stacked is not None:
                b += weight * self._stacked[j]
            else:
                self._add_piece(b, j, weight)
        if shift:
            b.reshape(-1)[::self.dim2 + 1] += shift
        return b

    def operator(self, lam: np.ndarray) -> "_TiltedOperator":
        """B(lam) as a product v -> B(lam) v, without forming it."""
        return _TiltedOperator(self, *self._weights(lam))

    def value(self, lam: np.ndarray) -> float:
        """Top eigenvalue of B(lam), by the family's one eigensolve per tilt:
        below LANCZOS_MIN_SIZE a dense eigh, whose eigendecomposition is
        kept; from there Lanczos on products with B(lam), warm-started from
        the previous top vector, or a dense eigh when Lanczos does not
        converge, and the top vector is kept."""
        self._solved_at = np.array(lam, dtype=float)
        if self._stacked is None:
            value, self._warm, converged = top_eigenpair(self.operator(lam), self._warm + self._mix)
            if converged:
                return value
            w, v = np.linalg.eigh(self.matrix(lam))
            self._warm = v[:, -1]
            return float(w[-1])
        self._spectrum = np.linalg.eigh(self.matrix(lam))
        return float(self._spectrum[0][-1])

    def derivatives(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Gradient and Hessian of the top eigenvalue at lam, read from the
        eigensolve of value(lam) (which is made first if the last value call
        was at another tilt).

        The gradient is Hellmann-Feynman, <v|dB/dlam_j|v> for the unit top
        eigenvector v. Below LANCZOS_MIN_SIZE the Hessian is second-order
        perturbation theory: <v|d2B/dlam_j^2|v> on the diagonal (1 per
        Brownian channel, the gradient entry per Poisson channel) plus
        2 Re sum_{n != top} <v|D_j|v_n><v_n|D_k|v> / (w_top - w_n) with
        D_j = dB/dlam_j, leaving out levels within EIG_GAP_DEGENERATE of the
        top, and a degenerate top eigenvalue takes its gradient from central
        differences of value. From LANCZOS_MIN_SIZE on the gradient is that
        of the Ritz vector and the Hessian is None."""
        if not np.array_equal(self._solved_at, lam):
            self.value(lam)
        if self._stacked is None:
            return self.gradient_at(lam, self._warm), None
        w, v = self._spectrum
        # <v_n|B_j|v_top> for every level n and piece j; the last row gives the gradient.
        a = v.conj().T @ self._pieces_times(v[:, -1]).T
        grad = self._gradient(lam, a[-1].real)
        gaps = w[-1] - w[:-1]
        far = gaps >= EIG_GAP_DEGENERATE
        c = a[:-1][far] * self._slopes(lam)
        h = 2.0 * (c.conj().T @ (c / gaps[far, None])).real
        hess = h + np.diag(np.where(self.setup.brownian, 1.0, grad))
        if _degenerate(w):
            grad = _finite_difference_gradient(self, lam)
        return grad, hess

    def checked_top(self, lam: np.ndarray, e: float, grad: np.ndarray) -> tuple[float, np.ndarray]:
        """The top eigenvalue e and gradient grad that the ascent found at
        lam*, checked: e must agree with a dense eigvalsh of matrix(lam) to
        TOP_EIG_CHECK_RTOL, or NumericalError is raised. From
        LANCZOS_MIN_SIZE on they came from a Ritz pair: the value returned
        is then that of the eigvalsh, and a degenerate top eigenvalue takes
        its gradient from central differences of value."""
        w = np.linalg.eigvalsh(self.matrix(lam))
        if abs(e - w[-1]) > TOP_EIG_CHECK_RTOL * max(1.0, abs(w[-1])):
            raise NumericalError(f"top eigenvalue at lam* is {e!r} by TiltedFamily.value "
                                 f"but {float(w[-1])!r} by a dense eigh")
        if self._stacked is None:
            e = float(w[-1])
            if _degenerate(w):
                grad = _finite_difference_gradient(self, lam)
        return e, grad

    def gradient_at(self, lam: np.ndarray, vtop: np.ndarray) -> np.ndarray:
        """Hellmann-Feynman gradient of the top eigenvalue, <v|dB/dlam_j|v>
        for its unit eigenvector v."""
        return self._gradient(lam, (self._pieces_times(vtop) @ vtop.conj()).real)

    def _slopes(self, lam: np.ndarray) -> np.ndarray:
        """Weight of each piece in dB/dlam_j: 1 (Brownian), exp(lam_j) (Poisson)."""
        out = np.ones_like(lam)
        out[~self.setup.brownian] = np.exp(lam[~self.setup.brownian])
        return out

    def _gradient(self, lam: np.ndarray, expect: np.ndarray) -> np.ndarray:
        """Gradient from the expectations <v|B_j|v> of the pieces: the
        Brownian shift |lam^B|^2/2 adds lam_j."""
        return expect * self._slopes(lam) + np.where(self.setup.brownian, lam, 0.0)


def _degenerate(w: np.ndarray) -> bool:
    return len(w) > 1 and w[-1] - w[-2] < EIG_GAP_DEGENERATE


def _finite_difference_gradient(family: TiltedFamily, lam: np.ndarray) -> np.ndarray:
    g = np.empty_like(lam)
    for j in range(lam.size):
        up = lam.copy()
        dn = lam.copy()
        up[j] += FINITE_DIFFERENCE_STEP
        dn[j] -= FINITE_DIFFERENCE_STEP
        g[j] = (family.value(up) - family.value(dn)) / (2 * FINITE_DIFFERENCE_STEP)
    return g


class _TiltedOperator:
    """B(lam) = B0 + sum_j w_j B_j + shift I as a product with a vector: all
    top_eigenpair needs (shape and @)."""

    def __init__(self, family: TiltedFamily, weights: list, shift: float):
        self.shape = family.b0.shape
        self.family, self.weights, self.shift = family, np.array(weights), shift

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        out = self.family.b0 @ v
        out += self.weights @ self.family._pieces_times(v)
        if self.shift:
            out += self.shift * v
        return out


# ---------------------------------------------------------------------------
# Concave maximization of lam . target - e(lam)
# ---------------------------------------------------------------------------

def _bfgs(h: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """BFGS update of the Hessian estimate h by the step s and the change y
    of the gradient, skipped when the curvature s.y is not positive enough."""
    hs = h @ s
    if s @ y > CURVATURE_EPS * np.linalg.norm(s) * np.linalg.norm(y) and s @ hs > 0:
        h = h + np.outer(y, y) / (s @ y) - np.outer(hs, hs) / (s @ hs)
    return h


def _stationarity(lam: np.ndarray, g: np.ndarray, lo: np.ndarray,
                  caps: np.ndarray) -> tuple[float, bool]:
    """Projected-gradient residual of the ascent direction g at lam, and
    whether lam is bounded: False when a coordinate sits at its cap with g
    still pointing past it."""
    at_hi = caps - lam < 1e-6 * caps
    at_lo = lam + caps < 1e-6 * caps
    bounded = not np.any((at_hi & (g > 1e-9)) | (at_lo & (g < -1e-9)))
    held = at_hi | at_lo | ((lam - lo < 1e-8) & (g < 0))
    return float(np.max(np.abs(np.where(held, 0.0, g)), initial=0.0)), bounded


def _newton_step(lam: np.ndarray, g: np.ndarray, hess: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """Projected Newton step (Bertsekas 1982), clipped to the box.

    Coordinates within eps of a bound, with g pointing past it, move onto
    the bound; eps is the distance to the projected gradient point, at most
    ACTIVE_EPS. The rest take the Newton step of their block of the Hessian,
    whose eigenvalues are floored at rounding level. When that is not an
    ascent direction, the projected gradient step is taken instead."""
    eps = min(ACTIVE_EPS, float(np.max(np.abs(np.clip(lam + g, lo, hi) - lam))))
    active = ((lam - lo <= eps) & (g < 0)) | ((hi - lam <= eps) & (g > 0))
    step = np.where(g < 0, lo, hi) - lam
    free = ~active
    if free.any():
        hw, hv = np.linalg.eigh(hess[np.ix_(free, free)])
        hw = np.maximum(hw, np.finfo(float).eps * max(1.0, hw[-1]))
        step[free] = hv @ ((hv.T @ g[free]) / hw)
    step = np.clip(lam + step, lo, hi) - lam
    if g @ step <= 0:
        step = np.clip(lam + g, lo, hi) - lam
    return step


def _maximize_tilt(family: TiltedFamily, target: np.ndarray, allow_negative: bool):
    """Projected Newton ascent for the concave map lam -> lam.target - e(lam).

    The box is |lam_j| <= the overflow guard of its channel, and lam >= 0
    unless ``allow_negative``. Each iterate costs one eigensolve,
    family.value, and family.derivatives reads the gradient and Hessian of
    e from it. Where the family gives no Hessian (its Lanczos regime, where
    a dense eigh per iterate costs more than the iterates it saves), the
    curvature is a BFGS estimate from successive gradients, started from
    the diagonal of d2B/dlam^2 at the top vector. A step is halved until
    the objective rises by ARMIJO of the predicted rise, less the rounding
    of the eigenvalue. The ascent stops once the projected gradient is at
    most NEWTON_RTOL * max(1, |target|), or when a step gains neither
    objective nor stationarity.

    Returns (lam*, value, residual, bounded), from the top eigenvalue and
    gradient that family.checked_top passes at lam*: ``residual`` is the
    projected gradient at lam* and ``bounded`` is False when a coordinate
    sits at its cap with the objective still increasing.
    """
    setup = family.setup
    caps = np.where(setup.brownian, BROWNIAN_LAMBDA_CAP, POISSON_LAMBDA_CAP)
    lo = -caps if allow_negative else np.zeros(setup.ell)
    tol = NEWTON_RTOL * max(1.0, float(np.max(np.abs(target))))

    lam = np.zeros(setup.ell)
    e = family.value(lam)
    grad, exact = family.derivatives(lam)
    hess = np.diag(np.where(setup.brownian, 1.0, grad)) if exact is None else exact
    residual, _ = _stationarity(lam, target - grad, lo, caps)
    for _ in range(NEWTON_MAX_STEPS):
        if residual <= tol:
            break
        g = target - grad
        step = _newton_step(lam, g, hess, lo, caps)
        f = float(lam @ target) - e
        noise = OBJECTIVE_NOISE_RTOL * max(1.0, abs(e), abs(f))
        t = 1.0
        for _ in range(MAX_HALVINGS):
            trial = lam + t * step
            e_trial = family.value(trial)
            f_trial = float(trial @ target) - e_trial
            if f_trial >= f + ARMIJO * t * float(g @ step) - noise:
                break
            t *= 0.5
        else:
            break
        grad_trial, exact = family.derivatives(trial)
        hess_trial = _bfgs(hess, trial - lam, grad_trial - grad) if exact is None else exact
        residual_trial, _ = _stationarity(trial, target - grad_trial, lo, caps)
        if f_trial <= f and residual_trial >= residual:
            break
        lam, e, grad, hess, residual = trial, e_trial, grad_trial, hess_trial, residual_trial

    e, grad = family.checked_top(lam, e, grad)
    residual, bounded = _stationarity(lam, target - grad, lo, caps)
    return lam, max(float(lam @ target) - e, 0.0), residual, bounded


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Finite-time tail bound: bound(t) = prefactor * exp(-t * exponent)."""

    r: np.ndarray
    mean: np.ndarray
    lam_star: np.ndarray
    exponent: float
    prefactor: float
    stationarity_residual: float
    status: str = "ok"

    def bound(self, t: float) -> float:
        if not math.isfinite(t):
            raise ValidationError(f"time must be finite, got {t!r}")
        if t < 0.0:
            raise ValidationError(f"time must be nonnegative, got {t!r}")
        if math.isinf(self.exponent):
            return 0.0
        return self.prefactor * math.exp(-t * self.exponent)


def l2_sigma_prefactor(st, rho) -> float:
    """||Gamma_sigma^{-1}(rho)||_{L2(sigma)} = sqrt(Tr[rho s^{-1/2} rho s^{-1/2}]),
    a valid prefactor only for a state: rho is validated (density_matrix)."""
    rho = density_matrix(rho, "rho")
    require_same_dim(st.matrix, rho)
    inv_half = st.power(-0.5)
    return float(np.sqrt(np.trace(rho @ inv_half @ rho @ inv_half).real))


def main_bound(setup: MeasurementSetup, rho, r) -> BoundReport:
    """Optimal Chernoff-type bound on the joint upward deviation event.

    exponent = sup_{lam >= 0} [lam.(m + r) - e(lam)], a concave maximization
    solved by projected Newton ascent (see _maximize_tilt); prefactor =
    ||Gamma^{-1}(rho)||_{L2(sigma)} (l2_sigma_prefactor, which refuses a
    rho that is not a state). The status is "unbounded" when the
    supremum escapes the overflow guard, and "unconverged" when the
    stationarity residual exceeds RESIDUAL_RTOL * max(1, |m + r|).
    """
    st = setup.ctx.require_faithful()
    if not setup.ctx.primitive:
        raise ValidationError("main_bound requires a primitive generator context")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.shape != (setup.ell,):
        raise DimensionMismatchError(f"r must have shape ({setup.ell},), got {r.shape}")
    bad = np.nonzero(~(r >= 0) | ~np.isfinite(r))[0]
    if bad.size:
        raise ValidationError(f"r must be finite and entrywise nonnegative; "
                              f"entry {bad[0]} is {float(r[bad[0]])!r}")
    mean = mean_vector(setup)
    prefactor = l2_sigma_prefactor(st, rho)
    family = TiltedFamily(setup)
    target = mean + r
    lam, value, residual, bounded = _maximize_tilt(family, target, allow_negative=False)
    status = _status(bounded, residual, target)
    return BoundReport(r, mean, lam, value if bounded else np.inf, prefactor, residual, status)


def _status(bounded: bool, residual: float, target: np.ndarray) -> str:
    if not bounded:
        return "unbounded"
    if residual > RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(target)))):
        return "unconverged"
    return "ok"


@dataclass(frozen=True, eq=False)
class RatePoint:
    s: np.ndarray
    value: float
    residual: float  # projected gradient of the Legendre supremum at lam*
    status: str  # "ok", "unbounded" or "unconverged"


def rate_function(setup: MeasurementSetup, s_grid) -> list[RatePoint]:
    """Legendre transform I(s) = sup_{lam in R^ell} [lam.s - e(lam)] per grid point.

    Only valid for KMS-symmetric generators, where the transform is the
    large-deviation rate function of the estimator; refused otherwise.
    Points whose supremum escapes the overflow guard are flagged unbounded
    and reported as +inf; points whose residual exceeds RESIDUAL_RTOL *
    max(1, |s|) are flagged unconverged.
    """
    if not check_detailed_balance("KMS", setup.ctx).symmetric:
        raise NotKmsSymmetricError("rate_function requires a KMS-symmetric generator")
    family = TiltedFamily(setup)
    grid = np.atleast_2d(np.asarray(s_grid, dtype=float))
    if grid.shape[1] != setup.ell:
        raise DimensionMismatchError(f"grid points must have {setup.ell} components")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("grid points must be finite")
    out = []
    for s in grid:
        _, value, residual, bounded = _maximize_tilt(family, s, allow_negative=True)
        out.append(RatePoint(s.copy(), value if bounded else math.inf, residual,
                             _status(bounded, residual, s)))
    return out
