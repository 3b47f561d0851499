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
of e already makes (TiltedFamily.value, then TiltedFamily.derivatives); a
rate grid runs it for all its points in lockstep, one stacked eigensolve
per sweep.
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
# Bytes of the dense stacks of B(lam) and of its eigenvectors (or of the
# eigvalsh workspace) that one lockstep sweep may hold: rate_function
# ascends its grid in batches of TiltedFamily.batch points (71 at d = 11,
# 3 at d = 24, 1 from d = 32 on).
BATCH_STACK_BYTES = 2**25


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
        u = np.asarray(directions, dtype=float)
        if u.ndim > 2:
            raise ValidationError(f"directions must be an (ell, k) array, got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValidationError("directions must be finite")
        u = np.atleast_2d(u)
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

    Every evaluation takes an (m, ell) stack of tilts, one row per point,
    so that the optimizer moves many points in one call, and keeps nothing:
    value returns its solves (w, v) for derivatives to read. The regime is
    decided here, once, by the size d^2 of B(lam). Below LANCZOS_MIN_SIZE
    the family holds the dense (ell, d^2, d^2) stack of the pieces, built
    from the operators; value is one stacked dense eigh, whose solves are
    whole spectra, from which derivatives reads the gradients and the
    perturbation-theory Hessians. From LANCZOS_MIN_SIZE on it holds no
    more: value runs Lanczos on products B(lam) v (operator), at d^4 for B0
    and d^3 per piece, row by row, each warm-started from a vector the
    caller passes, and its solves are top pairs, from which derivatives
    reads the gradient alone. B0 is one d^2 x d^2 array made in place
    from the generator in sigma's eigenbasis that it takes from the context
    (which then keeps no copy of it). matrix makes one new d^2 x d^2 array
    per row, for the dense solves and for checked_top, the check of the
    ascent's result at lam*.
    """

    def __init__(self, setup: MeasurementSetup):
        ctx = setup.ctx
        st = ctx.require_faithful()
        # Without a unique stationary state e(lam) can have a kink at 0, and
        # its Legendre transform is neither an exponent nor a rate function.
        if not ctx.primitive:
            raise ValidationError("the tilted family requires a primitive generator context")
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
        # The most rows one call should be given, in both regimes: the dense
        # solves, and checked_top from the Lanczos cut-over on, hold
        # matrix(lams) and as much again (eigenvectors, eigvalsh workspace).
        self.batch = max(1, BATCH_STACK_BYTES // (2 * self.b0.nbytes))
        g = np.random.default_rng(WARM_START_SEED).normal(size=(2, self.dim2))
        self._mix = WARM_START_MIX * (g[0] + 1j * g[1]) / np.linalg.norm(g)

    def _weights(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of lams, the weight of each piece in B(lam), lam_j or
        exp(lam_j) - 1, and the Brownian shift |lam^B|^2/2."""
        brownian = self.setup.brownian
        weights = np.where(brownian, lams, np.expm1(np.where(brownian, 0.0, lams)))
        shift = np.zeros(len(lams))
        for j in np.flatnonzero(brownian):
            shift += 0.5 * lams[:, j] ** 2
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
        """(m, ell, d^2): each piece applied to each row of the (m, d^2)
        stack of vectors v."""
        if self._stacked is not None:
            return (self._stacked @ v[:, None, :, None])[..., 0]
        d = self.setup.ctx.dim
        # vec(X) is X^T read row by row, so with Y = X^T the Brownian piece
        # maps Y -> conj(A) Y + Y conj(A) and the counting piece
        # Y -> (conj(A) Y A^T + A^T Y conj(A))/2.
        y = v.reshape(-1, d, d)
        out = np.empty((len(v), self.setup.ell, d, d), dtype=complex)
        for j, a in enumerate(self.operators):
            ac = a.conj()
            if self.setup.brownian[j]:
                np.add(ac @ y, y @ ac, out=out[:, j])
            else:
                np.add(ac @ y @ a.T, a.T @ y @ ac, out=out[:, j])
                out[:, j] *= 0.5
        return out.reshape(len(v), self.setup.ell, -1)

    def matrix(self, lams: np.ndarray) -> np.ndarray:
        """B(lam) for each row of the (m, ell) stack lams, as a new
        (m, d^2, d^2) array."""
        lams = np.asarray(lams, dtype=float)
        weights, shift = self._weights(lams)
        b = np.repeat(self.b0[None], len(lams), axis=0)
        for j in range(self.setup.ell):
            if self._stacked is not None:
                b += weights[:, j, None, None] * self._stacked[j]
            else:
                for bp, weight in zip(b, weights[:, j]):
                    self._add_piece(bp, j, weight)
        shifted = shift != 0.0
        diagonal = b.reshape(len(b), -1)[:, ::self.dim2 + 1]
        diagonal[shifted] += shift[shifted, None]
        return b

    def operator(self, lam: np.ndarray) -> "_TiltedOperator":
        """B(lam) for one tilt as a product v -> B(lam) v, without forming it."""
        weights, shift = self._weights(lam[None])
        return _TiltedOperator(self, weights[0], shift[0])

    def value(self, lams: np.ndarray, warm=None) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Top eigenvalues e of B(lam) for the rows of the (m, ell) stack
        lams, by the family's one eigensolve per tilt, and its solves
        (w, v): ascending eigenvalues (m, k) and unit eigenvector columns
        (m, d^2, k). Below LANCZOS_MIN_SIZE it is one stacked dense eigh,
        k = d^2; from there the rows are solved in turn by Lanczos on
        products with B(lam), row i warm-started from warm[i] (cold where
        warm is None), or by a dense eigh where Lanczos does not converge,
        and k = 1, the top pair."""
        lams = np.asarray(lams, dtype=float)
        if self._stacked is not None:
            w, v = np.linalg.eigh(self.matrix(lams))
        else:
            w, v = np.empty((len(lams), 1)), np.empty((len(lams), self.dim2, 1), dtype=complex)
            for i, lam in enumerate(lams):
                start = self._mix if warm is None else warm[i] + self._mix
                w[i, 0], v[i, :, 0], converged = top_eigenpair(self.operator(lam), start)
                if not converged:
                    wd, vd = np.linalg.eigh(self.matrix(lam[None])[0])
                    w[i, 0], v[i, :, 0] = wd[-1], vd[:, -1]
        return w[:, -1].copy(), (w, v)

    def derivatives(self, lams: np.ndarray, solves) -> tuple[np.ndarray, np.ndarray | None]:
        """Gradients (m, ell) and Hessians (m, ell, ell) of the top
        eigenvalue at the rows of lams, read from their value solves (w, v).

        The gradient is Hellmann-Feynman, <v|dB/dlam_j|v> for the unit top
        eigenvector v. Where the solves hold the whole spectrum (below
        LANCZOS_MIN_SIZE) the Hessian is second-order perturbation theory:
        <v|d2B/dlam_j^2|v> on the diagonal (1 per Brownian channel, the
        gradient entry per Poisson channel) plus
        2 Re sum_{n != top} <v|D_j|v_n><v_n|D_k|v> / (w_top - w_n) with
        D_j = dB/dlam_j, leaving out levels within EIG_GAP_DEGENERATE of the
        top, and a degenerate top eigenvalue takes its gradient from central
        differences of value. Where they hold the top pair alone the
        gradient is that of the Ritz vector and the Hessians are None."""
        lams = np.asarray(lams, dtype=float)
        w, v = solves
        # <v_n|B_j|v_top> for every level n held and piece j; the last row gives the gradient.
        a = v.conj().swapaxes(1, 2) @ self._pieces_times(v[:, :, -1]).swapaxes(1, 2)
        grad = self._gradient(lams, a[:, -1].real)
        if w.shape[1] < self.dim2:
            return grad, None
        gaps = w[:, -1:] - w[:, :-1]
        far = gaps >= EIG_GAP_DEGENERATE
        c = a[:, :-1] * self._slopes(lams)[:, None, :]
        hess = np.empty((len(lams), self.setup.ell, self.setup.ell))
        full = far.all(axis=1)
        hess[full] = 2.0 * (c[full].conj().swapaxes(1, 2) @ (c[full] / gaps[full, :, None])).real
        for i in np.flatnonzero(~full):
            kept = c[i][far[i]]
            hess[i] = 2.0 * (kept.conj().T @ (kept / gaps[i, far[i], None])).real
        hess += _curvature_diagonal(self.setup.brownian, grad)
        for i in np.flatnonzero(_degenerate(w)):
            grad[i] = _finite_difference_gradient(self, lams[i], v[i, :, -1])
        return grad, hess

    def checked_top(self, lams: np.ndarray, e: np.ndarray, grad: np.ndarray,
                    warm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The top eigenvalues e and gradients grad that the ascent found at
        the rows of lams (its lam*), checked: each e must agree with a dense
        eigvalsh of matrix(lam) to TOP_EIG_CHECK_RTOL, or NumericalError is
        raised for the first row that does not. From LANCZOS_MIN_SIZE on
        they came from Ritz pairs: the values returned are then those of the
        eigvalsh, and a degenerate top eigenvalue takes its gradient from
        central differences of value, warm-started from the row's top
        vector warm[i]."""
        lams = np.asarray(lams, dtype=float)
        w = np.linalg.eigvalsh(self.matrix(lams))
        top = w[:, -1]
        bad = np.flatnonzero(np.abs(e - top) > TOP_EIG_CHECK_RTOL * np.maximum(1.0, np.abs(top)))
        if bad.size:
            i = bad[0]
            raise NumericalError(f"top eigenvalue at lam* is {float(e[i])!r} by TiltedFamily.value "
                                 f"but {float(top[i])!r} by a dense eigh")
        if self._stacked is None:
            e, grad = top.copy(), grad.copy()
            for i in np.flatnonzero(_degenerate(w)):
                grad[i] = _finite_difference_gradient(self, lams[i], warm[i])
        return e, grad

    def _slopes(self, lams: np.ndarray) -> np.ndarray:
        """Weight of each piece in dB/dlam_j: 1 (Brownian), exp(lam_j) (Poisson)."""
        poisson = ~self.setup.brownian
        out = np.ones_like(lams)
        out[..., poisson] = np.exp(lams[..., poisson])
        return out

    def _gradient(self, lams: np.ndarray, expect: np.ndarray) -> np.ndarray:
        """Gradient from the expectations <v|B_j|v> of the pieces: the
        Brownian shift |lam^B|^2/2 adds lam_j."""
        return expect * self._slopes(lams) + np.where(self.setup.brownian, lams, 0.0)


def _degenerate(w: np.ndarray) -> np.ndarray:
    """Per row of the (m, n) ascending spectra w: is the top eigenvalue degenerate?"""
    if w.shape[1] < 2:
        return np.zeros(len(w), dtype=bool)
    return w[:, -1] - w[:, -2] < EIG_GAP_DEGENERATE


def _finite_difference_gradient(family: TiltedFamily, lam: np.ndarray, warm: np.ndarray) -> np.ndarray:
    """Central differences of the top eigenvalue at one tilt: one value call
    on the tilts lam +- FINITE_DIFFERENCE_STEP e_j, in the order up_0,
    down_0, up_1, ..., each warm-started from the tilt's top vector warm."""
    shifts = np.repeat(np.eye(lam.size), 2, axis=0) * np.tile([1.0, -1.0], lam.size)[:, None]
    starts = np.broadcast_to(warm, (len(shifts), warm.size))
    e, _ = family.value(lam + FINITE_DIFFERENCE_STEP * shifts, starts)
    return (e[0::2] - e[1::2]) / (2 * FINITE_DIFFERENCE_STEP)


class _TiltedOperator:
    """B(lam) = B0 + sum_j w_j B_j + shift I as a product with a vector: all
    top_eigenpair needs (shape and @)."""

    def __init__(self, family: TiltedFamily, weights: np.ndarray, shift: float):
        self.shape = family.b0.shape
        self.family, self.weights, self.shift = family, weights, shift

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        out = self.family.b0 @ v
        out += self.weights @ self.family._pieces_times(v[None])[0]
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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row, by the same dot product as for one row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _curvature_diagonal(brownian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """(m, ell, ell): diag(d2B/dlam_j^2 at the top vector) per row of grad,
    1 per Brownian channel and the gradient entry per Poisson channel."""
    out = np.zeros(grad.shape + grad.shape[-1:])
    diagonal = np.arange(grad.shape[-1])
    out[:, diagonal, diagonal] = np.where(brownian, 1.0, grad)
    return out


def _stationarity(lam: np.ndarray, g: np.ndarray, lo: np.ndarray,
                  caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of lam: the projected-gradient residual of the ascent
    direction g, and whether lam is bounded: False when a coordinate sits
    at its cap with g still pointing past it."""
    at_hi = caps - lam < 1e-6 * caps
    at_lo = lam + caps < 1e-6 * caps
    bounded = ~np.any((at_hi & (g > 1e-9)) | (at_lo & (g < -1e-9)), axis=1)
    held = at_hi | at_lo | ((lam - lo < 1e-8) & (g < 0))
    return np.max(np.abs(np.where(held, 0.0, g)), axis=1, initial=0.0), bounded


def _newton_step(lam: np.ndarray, g: np.ndarray, hess: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """Projected Newton steps (Bertsekas 1982), one per row, clipped to the box.

    Coordinates within eps of a bound, with g pointing past it, move onto
    the bound; eps is the distance to the projected gradient point, at most
    ACTIVE_EPS. The rest take the Newton step of their block of the Hessian,
    whose eigenvalues are floored at rounding level; the rows that share a
    block solve it in one stacked eigh. A coordinate that this step carries
    past a bound that g points past is held on that bound too, and the rest
    of its row solves again: a counting coordinate whose curvature exp(lam_j)
    has fallen below the floor runs to its cap alone, instead of mixing a
    step set by rounding into the others. When a row's step is not an ascent
    direction, the projected gradient step is taken instead."""
    eps = np.minimum(ACTIVE_EPS, np.max(np.abs(np.clip(lam + g, lo, hi) - lam), axis=1))[:, None]
    active = ((lam - lo <= eps) & (g < 0)) | ((hi - lam <= eps) & (g > 0))
    bound = np.where(g < 0, lo, hi)
    step = bound - lam
    rows = np.arange(len(lam))
    while rows.size:
        patterns, group = np.unique(~active[rows], axis=0, return_inverse=True)
        for k, free in enumerate(patterns):
            members = rows[group.reshape(-1) == k]
            if not free.any():
                continue
            hw, hv = np.linalg.eigh(hess[members][:, free][:, :, free])
            hw = np.maximum(hw, np.finfo(float).eps * np.maximum(1.0, hw[:, -1:]))
            gf = g[members][:, free, None]
            step[np.ix_(members, free)] = (hv @ ((hv.swapaxes(1, 2) @ gf)[..., 0] / hw)[..., None])[..., 0]
        end = lam[rows] + step[rows]
        past = ~active[rows] & (((end < lo) & (g[rows] < 0)) | ((end > hi) & (g[rows] > 0)))
        again = past.any(axis=1)
        rows, past = rows[again], past[again]
        active[rows] |= past
        step[rows] = bound[rows] - lam[rows]
    step = np.clip(lam + step, lo, hi) - lam
    downhill = _rowdot(g, step) <= 0
    step[downhill] = np.clip(lam + g, lo, hi)[downhill] - lam[downhill]
    return step


def _maximize_tilt(family: TiltedFamily, targets: np.ndarray, allow_negative: bool):
    """Projected Newton ascent for the concave maps lam -> lam.target - e(lam),
    one per row of the (P, ell) stack ``targets``, run in lockstep.

    The box is |lam_j| <= the overflow guard of its channel, and lam >= 0
    unless ``allow_negative``. Each iterate costs one eigensolve,
    family.value, and family.derivatives reads the gradient and Hessian of
    e from it. Where the family gives no Hessian (its Lanczos regime, where
    a dense eigh per iterate costs more than the iterates it saves), the
    curvature is a BFGS estimate from successive gradients, started from
    the diagonal of d2B/dlam^2 at the top vector. A step is halved until
    the objective rises by ARMIJO of the predicted rise, less the rounding
    of the eigenvalue. A point's ascent stops once its projected gradient is
    at most NEWTON_RTOL * max(1, |target|), or when a step gains neither
    objective nor stationarity.

    The ascent holds the only state: besides the iterates, each point's
    top vector from its last solve, the warm start of its next one. Each
    sweep evaluates every pending trial point, a new step or a halving, in
    one family.value call, and passes the solves of the points it accepts
    to one family.derivatives call; a point takes the same iterates as it
    would alone. Returns per row (lam*, value, residual, bounded), from the
    top eigenvalues and gradients that family.checked_top passes at lam*:
    ``residual`` is the projected gradient at lam* and ``bounded`` is False
    when a coordinate sits at its cap with the objective still increasing.
    """
    setup = family.setup
    caps = np.where(setup.brownian, BROWNIAN_LAMBDA_CAP, POISSON_LAMBDA_CAP)
    lo = -caps if allow_negative else np.zeros(setup.ell)
    targets = np.asarray(targets, dtype=float)
    n = len(targets)
    tol = NEWTON_RTOL * np.maximum(1.0, np.max(np.abs(targets), axis=1, initial=0.0))

    lam = np.zeros_like(targets)
    e, solves = family.value(lam)
    grad, hess = family.derivatives(lam, solves)
    warm = solves[1][:, :, -1].copy()
    quasi = hess is None
    if quasi:
        hess = _curvature_diagonal(setup.brownian, grad)
    residual, _ = _stationarity(lam, targets - grad, lo, caps)
    running = residual > tol
    fresh = running.copy()          # points that start a new step this sweep
    newton_steps = np.zeros(n, dtype=int)
    g, step, f, noise = (np.zeros_like(lam), np.zeros_like(lam), np.zeros(n), np.zeros(n))
    t, halvings = np.ones(n), np.zeros(n, dtype=int)
    while True:
        running[fresh & (newton_steps == NEWTON_MAX_STEPS)] = False
        new = np.flatnonzero(fresh & running)
        if new.size:
            g[new] = targets[new] - grad[new]
            step[new] = _newton_step(lam[new], g[new], hess[new], lo, caps)
            f[new] = _rowdot(lam[new], targets[new]) - e[new]
            noise[new] = OBJECTIVE_NOISE_RTOL * np.maximum(np.maximum(1.0, np.abs(e[new])),
                                                           np.abs(f[new]))
            t[new], halvings[new] = 1.0, 0
            newton_steps[new] += 1
        pending = np.flatnonzero(running)
        if not pending.size:
            break
        trial = lam[pending] + t[pending, None] * step[pending]
        e_trial, (w, v) = family.value(trial, warm[pending])
        warm[pending] = v[:, :, -1]
        f_trial = _rowdot(trial, targets[pending]) - e_trial
        rise = ARMIJO * t[pending] * _rowdot(g[pending], step[pending])
        passed = f_trial >= f[pending] + rise - noise[pending]
        fresh[:] = False

        halved = pending[~passed]
        t[halved] *= 0.5
        halvings[halved] += 1
        running[halved[halvings[halved] == MAX_HALVINGS]] = False

        taken = pending[passed]
        if not taken.size:
            continue
        trial, e_trial, f_trial = trial[passed], e_trial[passed], f_trial[passed]
        grad_trial, exact = family.derivatives(trial, (w[passed], v[passed]))
        if quasi:
            hess_trial = np.array([_bfgs(hess[p], x - lam[p], y - grad[p])
                                   for p, x, y in zip(taken, trial, grad_trial)])
        else:
            hess_trial = exact
        residual_trial, _ = _stationarity(trial, targets[taken] - grad_trial, lo, caps)
        stalled = (f_trial <= f[taken]) & (residual_trial >= residual[taken])
        running[taken[stalled]] = False
        moved = ~stalled
        keep = taken[moved]
        lam[keep], e[keep], grad[keep] = trial[moved], e_trial[moved], grad_trial[moved]
        hess[keep], residual[keep] = hess_trial[moved], residual_trial[moved]
        running[keep] = residual[keep] > tol[keep]
        fresh[keep] = True

    e, grad = family.checked_top(lam, e, grad, warm)
    residual, bounded = _stationarity(lam, targets - grad, lo, caps)
    value = _rowdot(lam, targets) - e
    return lam, np.where(0.0 > value, 0.0, value), residual, bounded


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
    lams, values, residuals, bounded = _maximize_tilt(family, target[None], allow_negative=False)
    lam, value, residual = lams[0], float(values[0]), float(residuals[0])
    status = _status(bounded[0], residual, target)
    return BoundReport(r, mean, lam, value if bounded[0] else np.inf, prefactor, residual, status)


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
    for start in range(0, len(grid), family.batch):
        batch = grid[start:start + family.batch]
        _, values, residuals, bounded = _maximize_tilt(family, batch, allow_negative=True)
        out += [RatePoint(s.copy(), float(value) if ok else math.inf, float(residual),
                          _status(ok, residual, s))
                for s, value, residual, ok in zip(batch, values, residuals, bounded)]
    return out
