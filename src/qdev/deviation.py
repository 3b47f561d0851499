"""Tilted generators, scaled cumulant generating function, finite-time
deviation bounds, and the large-deviation rate function.

The estimator of a monitored channel pair deviates from its stationary mean
with probability controlled by

    P(E_t - m >= r) <= prefactor * exp(-t * sup_{lam >= 0} [lam.(m+r) - e(lam)]),

where e(lam) is the top eigenvalue of the KMS-symmetrized tilted generator.
The tilt adds, per Brownian channel, lam_j (L_u* X + X L_u + lam_j X / 2)
and, per Poisson channel, (exp(lam_j) - 1) L_u* X L_u. Everything here is
evaluated spectrally: conjugating by the square root of the KMS Gram turns
the symmetrized tilted generator into an ordinary Hermitian matrix whose
top eigenvalue is e(lam), a concave maximization away from the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .linalg import (
    DensityOperator,
    DimensionMismatchError,
    NumericalError,
    SuperOperator,
    ValidationError,
    as_complex_matrix,
    hermitian_from_params,
    hermitian_part,
    hermitian_to_params,
    inner_product,
    left_right_matrix,
    top_eigenpair,
    unvec,
)
from .lindblad import (
    GeneratorContext,
    NotKmsSymmetricError,
    check_detailed_balance,
    dirichlet_form,
)

LAMBDA_BOX = 50.0            # initial search box per tilt coordinate
POISSON_LAMBDA_CAP = 700.0   # exp overflow guard
BROWNIAN_LAMBDA_CAP = 1e6
OBJECTIVE_TOL = 1e-9
MAX_SWEEPS = 10_000
EIG_GAP_DEGENERATE = 1e-8

# Size d^2 of the tilted matrix from which TiltedFamily.value finds the top
# eigenvalue by warm-started Lanczos instead of a full eigvalsh. Measured
# per solve (bench/eig_crossover.py, BENCH_3.json): Lanczos wins from
# n = 64 on depolarizing models (about 5 matvecs a solve) but only from
# n = 144 on generic ones (about 25), so the cut-over is d = 12.
LANCZOS_MIN_SIZE = 144
# The warm start is the last top vector plus this weight of a fixed-seed
# vector, so that it is never orthogonal to the new top eigenvector.
WARM_START_MIX = 1e-8
WARM_START_SEED = 0x5EED
# Largest admitted |iterative - dense| top eigenvalue at lam*, relative to
# max(1, |e|).
TOP_EIG_CHECK_RTOL = 1e-10


class MeasurementSetup:
    """Orthonormal tilt directions split into Brownian and Poisson channels.

    ``directions`` is an (ell, k) real array of orthonormal rows; the first
    ``q`` rows drive Brownian (homodyne) channels, the rest Poisson
    (counting) channels. Each row defines the monitored jump
    L_u = sum_m u_m L_m.
    """

    def __init__(self, ctx: GeneratorContext, directions, q: int):
        lind = ctx.require_jumps()
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
        self.monitored = [sum(u[j, m] * lind.jumps[m] for m in range(k)) for j in range(ell)]

    def is_brownian(self, j: int) -> bool:
        return j < self.q


def _as_tilt(lam, ell: int, nonneg: bool) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (ell,):
        raise DimensionMismatchError(f"tilt vector must have shape ({ell},), got {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValidationError("tilt vector must be finite")
    if nonneg and np.min(lam) < 0:
        raise ValidationError("tilt vector must be entrywise nonnegative here")
    return lam


def mean_vector(setup: MeasurementSetup) -> np.ndarray:
    """Stationary means: Tr[sigma (L_u + L_u*)] per Brownian channel,
    Tr[sigma L_u* L_u] per Poisson channel."""
    st = setup.ctx.require_faithful()
    out = np.empty(setup.ell)
    for j, l in enumerate(setup.monitored):
        if setup.is_brownian(j):
            out[j] = np.trace(st.matrix @ (l + l.conj().T)).real
        else:
            out[j] = np.trace(st.matrix @ (l.conj().T @ l)).real
    return out


def f_statistics(setup: MeasurementSetup, x) -> np.ndarray:
    """KMS-symmetrized channel statistics of an observable.

    Brownian channels use Phi_u(X) = L_u* X + X L_u, Poisson channels
    Psi_u(X) = L_u* X L_u; each entry is Re <X, map(X)>_KMS, which equals
    the half-sum with the KMS dual. Poisson entries are nonnegative on
    positive semidefinite X.
    """
    st = setup.ctx.require_faithful()
    x = as_complex_matrix(x, "X")
    out = np.empty(setup.ell)
    for j, l in enumerate(setup.monitored):
        if setup.is_brownian(j):
            image = l.conj().T @ x + x @ l
        else:
            image = l.conj().T @ x @ l
        out[j] = inner_product("KMS", st, x, image).real
    return out


def perturbed_generator(setup: MeasurementSetup, lam) -> SuperOperator:
    """Superoperator of the tilted generator L_lam."""
    lam = _as_tilt(lam, setup.ell, nonneg=False)
    d = setup.ctx.dim
    eye = np.eye(d)
    m = setup.ctx.heisenberg.matrix.copy()
    for j, l in enumerate(setup.monitored):
        if setup.is_brownian(j):
            m += lam[j] * (left_right_matrix(l.conj().T, eye) + left_right_matrix(eye, l))
            m += 0.5 * lam[j] ** 2 * np.eye(d * d)
        else:
            m += np.expm1(lam[j]) * left_right_matrix(l.conj().T, l)
    return SuperOperator(m)


class TiltedFamily:
    """Precomputed Hermitian pieces of the KMS-conjugated tilted generator.

    B(lam) = B0 + sum_{j<=q} lam_j B_phi_j + |lam^B|^2/2 * I
                + sum_{j>q} (exp(lam_j)-1) B_psi_j,
    and the scaled cumulant generating function is its top eigenvalue.
    """

    def __init__(self, setup: MeasurementSetup):
        ctx = setup.ctx
        ctx.require_faithful()
        self.setup = setup
        d = ctx.dim
        eye = np.eye(d)
        self.b0 = hermitian_part(ctx.kms_conjugated())
        self.pieces: list[np.ndarray] = []
        self.zero_channel = []
        for j, l in enumerate(setup.monitored):
            if setup.is_brownian(j):
                m = left_right_matrix(l.conj().T, eye) + left_right_matrix(eye, l)
            else:
                m = left_right_matrix(l.conj().T, l)
            self.pieces.append(hermitian_part(ctx.kms_conjugated(m)))
            self.zero_channel.append(bool(np.max(np.abs(l)) < 1e-15))
        self.dim2 = d * d
        g = np.random.default_rng(WARM_START_SEED).normal(size=(2, self.dim2))
        self._mix = WARM_START_MIX * (g[0] + 1j * g[1]) / np.linalg.norm(g)
        self._warm = np.zeros(self.dim2, dtype=complex)

    def matrix(self, lam: np.ndarray) -> np.ndarray:
        setup = self.setup
        b = self.b0.copy()
        shift = 0.0
        for j in range(setup.ell):
            if setup.is_brownian(j):
                b += lam[j] * self.pieces[j]
                shift += 0.5 * lam[j] ** 2
            else:
                b += np.expm1(lam[j]) * self.pieces[j]
        if shift:
            b = b + shift * np.eye(self.dim2)
        return b

    def value(self, lam: np.ndarray) -> float:
        """Top eigenvalue: eigvalsh below LANCZOS_MIN_SIZE, else Lanczos
        warm-started from the previous top vector, or eigvalsh again when
        Lanczos does not converge."""
        b = self.matrix(lam)
        if self.dim2 >= LANCZOS_MIN_SIZE:
            value, self._warm, converged = top_eigenpair(b, self._warm + self._mix)
            if converged:
                return value
        return float(np.linalg.eigvalsh(b)[-1])

    def value_gap_vector(self, lam: np.ndarray) -> tuple[float, float, np.ndarray]:
        w, v = np.linalg.eigh(self.matrix(lam))
        gap = float(w[-1] - w[-2]) if len(w) > 1 else np.inf
        return float(w[-1]), gap, v[:, -1]

    def value_and_gradient(self, lam: np.ndarray) -> tuple[float, np.ndarray | None]:
        """Top eigenvalue from one dense eigh, and its Hellmann-Feynman
        gradient; the gradient is None when the top eigenvalue is degenerate."""
        value, gap, vtop = self.value_gap_vector(lam)
        if gap < EIG_GAP_DEGENERATE:
            return value, None
        g = np.empty(self.setup.ell)
        for j in range(self.setup.ell):
            expect = float(np.vdot(vtop, self.pieces[j] @ vtop).real)
            if self.setup.is_brownian(j):
                g[j] = expect + lam[j]
            else:
                g[j] = math.exp(lam[j]) * expect
        return value, g

    def gradient(self, lam: np.ndarray) -> np.ndarray | None:
        """Hellmann-Feynman gradient; None when the top eigenvalue is degenerate."""
        return self.value_and_gradient(lam)[1]

    def optimal_observable(self, lam: np.ndarray) -> np.ndarray:
        """Top eigenvector mapped back to a unit-KMS-norm PSD observable."""
        st = self.setup.ctx.require_faithful()
        _, _, vtop = self.value_gap_vector(lam)
        inv_quarter = st.power(-0.25)
        x = inv_quarter @ unvec(vtop, self.setup.ctx.dim) @ inv_quarter
        x = hermitian_part(x)
        if np.trace(st.matrix @ x).real < 0:
            x = -x
        w, v = np.linalg.eigh(x)
        x = (v * np.clip(w, 0.0, None)) @ v.conj().T
        return x


def scgf(setup: MeasurementSetup, lam) -> float:
    """Scaled cumulant generating function e(lam): top eigenvalue of the
    KMS-symmetrized tilted generator."""
    lam = _as_tilt(lam, setup.ell, nonneg=False)
    return TiltedFamily(setup).value(lam)


# ---------------------------------------------------------------------------
# Concave maximization of lam . target - e(lam)
# ---------------------------------------------------------------------------

def _coordinate_cap(setup: MeasurementSetup, j: int) -> float:
    return BROWNIAN_LAMBDA_CAP if setup.is_brownian(j) else POISSON_LAMBDA_CAP


def _maximize_tilt(family: TiltedFamily, target: np.ndarray, allow_negative: bool,
                   seed_point: np.ndarray | None = None):
    """Cyclic coordinate ascent for the concave map lam -> lam.target - e(lam).

    Each coordinate is solved by a bounded scalar minimizer; boxes extend
    automatically (doubling from LAMBDA_BOX) until the optimum is interior
    or the overflow guard is reached. Returns (lam*, value, residual,
    bounded) where ``bounded`` is False when a coordinate escapes past its
    cap with the objective still increasing.

    The returned value uses the dense top eigenvalue at lam*; it must agree
    with TiltedFamily.value there to TOP_EIG_CHECK_RTOL, or NumericalError
    is raised.
    """
    setup = family.setup
    ell = setup.ell
    caps = np.array([_coordinate_cap(setup, j) for j in range(ell)])
    hi = np.minimum(np.full(ell, LAMBDA_BOX), caps)
    lo = -hi.copy() if allow_negative else np.zeros(ell)
    lam = np.zeros(ell) if seed_point is None else seed_point.copy()

    e_lam = family.value(lam)
    current = float(np.dot(lam, target)) - e_lam
    for _ in range(MAX_SWEEPS):
        previous = current
        for j in range(ell):
            def h_j(x, j=j):
                trial = lam.copy()
                trial[j] = x
                return -(np.dot(trial, target) - family.value(trial))

            while True:
                res = scipy.optimize.minimize_scalar(
                    h_j, bounds=(lo[j], hi[j]), method="bounded",
                    options={"xatol": 1e-11, "maxiter": 500})
                x_star = float(res.x)
                if hi[j] - x_star < 1e-6 * max(1.0, hi[j]) and hi[j] < caps[j]:
                    hi[j] = min(2.0 * hi[j], caps[j])
                    continue
                if allow_negative and x_star - lo[j] < 1e-6 * max(1.0, -lo[j]) and lo[j] > -caps[j]:
                    lo[j] = max(2.0 * lo[j], -caps[j])
                    continue
                break
            lam[j] = x_star
        e_lam = family.value(lam)
        current = float(np.dot(lam, target)) - e_lam
        if abs(current - previous) < OBJECTIVE_TOL:
            break

    e_star, grad = family.value_and_gradient(lam)
    if abs(e_lam - e_star) > TOP_EIG_CHECK_RTOL * max(1.0, abs(e_star)):
        raise NumericalError(f"top eigenvalue at lam* is {e_lam!r} by TiltedFamily.value "
                             f"but {e_star!r} by a dense eigh")
    current = float(np.dot(lam, target)) - e_star
    # Stationarity residual: projected gradient at lam*, flagging genuine
    # escape past the overflow guards.
    if grad is None:
        grad = _finite_difference_gradient(family, lam)
    g = target - grad
    residual = 0.0
    bounded = True
    for j in range(ell):
        gj = g[j]
        if caps[j] - lam[j] < 1e-6 * caps[j]:
            if gj > 1e-9:
                bounded = False
            gj = 0.0
        elif lam[j] + caps[j] < 1e-6 * caps[j]:
            if gj < -1e-9:
                bounded = False
            gj = 0.0
        elif not allow_negative and lam[j] < 1e-8 and gj < 0:
            gj = 0.0
        residual = max(residual, abs(gj))
    return lam, max(current, 0.0), residual, bounded


def _finite_difference_gradient(family: TiltedFamily, lam: np.ndarray, step: float = 1e-6) -> np.ndarray:
    g = np.empty_like(lam)
    for j in range(lam.size):
        up = lam.copy()
        dn = lam.copy()
        up[j] += step
        dn[j] -= step
        g[j] = (family.value(up) - family.value(dn)) / (2 * step)
    return g


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
        if math.isinf(self.exponent):
            return 0.0
        return self.prefactor * math.exp(-t * self.exponent)


def l2_sigma_prefactor(sigma, rho) -> float:
    """||Gamma_sigma^{-1}(rho)||_{L2(sigma)} = sqrt(Tr[rho s^{-1/2} rho s^{-1/2}])."""
    st = sigma
    rho = rho.matrix if isinstance(rho, DensityOperator) else as_complex_matrix(rho, "rho")
    inv_half = st.power(-0.5)
    return float(np.sqrt(np.trace(rho @ inv_half @ rho @ inv_half).real))


def main_bound(setup: MeasurementSetup, rho, r) -> BoundReport:
    """Optimal Chernoff-type bound on the joint upward deviation event.

    exponent = sup_{lam >= 0} [lam.(m + r) - e(lam)], a concave maximization
    solved per coordinate; prefactor = ||Gamma^{-1}(rho)||_{L2(sigma)}.
    """
    st = setup.ctx.require_faithful()
    if not setup.ctx.primitive:
        raise ValidationError("main_bound requires a primitive generator context")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.shape != (setup.ell,):
        raise DimensionMismatchError(f"r must have shape ({setup.ell},), got {r.shape}")
    bad = np.nonzero(r < 0)[0]
    if bad.size:
        raise ValidationError(f"r must be entrywise nonnegative; entry {bad[0]} is {r[bad[0]]!r}")
    mean = mean_vector(setup)
    prefactor = l2_sigma_prefactor(st, rho)
    family = TiltedFamily(setup)
    target = mean + r
    for j in range(setup.ell):
        if (not setup.is_brownian(j)) and family.zero_channel[j] and target[j] > 0:
            # Dead counting channel with a positive threshold: the supremum
            # diverges linearly and the bound collapses to zero.
            lam = np.zeros(setup.ell)
            lam[j] = np.inf
            return BoundReport(r, mean, lam, np.inf, prefactor, 0.0, status="unbounded")
    lam, value, residual, bounded = _maximize_tilt(family, target, allow_negative=False)
    if not bounded:
        return BoundReport(r, mean, lam, np.inf, prefactor, residual, status="unbounded")
    return BoundReport(r, mean, lam, max(value, 0.0), prefactor, residual)


def mass_relative_entropy(p, q) -> float:
    """Relative entropy between nonnegative mass vectors,
    sum_l p_l ln(p_l/q_l) - p_l + q_l, with 0 ln 0 = 0 and support rule
    q_l = 0 < p_l giving +inf."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if p.shape != q.shape:
        raise DimensionMismatchError("mass vectors must have equal length")
    if np.min(p) < 0 or np.min(q) < 0:
        raise ValidationError("mass vectors must be entrywise nonnegative")
    total = 0.0
    for pl, ql in zip(p, q):
        if pl == 0.0:
            total += ql
        elif ql == 0.0:
            return math.inf
        else:
            total += pl * math.log(pl / ql) - pl + ql
    return total


@dataclass(frozen=True, eq=False)
class RatePoint:
    s: np.ndarray
    value: float
    status: str  # "ok" or "unbounded"


def rate_function(setup: MeasurementSetup, s_grid) -> list[RatePoint]:
    """Legendre transform I(s) = sup_{lam in R^ell} [lam.s - e(lam)] per grid point.

    Only valid for KMS-symmetric generators, where the transform is the
    large-deviation rate function of the estimator; refused otherwise.
    Points whose supremum escapes the overflow guard are flagged unbounded
    and reported as +inf.
    """
    if not check_detailed_balance("KMS", setup.ctx).symmetric:
        raise NotKmsSymmetricError("rate_function requires a KMS-symmetric generator")
    family = TiltedFamily(setup)
    grid = np.atleast_2d(np.asarray(s_grid, dtype=float))
    if grid.shape[1] != setup.ell:
        raise DimensionMismatchError(f"grid points must have {setup.ell} components")
    out = []
    for s in grid:
        lam, value, residual, bounded = _maximize_tilt(family, s, allow_negative=True)
        if not bounded:
            out.append(RatePoint(s.copy(), math.inf, "unbounded"))
        else:
            out.append(RatePoint(s.copy(), value, "ok"))
    return out


# ---------------------------------------------------------------------------
# Direct variational cross-check (X-domain route)
# ---------------------------------------------------------------------------

def _one_sided_gaussian(p: float, f: float) -> float:
    gap = p - f
    return 0.5 * gap * gap if gap > 0 else 0.0


def _one_sided_poisson(p: float, f: float) -> float:
    f = max(f, 0.0)
    if p <= f:
        return 0.0
    if f == 0.0:
        return math.inf
    return p * math.log(p / f) - p + f


def direct_variational_crosscheck(setup: MeasurementSetup, r, n_starts: int = 10,
                                  seed: int = 7, dim_guard: int = 3) -> float:
    """Evaluate the bound exponent by direct minimization over observables.

    Minimizes, over positive semidefinite X with unit KMS norm, the closed
    form E(X) + sum_B [(m+r-f^B(X))_+]^2/2 + sum_P Dplus(m+r || f^P(X)),
    where the per-channel terms are the exact lam >= 0 suprema for fixed X.
    Small dimensions only; serves as an independent oracle for main_bound.
    """
    ctx = setup.ctx
    st = ctx.require_faithful()
    d = ctx.dim
    if d > dim_guard:
        raise ValidationError(f"dimension {d} exceeds the cross-check guard {dim_guard}")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    target = mean_vector(setup) + r

    def objective(params: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            y = hermitian_from_params(params, d)
            x = y @ y
            norm = np.sqrt(max(inner_product("KMS", st, x, x).real, 0.0))
        if not np.isfinite(norm) or norm < 1e-12:
            return 1e6
        x = x / norm
        total = dirichlet_form(ctx, x)
        f = f_statistics(setup, x)
        for j in range(setup.ell):
            if setup.is_brownian(j):
                total += _one_sided_gaussian(target[j], f[j])
            else:
                contrib = _one_sided_poisson(target[j], f[j])
                if math.isinf(contrib):
                    return 1e6
                total += contrib
        return total

    rng = np.random.default_rng(seed)
    polish_starts = [hermitian_to_params(np.eye(d))]
    # Warm start from the lam-domain optimizer's top eigenvector.
    family = TiltedFamily(setup)
    lam, _, _, bounded = _maximize_tilt(family, target, allow_negative=False)
    if bounded:
        x_opt = family.optimal_observable(lam)
        w, v = np.linalg.eigh(x_opt)
        y = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        polish_starts.append(hermitian_to_params(y))
    scout_starts = [rng.normal(size=d * d) for _ in range(n_starts)]

    def run(p0, xtol, maxiter):
        res = scipy.optimize.minimize(objective, p0, method="Powell",
                                      options={"xtol": xtol, "ftol": 1e-14, "maxiter": maxiter})
        return float(res.fun), np.asarray(res.x)

    best = math.inf
    for p0 in polish_starts:
        val, _ = run(p0, 1e-8, 5000)
        best = min(best, val)
    # Coarse multistart scouting; re-polish any basin that undercuts the best.
    for p0 in scout_starts:
        val, x = run(p0, 1e-4, 400)
        if val < best - 1e-7:
            val, _ = run(x, 1e-8, 5000)
        best = min(best, val)
    return best
