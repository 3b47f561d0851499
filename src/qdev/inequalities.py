"""Functional-inequality constants, commutator Lipschitz calculus, and the
closed-form concentration bounds they imply.

The chain runs: a log-Sobolev constant alpha_2 gives a
transportation-information constant C = 1/(8 alpha_2^2); C turns Fisher
information into a Wasserstein-distance bound; and together with the
statistics of a monitored observable this yields Gaussian-type tail bounds
for time-averaged trajectory signals. The Poincare constant (spectral gap)
gives a weaker, always-computable variant. Wasserstein distances are only
ever certified from below (feasible test observables); every consumed bound
needs just Lipschitz norms of explicit observables.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    FaithfulState,
    NumericalError,
    ValidationError,
    _as_state,
    as_matrix_stack,
    hermitian_coordinates,
    hermitian_from_coordinates,
    hermitian_part,
    require_hermitian,
    spectral_transform,
    vec,
)
from .lindblad import SYMMETRY_REL_TOL, GeneratorContext, check_detailed_balance

# Largest concentrate constant, and the reciprocal of the smallest positive one:
# within these no square, product or quotient of a display leaves the float range.
CONSTANT_MAX = 1e100

# BFGS of w1_lower_bound: Wolfe constants, trial steps per line search and
# iterations. On 440 random states at d = 2 and 3, 20 or 30 trial steps
# ended within 1e-13 (relative) of the optimum; on 240 of them, 12 fell
# short by up to 6e-6 at kinks of the spectral norm.
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
WOLFE_MAX_TRIALS = 30
BFGS_MAX_ITER = 1000
# The BFGS stops once a step or bracket moves f by less than this times |f|.
ROUNDING_RTOL = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FunctionalConstants:
    """Spectral gap plus an optional log-Sobolev constant alpha_2 and the
    transportation-information constant ti_from_lsi(alpha_2).

    The gap is always computed; alpha_2 comes from a closed form
    (lsi_depolarizing, for depolarizing generators), as lsi_provenance and
    ti_provenance record.
    """

    spectral_gap: float
    lsi_alpha2: float | None = None
    lsi_provenance: str | None = field(init=False, default=None)
    ti_constant: float | None = field(init=False, default=None)
    ti_provenance: str | None = field(init=False, default=None)

    def __post_init__(self):
        if self.spectral_gap < 0:
            raise ValidationError("spectral gap must be nonnegative")
        if self.lsi_alpha2 is not None:
            if self.lsi_alpha2 <= 0:
                raise ValidationError("alpha_2 must be positive")
            if self.lsi_alpha2 > self.spectral_gap + 1e-9:
                raise ValidationError(
                    f"alpha_2 = {self.lsi_alpha2!r} exceeds the spectral gap {self.spectral_gap!r}")
            object.__setattr__(self, "lsi_provenance", "closed_form")
            object.__setattr__(self, "ti_constant", ti_from_lsi(self.lsi_alpha2))
            object.__setattr__(self, "ti_provenance", "computed")


def spectral_gap(ctx: GeneratorContext) -> float:
    """Smallest nonzero decay rate of the KMS-symmetrized generator.

    Computed as the second-smallest eigenvalue of -sym(L) after conjugating
    to an ordinary Hermitian problem; the bottom eigenvalue is zero with
    eigenvector the identity. That matrix is made in place from the
    context's eigenbasis generator, which the context then no longer keeps.
    """
    ctx.require_faithful()
    b = ctx.kms_hermitian_part(ctx.take_eigenbasis_generator())
    w = np.linalg.eigvalsh(np.negative(b, out=b))
    if abs(w[0]) > 1e-8:
        raise NumericalError(f"generator has no zero mode (found {w[0]:.3e})")
    gap = float(w[1]) if len(w) > 1 else 0.0
    return max(gap, 0.0)


def functional_constants(ctx: GeneratorContext) -> FunctionalConstants:
    """The spectral gap of a context, with alpha_2 = lsi_depolarizing(sigma)
    (and the TI constant that follows) exactly when the generator is the
    depolarizing one toward its stationary state sigma (_is_depolarizing)."""
    gap = spectral_gap(ctx)
    return FunctionalConstants(gap, lsi_depolarizing(ctx.faithful) if _is_depolarizing(ctx) else None)


def _is_depolarizing(ctx: GeneratorContext) -> bool:
    """Whether d >= 2 and the generator is X -> Tr[sigma X] id - X: its
    Heisenberg matrix H has H + 1 = vec(id) vec(sigma^T)^T within
    SYMMETRY_REL_TOL * ctx.scale. Compared d rows at a time, so each
    temporary holds d^3 entries."""
    d = ctx.dim
    if d < 2:
        return False
    ones, row = vec(np.eye(d)), vec(ctx.sigma.T)
    for start in range(0, d * d, d):
        block = ctx.heisenberg[start:start + d] - np.outer(ones[start:start + d], row)
        block[np.arange(d), np.arange(start, start + d)] += 1.0
        if np.max(np.abs(block)) > SYMMETRY_REL_TOL * ctx.scale:
            return False
    return True


# ---------------------------------------------------------------------------
# Closed-form constants
# ---------------------------------------------------------------------------

def lsi_depolarizing(sigma) -> float:
    """Log-Sobolev constant of the depolarizing semigroup toward sigma:
    (1 - 2 s_min) / ln(1/s_min - 1), with the analytic limit 1/2 at s_min = 1/2."""
    s_min = float(_as_state(sigma).eigenvalues[-1])
    if abs(s_min - 0.5) < 1e-9:
        return 0.5
    return (1.0 - 2.0 * s_min) / math.log(1.0 / s_min - 1.0)


def ti_from_lsi(alpha2: float) -> float:
    """Transportation-information constant implied by LSI: C = 1/(8 alpha_2^2)."""
    if alpha2 <= 0:
        raise ValidationError("alpha_2 must be positive")
    return 1.0 / (8.0 * alpha2 * alpha2)


# ---------------------------------------------------------------------------
# Lipschitz calculus and Wasserstein lower bounds
# ---------------------------------------------------------------------------

class LipschitzContext:
    """A derivation set [L_j, .] with modular weights defining the metric;
    ``derivations`` is the (k, d, d) stack of the L_j.

    The commutator Lipschitz seminorm is
    ||X||_Lip = sqrt( sum_j (e^{-w_j/2} + e^{w_j/2}) ||[L_j, X]||_inf^2 ),
    and its unit ball is the dual ball of the order-1 Wasserstein distance.
    Exists only when every derivation is a modular eigenvector (Bohr
    frequencies present).
    """

    def __init__(self, sigma: FaithfulState, derivations, omegas: list[float]):
        if len(derivations) != len(omegas):
            raise ValidationError("need one modular frequency per derivation")
        self.sigma = sigma
        self.derivations = as_matrix_stack(derivations, sigma.dim, "derivation")
        self.omegas = [float(w) for w in omegas]
        self.weights = np.array([math.exp(-w / 2.0) + math.exp(w / 2.0) for w in self.omegas])

    @classmethod
    def from_context(cls, ctx: GeneratorContext) -> "LipschitzContext":
        """Derivations from the generator's own jumps."""
        st = ctx.require_faithful()
        omegas = ctx.bohr
        if omegas is None:
            raise ValidationError("jumps are not modular eigenvectors; no Lipschitz calculus")
        return cls(st, ctx.lindbladian.jumps, omegas)


def lipschitz_norm(lip: LipschitzContext, x) -> float:
    """Commutator Lipschitz seminorm of a Hermitian observable."""
    x = require_hermitian(x, tol=1e-8, name="X")
    total = 0.0
    for w, l in zip(lip.weights, lip.derivations):
        comm = l @ x - x @ l
        total += w * np.linalg.norm(comm, 2) ** 2
    return float(math.sqrt(total))


def tilde_observable(ctx: GeneratorContext, u) -> np.ndarray:
    """Modular-smoothed observable Delta^(1/4)(L_u*) + Delta^(-1/4)(L_u).

    Hermitian for real direction vectors, with the same stationary mean as
    the raw observable L_u + L_u*.
    """
    st = ctx.require_faithful()
    lind = ctx.lindbladian
    l_u = np.tensordot(np.asarray(u, dtype=float).reshape(lind.k), lind.jumps, axes=1)
    out = spectral_transform(st, l_u.conj().T, 0.25)
    out += spectral_transform(st, l_u, -0.25)
    return out


def w1_lower_bound(lip: LipschitzContext, rho1, rho2) -> float:
    """Certified lower bound on the order-1 Wasserstein distance.

    Maximizes Tr[(rho1 - rho2) X] / ||X||_Lip over Hermitian X by one BFGS
    ascent from X = rho1 - rho2 in X's real coordinates, where the gradient
    is the coordinates of the closed-form gradient matrix. The ratio
    is quasi-concave where the pairing is positive, so its local maximum is
    global; the value at any X is a valid lower bound.
    """
    rho1 = require_hermitian(rho1, tol=1e-8, name="rho1")
    rho2 = require_hermitian(rho2, tol=1e-8, name="rho2")
    delta = rho1 - rho2
    if np.max(np.abs(delta)) < 1e-14:
        return 0.0
    ls = lip.derivations

    def negative_ratio(c):
        x = hermitian_from_coordinates(c)
        pairing = float(np.trace(delta @ x).real)
        u, s, vh = np.linalg.svd(ls @ x - x @ ls)
        top = s[:, 0]
        norm = math.sqrt(lip.weights @ top**2)
        if norm < 1e-12:
            if abs(pairing) > 1e-10:
                raise NumericalError("unbounded direction: zero Lipschitz norm with nonzero pairing")
            return 0.0, np.zeros_like(c)
        # For C_j = [L_j, X] with top singular triple (s_j, u_j, v_j),
        # ds_j = tr(herm(v_j u_j^+ L_j - L_j v_j u_j^+) dX).
        vu = vh[:, 0, :, None].conj() * u[:, None, :, 0].conj()
        dsquare = hermitian_part(np.einsum("j,jab->ab", lip.weights * top, vu @ ls - ls @ vu))
        grad = math.copysign(1.0, pairing) * delta / norm - abs(pairing) / norm**3 * dsquare
        return -abs(pairing) / norm, -hermitian_coordinates(grad)

    return -_bfgs_weak_wolfe(negative_ratio, hermitian_coordinates(delta))


def _bfgs_weak_wolfe(f, x: np.ndarray) -> float:
    """Smallest value BFGS reaches from x, for f returning (value, gradient).

    The line search asks only for the weak Wolfe conditions and brackets
    them by doubling and bisection, so it steps across the kinks of the
    spectral norm where a strong Wolfe search, such as L-BFGS-B's, stalls
    (Lewis & Overton, Math. Program. 141, 2013). Stops when no trial step
    meets them, and, as Lewis and Overton's bracket test, as soon as the
    step taken or the bracket still searched changes f by a predicted
    |slope| * width of at most ROUNDING_RTOL * |f|: below the rounding of f,
    a trial step only samples noise. A collapsed bracket returns the value
    at its lower end, the last step with sufficient decrease.
    """
    fx, g = f(x)
    h = np.eye(x.size)
    for _ in range(BFGS_MAX_ITER):
        p = -h @ g
        slope = g @ p
        if slope >= 0:
            break
        resolvable = ROUNDING_RTOL * abs(fx) / -slope
        lo, hi, t, flo = 0.0, math.inf, 1.0, fx
        for _ in range(WOLFE_MAX_TRIALS):
            fn, gn = f(x + t * p)
            if fn > fx + WOLFE_C1 * t * slope:
                hi = t
            elif gn @ p < WOLFE_C2 * slope:
                lo, flo = t, fn
            else:
                break
            if hi - lo <= resolvable:
                return flo
            t = 2.0 * lo if math.isinf(hi) else 0.5 * (lo + hi)
        else:
            break
        s, y = t * p, gn - g
        x, fx, g = x + s, fn, gn
        if t <= resolvable:
            break
        # The curvature condition makes s.y > 0 in exact arithmetic; the
        # test keeps rounding from breaking the positive definiteness of h.
        if s @ y > 0:
            v = np.eye(x.size) - np.outer(s, y) / (s @ y)
            h = v @ h @ v.T + np.outer(s, s) / (s @ y)
    return fx


# ---------------------------------------------------------------------------
# Concentration bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationBound:
    """Tail bound of the form prefactor * exp(-coefficient * t * r^2)."""

    variant: str
    coefficient: float
    prefactor: float

    def exponent(self, t: float, r: float) -> float:
        return self.coefficient * t * r * r

    def bound(self, t: float, r: float) -> float:
        if not t >= 0.0:
            raise ValidationError(f"time must be nonnegative, got {t!r}")
        if not r >= 0.0:
            raise ValidationError(f"threshold r must be nonnegative, got {r!r}")
        return self.prefactor * math.exp(-self.exponent(t, r))


def concentration_bound(variant: str, *, prefactor: float = 1.0,
                        ti_constant: float | None = None,
                        lipschitz_value: float | None = None,
                        gap: float | None = None,
                        sup_norm: float | None = None,
                        dim: int | None = None,
                        eigenvalue_spread: float | None = None,
                        lsi_alpha2: float | None = None,
                        n_factors: int | None = None,
                        alpha_u: float | None = None,
                        beta_h_norm: float | None = None,
                        hypothesis_attested: bool = False) -> ConcentrationBound:
    """Closed-form concentration coefficients, one per proved display.

    ti_gaussian      exp(-t r^2 / 4); requires the caller to attest that the
                     scaled smoothed observable pair lies in the test set.
    ti_lipschitz     exp(-t r^2 / (2 (1 + C ||O~||_Lip^2))).
    poincare         exp(-gap t r^2 / (2 (gap + 2 ||O~||_inf^2))).
    depolarizing     exp(-2 (d-2)^2 t r^2 / (4 (d-2)^2 + S d^2 ln(d-1)^2))
                     with S the eigenvalue pair spread sum and prefactor d.
    tensor           exp(-4 a2^2 t r^2 / (8 a2^2 + n alpha(u))).
    gibbs            exp(beta ||H|| / 2 - t r^2 / (2 (1 + C L_orn^2))) with
                     user-supplied C and Ornstein-Lipschitz value.

    Every constant a display uses must be at most CONSTANT_MAX; the gap, the LSI
    constant and the prefactor at least 1/CONSTANT_MAX, the others nonnegative;
    dim >= 3 and n_factors >= 1. Anything else raises ValidationError.
    """
    _need(prefactor, "prefactor", positive=True)
    if variant == "ti_gaussian":
        if not hypothesis_attested:
            raise ValidationError("ti_gaussian requires hypothesis_attested=True (test-set membership)")
        return ConcentrationBound(variant, 0.25, prefactor)
    if variant == "ti_lipschitz":
        _need(ti_constant, "ti_constant")
        _need(lipschitz_value, "lipschitz_value")
        return ConcentrationBound(variant, 1.0 / (2.0 * (1.0 + ti_constant * lipschitz_value**2)), prefactor)
    if variant == "poincare":
        _need(gap, "gap", positive=True)
        _need(sup_norm, "sup_norm")
        return ConcentrationBound(variant, gap / (2.0 * (gap + 2.0 * sup_norm**2)), prefactor)
    if variant == "depolarizing":
        _need(dim, "dim", minimum=3)
        _need(eigenvalue_spread, "eigenvalue_spread")
        num = 2.0 * (dim - 2) ** 2
        den = 4.0 * (dim - 2) ** 2 + eigenvalue_spread * dim**2 * math.log(dim - 1) ** 2
        return ConcentrationBound(variant, num / den, float(dim))
    if variant == "tensor":
        _need(lsi_alpha2, "lsi_alpha2", positive=True)
        _need(n_factors, "n_factors", minimum=1)
        _need(alpha_u, "alpha_u")
        a2sq = lsi_alpha2**2
        return ConcentrationBound(variant, 4.0 * a2sq / (8.0 * a2sq + n_factors * alpha_u), prefactor)
    if variant == "gibbs":
        _need(ti_constant, "ti_constant")
        _need(lipschitz_value, "lipschitz_value")
        _need(beta_h_norm, "beta_h_norm")
        if beta_h_norm / 2.0 > math.log(sys.float_info.max):
            raise ValidationError(f"beta_h_norm {beta_h_norm!r} overflows the prefactor exp(beta_h_norm / 2)")
        coeff = 1.0 / (2.0 * (1.0 + ti_constant * lipschitz_value**2))
        return ConcentrationBound(variant, coeff, math.exp(beta_h_norm / 2.0))
    raise ValidationError(f"unknown concentration variant {variant!r}")


def _need(value, name: str, minimum: float = 0.0, positive: bool = False):
    """Require the constant ``name``: given, at least ``minimum`` (at least
    1/CONSTANT_MAX when ``positive``) and at most CONSTANT_MAX."""
    if value is None:
        raise ValidationError(f"variant requires {name}")
    low = max(minimum, 1.0 / CONSTANT_MAX) if positive else minimum
    if not low <= value <= CONSTANT_MAX:
        raise ValidationError(f"{name} must be finite and in [{low:g}, {CONSTANT_MAX:g}], got {value!r}")


def tensorization_lsi_bounds(contexts: list[GeneratorContext]) -> tuple[float, float]:
    """Bracket for the log-Sobolev constant of a product of KMS-symmetric
    factors: min_k gap_k / (ln(d^4 max_k ||sigma_k^{-1}||) + 11) below,
    min_k gap_k / 2 above. The lower bound does not depend on the number of
    factors."""
    if not contexts:
        raise ValidationError("need at least one factor")
    dims = {ctx.dim for ctx in contexts}
    if len(dims) != 1:
        raise ValidationError("factors must share the local dimension")
    d = dims.pop()
    gaps = []
    inv_norms = []
    for ctx in contexts:
        if not ctx.primitive:
            raise ValidationError("every factor must be primitive")
        if not check_detailed_balance("KMS", ctx).symmetric:
            raise ValidationError("every factor must be KMS-symmetric")
        gaps.append(spectral_gap(ctx))
        inv_norms.append(1.0 / float(ctx.require_faithful().eigenvalues[-1]))
    lower = min(gaps) / (math.log(d**4 * max(inv_norms)) + 11.0)
    upper = min(gaps) / 2.0
    return lower, upper
