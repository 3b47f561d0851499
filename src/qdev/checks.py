"""Fast fixture suite behind `qdev check --suite paper-fixtures`.

Runs reduced-size versions of the acceptance fixtures: closed-form
constants, Legendre duality, the classical reduction, the symmetry
counterexamples, heat-bath stationarity, and a small trajectory ensemble.
Each check returns (name, passed, detail).
"""

from __future__ import annotations

import math

import numpy as np

from .deviation import MeasurementSetup, main_bound, rate_function
from .inequalities import lsi_depolarizing, spectral_gap, tensorization_lsi_bounds, ti_from_lsi
from .lindblad import (Lindbladian, check_detailed_balance, dirichlet_form, lindbladian_from_channel,
                       stationary_residual, stationary_state)
from .models import (
    ClassicalChain,
    CommutingHamiltonian,
    appendix_b_fixtures,
    classical_embedding,
    depolarizing,
    heat_bath,
    maximally_mixed,
    tensor_product,
)
from .trajectories import TrajectoryConfig, compare_with_bound, run_ensemble, run_linear_ensemble

Result = tuple[str, bool, str]


def _scalar_lindblad(c: complex) -> Lindbladian:
    return Lindbladian(np.zeros((1, 1)), [np.array([[c]], dtype=complex)])


def run_paper_fixtures(n_workers: int = 1) -> list[Result]:
    """Every fixture check, in order; the two ensembles run on up to
    ``n_workers`` worker processes."""
    results: list[Result] = []

    # Gaussian scalar fixture: exponent r^2/2.
    ctx = stationary_state(_scalar_lindblad(0.0))
    setup = MeasurementSetup(ctx, [[1.0]], q=1)
    rep = main_bound(setup, ctx.sigma, [1.0])
    err = abs(rep.exponent - 0.5)
    results.append(("gaussian exponent", err <= 1e-10, f"|0.5 - {rep.exponent!r}| = {err:.2e}"))

    # Poisson scalar fixture: exponent 2 ln 2 - 1 at unit rate, r = 1.
    ctxp = stationary_state(_scalar_lindblad(1.0))
    setupp = MeasurementSetup(ctxp, [[1.0]], q=0)
    repp = main_bound(setupp, ctxp.sigma, [1.0])
    target = 2 * math.log(2) - 1
    err = abs(repp.exponent - target)
    results.append(("poisson exponent", err <= 1e-8, f"error {err:.2e}"))

    # Legendre duality on the qubit depolarizing fixture.
    ctx2 = stationary_state(depolarizing(maximally_mixed(2)))
    u = np.zeros(4)
    u[1] = u[2] = 1 / math.sqrt(2)
    setup2 = MeasurementSetup(ctx2, [u], q=1)
    rep2 = main_bound(setup2, ctx2.sigma, [0.3])
    point = rate_function(setup2, [[rep2.mean[0] + 0.3]])[0]
    err = abs(rep2.exponent - point.value)
    results.append(("legendre duality", err <= 1e-6, f"bound/rate gap {err:.2e}"))

    # Classical reduction: 3-state reversible chain.
    pi = np.array([0.5, 0.3, 0.2])
    sym = np.array([[0, 0.7, 0.4], [0.7, 0, 0.9], [0.4, 0.9, 0]])
    q = sym * pi[None, :]
    np.fill_diagonal(q, -q.sum(axis=1))
    chain = ClassicalChain(q)
    ctxc = stationary_state(classical_embedding(chain))
    g = np.array([0.3, -1.1, 0.4])
    e_quantum = dirichlet_form(ctxc, np.diag(g).astype(complex))
    e_classical = -float(np.einsum("i,i,ij,j->", chain.stationary, g, q, g))
    err1 = abs(e_quantum - e_classical)
    err2 = abs(spectral_gap(ctxc) - chain.gap())
    results.append(("classical reduction", err1 <= 1e-12 and err2 <= 1e-10,
                    f"dirichlet {err1:.2e}, gap {err2:.2e}"))

    # Closed-form constants.
    a3 = lsi_depolarizing(maximally_mixed(3))
    a4 = lsi_depolarizing(maximally_mixed(4))
    ok = (abs(a3 - 1 / (3 * math.log(2))) <= 1e-12
          and abs(a4 - 2 / (4 * math.log(3))) <= 1e-12
          and abs(ti_from_lsi(a3) - 9 * math.log(2) ** 2 / 8) <= 1e-12
          and abs(spectral_gap(ctx2) - 1.0) <= 1e-10)
    results.append(("closed-form constants", ok, f"alpha2(3)={a3!r}"))

    # Symmetry counterexamples.
    fx = appendix_b_fixtures()
    ctx_psi, ctx_psit, ctx_pch = (stationary_state(lindbladian_from_channel(channel))
                                  for channel in (fx.psi, fx.psi_tilde, fx.p_channel))
    kms = check_detailed_balance("KMS", ctx_psi)
    bkm = check_detailed_balance("BKM", ctx_psi)
    kms_t = check_detailed_balance("KMS", ctx_psit)
    bkm_t = check_detailed_balance("BKM", ctx_psit)
    ok = (kms.deviation <= 1e-10 and bkm.deviation > 1e-6
          and bkm_t.deviation <= 1e-10 and kms_t.deviation > 1e-6
          and check_detailed_balance("KMS", ctx_pch).symmetric
          and check_detailed_balance("BKM", ctx_pch).symmetric)
    results.append(("symmetry counterexamples", ok,
                    f"psi: kms {kms.deviation:.1e} bkm {bkm.deviation:.1e}"))

    # Heat-bath stationarity at beta = 0.5 for the two-qubit Ising chain.
    ham = CommutingHamiltonian(2, 2, [((0, 1), np.diag([1.0, -1.0, -1.0, 1.0]))], beta=0.5)
    residual = stationary_residual(heat_bath(ham).heisenberg_superoperator(), ham.gibbs_state())
    results.append(("heat-bath stationarity", residual <= 1e-9, f"residual {residual:.2e}"))

    # Tensorization bracket for two qutrit depolarizing factors.
    ctx3 = stationary_state(depolarizing(maximally_mixed(3)))
    lo, up = tensorization_lsi_bounds([ctx3, ctx3])
    expected_lo = 1 / (math.log(3 ** 5) + 11)
    prod = stationary_state(tensor_product([depolarizing(maximally_mixed(3))] * 2))
    gap_prod = spectral_gap(prod)
    ok = abs(lo - expected_lo) <= 1e-10 and abs(up - 0.5) <= 1e-10 and abs(gap_prod - 1.0) <= 1e-8
    results.append(("tensorization bracket", ok, f"lower {lo!r}, product gap {gap_prod!r}"))

    # Small trajectory ensemble against the Gaussian tail and the bound.
    cfg = TrajectoryConfig(dt=1e-3, t_max=4.0, n_paths=2000, base_seed=20240817)
    res = run_ensemble(setup, ctx.sigma, cfg, [1.0], n_workers=n_workers)
    tail = res.tails[0]
    exact = 0.5 * math.erfc(math.sqrt(2.0))  # P(N(0, 1) >= 2)
    cmp = compare_with_bound(tail, rep, 4.0)
    ok = (tail.ci_low <= exact <= tail.ci_high) and cmp.consistent
    results.append(("gaussian trajectory tail", ok,
                    f"estimate {tail.estimate:.4f}, CI [{tail.ci_low:.4f}, {tail.ci_high:.4f}]"))

    # Linear-equation martingale on the qubit depolarizing fixture.
    rho0 = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
    cfgl = TrajectoryConfig(dt=1e-3, t_max=1.0, n_paths=2000, base_seed=5, checkpoints=(0.5, 1.0))
    _, zmean, zse, failures = run_linear_ensemble(setup2, rho0, cfgl, n_workers=n_workers)
    ok = failures == 0 and bool(np.all(np.abs(zmean - 1.0) <= 3 * zse))
    results.append(("martingale mean", ok, f"Z means {np.round(zmean, 4).tolist()}"))

    return results
