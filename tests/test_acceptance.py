"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.stats

from conftest import (
    apply_superoperator,
    direct_variational_crosscheck,
    dual_superoperator,
    fisher_information,
    random_state,
    scalar_lindblad,
    site_channels,
    unit_derivations,
    verify_poincare_ti,
)
from qdev.cli import main as cli_main
from qdev.deviation import (
    MeasurementSetup,
    main_bound,
    mean_vector,
    rate_function,
)
from qdev.inequalities import (
    LipschitzContext,
    lipschitz_norm,
    lsi_depolarizing,
    spectral_gap,
    tensorization_lsi_bounds,
    ti_from_lsi,
)
from qdev.linalg import vec
from qdev.lindblad import (
    check_detailed_balance,
    dirichlet_form,
    lindbladian_from_channel,
    stationary_state,
)
from qdev.models import (
    ClassicalChain,
    CommutingHamiltonian,
    appendix_b_fixtures,
    classical_embedding,
    depolarizing,
    heat_bath,
    maximally_mixed,
    tensor_product,
)
from qdev.trajectories import (
    TrajectoryConfig,
    compare_with_bound,
    run_ensemble,
    run_linear_ensemble,
)
from qdev.inequalities import w1_lower_bound


def report(number: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def brownian_direction(d: int) -> np.ndarray:
    """Unit direction selecting the (0,1)+(1,0) matrix-unit pair of a
    depolarizing jump family, so that O^B is proportional to sigma_x."""
    u = np.zeros(d * d)
    u[1] = 1 / math.sqrt(2)      # jump |0><1|
    u[d] = 1 / math.sqrt(2)      # jump |1><0|
    return u


def test_criterion_1_gaussian_fixture_exactness():
    start = time.monotonic()
    ctx = stationary_state(scalar_lindblad(0.0))
    setup = MeasurementSetup(ctx, [[1.0]], q=1)
    rep = main_bound(setup, ctx.sigma, [1.0])
    exponent_ok = abs(rep.exponent - 0.5) <= 1e-10
    cfg = TrajectoryConfig(dt=1e-3, t_max=4.0, n_paths=10_000, base_seed=20240817)
    res = run_ensemble(setup, ctx.sigma, cfg, [1.0])
    tail = res.tails[0]
    exact = scipy.stats.norm.sf(2.0)    # 0.02275013...
    ci_ok = tail.ci_low <= exact <= tail.ci_high
    consistent = compare_with_bound(tail, rep, 4.0).consistent
    elapsed = time.monotonic() - start
    report(1, exponent_ok and ci_ok and consistent and elapsed < 30.0,
           f"exponent err {abs(rep.exponent - 0.5):.1e}, tail {tail.estimate:.5f} "
           f"CI [{tail.ci_low:.5f}, {tail.ci_high:.5f}] vs exact {exact:.5f}, "
           f"consistent={consistent}, elapsed {elapsed:.1f}s")


def test_criterion_2_poisson_fixture_exactness():
    ctx = stationary_state(scalar_lindblad(1.0))
    setup = MeasurementSetup(ctx, [[1.0]], q=0)
    rep = main_bound(setup, ctx.sigma, [1.0])
    # Legendre oracle: sup_l [2l - (e^l - 1)] attained at l = ln 2.
    oracle = 2 * math.log(2.0) - 1.0
    exponent_ok = abs(rep.exponent - oracle) <= 1e-8
    tails = {}
    for dt in (1e-3, 5e-4):
        cfg = TrajectoryConfig(dt=dt, t_max=20.0, n_paths=4000, base_seed=91,
                               checkpoints=(20.0,))
        tails[dt] = run_ensemble(setup, ctx.sigma, cfg, [1.0]).tails[0]
    dominated = compare_with_bound(tails[1e-3], rep, 20.0).consistent
    ci_width = tails[1e-3].ci_high - tails[1e-3].ci_low
    halving_shift = abs(tails[1e-3].estimate - tails[5e-4].estimate)
    report(2, exponent_ok and dominated and halving_shift < ci_width,
           f"exponent err {abs(rep.exponent - oracle):.1e}, tail {tails[1e-3].estimate:.2e} "
           f"vs bound {rep.bound(20.0):.2e}, dt-halving shift {halving_shift:.2e} "
           f"< CI width {ci_width:.2e}")


def test_criterion_3_legendre_duality():
    worst_rate = 0.0
    worst_direct = 0.0
    for d in (2, 3):
        ctx = stationary_state(depolarizing(maximally_mixed(d)))
        setup = MeasurementSetup(ctx, [brownian_direction(d)], q=1)
        m = mean_vector(setup)
        for r in (0.1, 0.3, 1.0):
            rep = main_bound(setup, ctx.sigma, [r])
            point = rate_function(setup, [[m[0] + r]])[0]
            direct = direct_variational_crosscheck(setup, [r])
            worst_rate = max(worst_rate, abs(rep.exponent - point.value))
            worst_direct = max(worst_direct, abs(rep.exponent - direct))
    report(3, worst_rate <= 1e-6 and worst_direct <= 1e-5,
           f"max |bound - rate| = {worst_rate:.1e} (tol 1e-6), "
           f"max |bound - direct| = {worst_direct:.1e} (tol 1e-5)")


def test_criterion_4_classical_reduction():
    pi = np.array([0.5, 0.3, 0.2])
    symmetric = np.array([[0, 0.7, 0.4], [0.7, 0, 0.9], [0.4, 0.9, 0]])
    rates = symmetric * pi[None, :]
    np.fill_diagonal(rates, -rates.sum(axis=1))
    chain = ClassicalChain(rates)
    assert chain.reversible
    ctx = stationary_state(classical_embedding(chain))
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        g = rng.normal(size=3)
        quantum = dirichlet_form(ctx, np.diag(g).astype(complex))
        classical = -float(np.einsum("i,i,ij,j->", chain.stationary, g, rates, g))
        worst = max(worst, abs(quantum - classical))
    gap_err = abs(spectral_gap(ctx) - chain.gap())
    report(4, worst <= 1e-12 and gap_err <= 1e-10,
           f"max Dirichlet gap {worst:.1e} (tol 1e-12), spectral gap err {gap_err:.1e}")


def test_criterion_5_closed_form_constants():
    a3 = lsi_depolarizing(maximally_mixed(3))
    a4 = lsi_depolarizing(maximally_mixed(4))
    e3 = abs(a3 - 1 / (3 * math.log(2)))
    e4 = abs(a4 - 2 / (4 * math.log(3)))
    gap_err = abs(spectral_gap(stationary_state(depolarizing(maximally_mixed(3)))) - 1.0)
    rng = np.random.default_rng(5)
    lip_err = 0.0
    for d in (3, 4):
        ctx = stationary_state(depolarizing(maximally_mixed(d)))
        lip = unit_derivations(ctx)
        o = rng.normal(size=d)
        pair_sum = sum(2 * (o[x] - o[y]) ** 2 for x in range(d) for y in range(d))
        lip_err = max(lip_err, abs(lipschitz_norm(lip, np.diag(o).astype(complex))
                                    - math.sqrt(pair_sum)))
    ti_exact = (ti_from_lsi(a3) == 1.0 / (8.0 * a3 * a3)
                and ti_from_lsi(0.5) == 0.5)
    report(5, e3 <= 1e-12 and e4 <= 1e-12 and gap_err <= 1e-10
           and lip_err <= 1e-12 and ti_exact,
           f"alpha2 errs {e3:.1e}/{e4:.1e}, gap err {gap_err:.1e}, "
           f"Lipschitz err {lip_err:.1e}, TI exact {ti_exact}")


def test_criterion_6_inequality_chain():
    rng = np.random.default_rng(6)
    violations = 0
    checked = 0
    for d in (2, 3):
        ctx = stationary_state(depolarizing(maximally_mixed(d)))
        lip = LipschitzContext.from_context(ctx)
        c = ti_from_lsi(lsi_depolarizing(maximally_mixed(d)))
        gap = spectral_gap(ctx)
        for _ in range(100):
            rho = random_state(rng, d)
            info = fisher_information(ctx, rho)
            w1 = w1_lower_bound(lip, rho, ctx.sigma)
            if w1 > math.sqrt(2 * c * info) + 1e-8:
                violations += 1
            lhs, rhs, holds = verify_poincare_ti(ctx, rho)
            if not holds:
                violations += 1
            checked += 1
    report(6, violations == 0, f"{checked} random states per chain, {violations} violations")


def test_criterion_7_trajectory_physics():
    ctx = stationary_state(depolarizing(maximally_mixed(2)))
    setup = MeasurementSetup(ctx, [brownian_direction(2)], q=1)
    rho0 = np.array([[0.9, 0.2 - 0.1j], [0.2 + 0.1j, 0.1]], dtype=complex)
    checkpoints = (0.2, 0.4, 0.6, 0.8, 1.0)
    cfg = TrajectoryConfig(dt=1e-3, t_max=1.0, n_paths=10_000, base_seed=7070,
                           checkpoints=checkpoints)
    res = run_ensemble(setup, rho0, cfg, [-math.inf])
    schro = ctx.heisenberg.conj().T
    mean_ok = True
    worst_ratio = 0.0
    for i, t in enumerate(res.checkpoint_times):
        target = (scipy.linalg.expm(t * schro) @ vec(rho0)).reshape(2, 2, order="F")
        diff = res.mean_states[i] - target
        trace_norm = float(np.sum(np.linalg.svd(diff, compute_uv=False)))
        budget = 5 * math.sqrt(2) * res.state_stderr[i]
        worst_ratio = max(worst_ratio, trace_norm / budget)
        mean_ok &= trace_norm <= budget
    _, zmean, zse, failures = run_linear_ensemble(setup, rho0, cfg)
    martingale_ok = failures == 0 and bool(np.all(np.abs(zmean - 1.0) <= 3 * zse))
    report(7, mean_ok and martingale_ok,
           f"mean-state worst ratio {worst_ratio:.2f} of budget, "
           f"Z in 1 +/- 3se at all checkpoints: {martingale_ok}")


def test_criterion_8_counterexample_classification():
    fx = appendix_b_fixtures(p=0.3)
    ctx_psi = stationary_state(lindbladian_from_channel(fx.psi))
    ctx_psit = stationary_state(lindbladian_from_channel(fx.psi_tilde))
    ctx_p = stationary_state(lindbladian_from_channel(fx.p_channel))
    kms = check_detailed_balance("KMS", ctx_psi).deviation
    bkm = check_detailed_balance("BKM", ctx_psi).deviation
    kms_t = check_detailed_balance("KMS", ctx_psit).deviation
    bkm_t = check_detailed_balance("BKM", ctx_psit).deviation
    p_ok = (check_detailed_balance("KMS", ctx_p).symmetric
            and check_detailed_balance("BKM", ctx_p).symmetric)
    gns_dual = dual_superoperator("GNS", ctx_p, fx.p_channel)
    x = np.array([1.0, -1.0])
    witness = float(np.real(x @ apply_superoperator(gns_dual, np.ones((2, 2), dtype=complex)) @ x))
    report(8, kms <= 1e-10 and bkm > 1e-6 and bkm_t <= 1e-10 and kms_t > 1e-6
           and p_ok and witness <= 0.0,
           f"psi: KMS {kms:.1e}, BKM {bkm:.1e}; psi~: BKM {bkm_t:.1e}, KMS {kms_t:.1e}; "
           f"p-channel symmetric={p_ok}, GNS witness {witness:.3f} <= 0")


def test_criterion_9_tensorization_bracket():
    base = stationary_state(depolarizing(maximally_mixed(3)))
    expected_lower = 1.0 / (math.log(3.0 ** 5) + 11.0)
    lowers = []
    gaps = []
    for n in (1, 2, 3):
        lo, up = tensorization_lsi_bounds([base] * n)
        lowers.append(lo)
        assert abs(up - 0.5) <= 1e-10
        product = stationary_state(tensor_product([depolarizing(maximally_mixed(3))] * n))
        gaps.append(spectral_gap(product))
    lower_ok = all(abs(lo - expected_lower) <= 1e-10 for lo in lowers)
    n_independent = max(lowers) - min(lowers) <= 1e-14
    gaps_ok = all(abs(g - 1.0) <= 1e-8 for g in gaps)
    report(9, lower_ok and n_independent and gaps_ok,
           f"lower {lowers[0]!r} (expected {expected_lower!r}), "
           f"product gaps {[round(g, 10) for g in gaps]}")


def test_criterion_10_heat_bath_stationarity():
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    worst_residual = 0.0
    cp_ok = True
    for beta in (0.0, 0.5, 1.0):
        ham = CommutingHamiltonian(2, 2, [((0, 1), zz)], beta=beta)
        lind = heat_bath(ham)
        worst_residual = max(worst_residual,
                             float(np.max(np.abs(apply_superoperator(stationary_state(lind).heisenberg.conj().T,
                                                                     ham.gibbs_state())))))
        for psi in site_channels(lind, 2):
            cp_ok &= np.max(np.abs(apply_superoperator(psi, np.eye(4)) - np.eye(4))) < 1e-10
            choi = np.zeros((16, 16), dtype=complex)
            unit = np.zeros((4, 4), dtype=complex)
            for i in range(4):
                for j in range(4):
                    unit[i, j] = 1.0
                    image = (psi @ vec(unit)).reshape(4, 4, order="F")
                    choi += np.kron(unit, image)
                    unit[i, j] = 0.0
            cp_ok &= np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0] > -1e-10
    beta0 = stationary_state(heat_bath(CommutingHamiltonian(2, 2, [((0, 1), zz)], beta=0.0)))
    tensor = tensor_product([depolarizing(maximally_mixed(2))] * 2)
    beta0_diff = float(np.max(np.abs(beta0.heisenberg
                                     - tensor.heisenberg_superoperator())))
    report(10, worst_residual <= 1e-9 and cp_ok and beta0_diff <= 1e-10,
           f"max stationarity residual {worst_residual:.1e}, CP-unital {cp_ok}, "
           f"beta=0 vs tensor depolarizing {beta0_diff:.1e}")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("model.json").write_text(json.dumps({
        "kind": "lindblad", "dim": 1,
        "hamiltonian": [[[0.0, 0.0]]],
        "jumps": [[[[1.0, 0.0]]]],
    }))
    Path("setup.json").write_text(json.dumps({"directions": [[1.0]], "q": 0}))
    Path("config.json").write_text(json.dumps(
        {"dt": 1e-2, "t_max": 2.0, "n_paths": 600, "base_seed": 33,
         "checkpoints": [1.0, 2.0]}))
    args = ["simulate", "--model", "model.json", "--setup", "setup.json",
            "--config", "config.json", "--r", "0.5"]
    assert cli_main(args + ["-o", "run1.csv"]) == 0
    assert cli_main(args + ["-o", "run2.csv"]) == 0
    assert cli_main(["--threads", "4"] + args + ["-o", "run4.csv"]) == 0
    b1 = Path("run1.csv").read_bytes()
    identical = b1 == Path("run2.csv").read_bytes() == Path("run4.csv").read_bytes()
    report(11, identical, f"rerun and 4-thread CSVs byte-identical: {identical}")
