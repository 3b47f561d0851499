"""Memory budgets of the analytics path, in generator-sized units.

A unit is one d^2 x d^2 complex matrix, 16 d^4 bytes. Each budget is the
tracemalloc peak of one call above what was allocated before it, on a
seeded d = 16 depolarizing model with one Brownian channel (the model of
bench/analytics_scale.py). Memory LAPACK allocates for itself is not
traced, so these count the arrays qdev makes. The stationary solve holds
only the inverse of the bordered generator; main_bound holds B0 and, at
lam*, the one B(lam*) the dense check needs; check_detailed_balance holds
the difference of the generator and its dual (beside the eigenbasis
generator, when it computes that itself); the Bohr frequencies hold d^3-
sized slices of the d^2 jumps; the trajectory engine keeps its three real
blocks (half a unit each) and makes each from one complex vec map.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from qdev import deviation, fileio, inequalities, lindblad, models, trajectories

D = 16
UNIT = 16 * D ** 4


def traced(fn):
    """(result, peak, retained): fn's tracemalloc peak and what it left
    allocated, both in units and above what was allocated before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - base) / UNIT, (current - base) / UNIT


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(16)
    g = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    sigma = g @ g.conj().T
    sigma = 0.8 * sigma / np.trace(sigma).real + 0.2 * np.eye(D) / D
    sigma = 0.5 * (sigma + sigma.conj().T)
    direction = np.zeros(D * D)
    direction[1 * D + 5] = direction[5 * D + 1] = 1.0 / np.sqrt(2.0)
    lind = models.depolarizing(sigma)
    return sigma, lind, lind.heisenberg_superoperator(), direction


def fresh_context(model):
    _, lind, heis, _ = model
    return lindblad._context(heis, lind)


def test_assembly_budget(model):
    _, lind, _, _ = model
    _, peak, _ = traced(lind.heisenberg_superoperator)
    assert peak <= 3.1


def test_read_model_budget(model, tmp_path):
    # The parsed JSON text of the packed jumps sets the peak; the generator
    # keeps one jump stack (one unit) and the Hamiltonian.
    _, lind, _, _ = model
    path = tmp_path / "model.json"
    fileio.save_model(path, hamiltonian=lind.hamiltonian, jumps=lind.jumps)
    (generator, _), peak, retained = traced(lambda: fileio._read_model(path))
    assert np.array_equal(generator.jumps, lind.jumps)
    assert peak <= 2.8
    assert retained <= 1.1


def test_stationary_solve_budget(model):
    _, peak, _ = traced(lambda: fresh_context(model))
    assert peak <= 1.1


def test_main_bound_budget_and_nothing_kept(model):
    sigma, _, _, direction = model
    ctx = fresh_context(model)
    setup = deviation.MeasurementSetup(ctx, direction[None, :], 1)
    report, peak, retained = traced(lambda: deviation.main_bound(setup, sigma, [0.3]))
    assert report.status == "ok"
    assert peak <= 2.3
    assert retained < 0.5


def test_spectral_gap_budget(model):
    ctx = fresh_context(model)
    gap, peak, _ = traced(lambda: inequalities.spectral_gap(ctx))
    assert gap == pytest.approx(1.0, abs=1e-8)
    assert peak <= 2.2


def test_functional_constants_budget(model):
    # The closed-form test reads the generator d rows at a time, so the
    # spectral gap sets the peak.
    ctx = fresh_context(model)
    consts, peak, _ = traced(lambda: inequalities.functional_constants(ctx))
    assert consts.lsi_alpha2 is not None
    assert peak <= 2.2


def detailed_balance(ctx):
    return [lindblad.check_detailed_balance(kind, ctx) for kind in ("GNS", "KMS", "BKM")]


@pytest.mark.parametrize("cached, budget", [(True, 1.56), (False, 2.56)], ids=["cached", "fresh"])
def test_detailed_balance_budget(model, cached, budget):
    ctx = fresh_context(model)
    if cached:
        ctx.eigenbasis_generator
    reports, peak, _ = traced(lambda: detailed_balance(ctx))
    assert all(r.symmetric for r in reports)
    assert peak <= budget


def test_bohr_budget(model):
    ctx = fresh_context(model)
    omegas, peak, _ = traced(lambda: ctx.bohr)
    assert omegas is not None and len(omegas) == D * D
    assert peak <= 0.5


@pytest.mark.parametrize("linear", [False, True], ids=["filter", "linear"])
def test_trajectory_engine_budget(model, linear):
    _, _, _, direction = model
    setup = deviation.MeasurementSetup(fresh_context(model), direction[None, :], 1)
    cfg = trajectories.TrajectoryConfig(dt=1e-3, t_max=1.0, n_paths=1, base_seed=1)
    engine, peak, retained = traced(lambda: trajectories._Engine(setup, cfg, linear))
    assert engine.operators.shape[0] >= 3 * D * D
    assert peak <= 3.8
    assert retained <= 1.6
