import math

import numpy as np
import pytest

from conftest import (
    SZ,
    aligned_thermal_qubit,
    entropy_functional,
    fisher_information,
    random_hermitian,
    random_state,
    tensor_alpha_u,
    unit_derivations,
    verify_poincare_ti,
)
from qdev.linalg import FaithfulState, NumericalError, ValidationError
from qdev.lindblad import Lindbladian, dirichlet_form, stationary_state
from qdev.inequalities import (
    FunctionalConstants,
    _bfgs_weak_wolfe,
    LipschitzContext,
    concentration_bound,
    functional_constants,
    lipschitz_norm,
    lsi_depolarizing,
    spectral_gap,
    tensorization_lsi_bounds,
    ti_from_lsi,
    tilde_observable,
    w1_lower_bound,
)
from qdev.models import (
    ClassicalChain,
    classical_embedding,
    depolarizing,
    maximally_mixed,
    tensor_product,
)


class TestSpectralGap:
    def test_depolarizing_gap_is_one(self, qubit_depolarizing, qutrit_depolarizing):
        assert spectral_gap(qubit_depolarizing) == pytest.approx(1.0, abs=1e-10)
        assert spectral_gap(qutrit_depolarizing) == pytest.approx(1.0, abs=1e-10)

    def test_tensor_of_depolarizing(self):
        ctx = stationary_state(tensor_product([depolarizing(maximally_mixed(2))] * 2))
        assert spectral_gap(ctx) == pytest.approx(1.0, abs=1e-8)

    def test_two_state_chain(self):
        a, b = 0.9, 0.4
        ctx = stationary_state(classical_embedding(ClassicalChain(np.array([[-a, a], [b, -b]]))))
        assert spectral_gap(ctx) == pytest.approx(a + b, abs=1e-10)

    def test_poincare_inequality_on_random_observables(self, rng, qutrit_depolarizing):
        gap = spectral_gap(qutrit_depolarizing)
        for _ in range(100):
            x = random_hermitian(rng, 3)
            var = entropy_functional("variance", qutrit_depolarizing, x)
            assert gap * var <= dirichlet_form(qutrit_depolarizing, x) + 1e-9


class TestEntropyFunctionals:
    def test_variance_of_identity(self, qubit_depolarizing):
        assert entropy_functional("variance", qubit_depolarizing, np.eye(2)) == pytest.approx(0.0, abs=1e-12)

    def test_relative_entropy_at_sigma(self, qubit_depolarizing):
        sigma = qubit_depolarizing.sigma
        assert entropy_functional("relative_entropy", qubit_depolarizing, sigma) == pytest.approx(0.0, abs=1e-10)

    def test_relative_entropy_pure_vs_mixed(self, qubit_depolarizing):
        rho = np.diag([1.0, 0.0]).astype(complex)
        value = entropy_functional("relative_entropy", qubit_depolarizing, rho)
        assert value == pytest.approx(math.log(2), abs=1e-10)

    @pytest.mark.parametrize("kind", ["relative_entropy", "entropy_production"])
    def test_entropy_kinds_refuse_a_matrix_that_is_not_a_state(self, qubit_depolarizing, kind):
        with pytest.raises(ValidationError, match="trace"):
            entropy_functional(kind, qubit_depolarizing, np.diag([1.5, 0.5]))

    def test_entropy_production_nonnegative(self, rng, qutrit_depolarizing):
        for _ in range(25):
            rho = random_state(rng, 3)
            assert entropy_functional("entropy_production", qutrit_depolarizing, rho) >= -1e-9

    def test_lsi_constant_validates_numerically(self, rng):
        # alpha_2 Ent <= E on random PSD observables for the closed-form constant
        for d in (3, 4):
            ctx = stationary_state(depolarizing(maximally_mixed(d)))
            alpha2 = lsi_depolarizing(maximally_mixed(d))
            for _ in range(50):
                a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                x = a @ a.conj().T
                ent = entropy_functional("ent2", ctx, x)
                assert alpha2 * ent <= dirichlet_form(ctx, x) + 1e-8


class TestClosedFormConstants:
    def test_lsi_depolarizing_values(self):
        assert lsi_depolarizing(maximally_mixed(3)) == pytest.approx(1 / (3 * math.log(2)), abs=1e-12)
        assert lsi_depolarizing(maximally_mixed(4)) == pytest.approx(2 / (4 * math.log(3)), abs=1e-12)

    def test_lsi_limit_at_half(self):
        assert lsi_depolarizing(maximally_mixed(2)) == 0.5
        near = FaithfulState(np.diag([0.5 + 1e-7, 0.5 - 1e-7]).astype(complex))
        assert lsi_depolarizing(near) == pytest.approx(0.5, abs=1e-6)

    def test_ti_from_lsi(self):
        assert ti_from_lsi(1.0) == 0.125
        assert ti_from_lsi(0.5) == 0.5
        a3 = 1 / (3 * math.log(2))
        assert ti_from_lsi(a3) == pytest.approx(9 * math.log(2) ** 2 / 8, abs=1e-12)
        with pytest.raises(ValidationError):
            ti_from_lsi(0.0)

    def test_constants_container_checks_alpha_vs_gap(self, qubit_depolarizing):
        with pytest.raises(ValidationError):
            FunctionalConstants(spectral_gap=0.3, lsi_alpha2=0.5)
        constants = functional_constants(qubit_depolarizing)
        assert constants.lsi_alpha2 == 0.5
        assert constants.lsi_provenance == "closed_form"
        assert constants.ti_constant == pytest.approx(0.5, abs=1e-12)
        assert constants.ti_provenance == "computed"


class TestLipschitz:
    def test_identity_has_zero_norm(self, qubit_depolarizing):
        lip = LipschitzContext.from_context(qubit_depolarizing)
        assert lipschitz_norm(lip, np.eye(2)) == 0.0

    def test_homogeneity(self, rng, qubit_depolarizing):
        lip = LipschitzContext.from_context(qubit_depolarizing)
        x = random_hermitian(rng, 2)
        for c in (0.3, 2.0, 7.5):
            assert lipschitz_norm(lip, c * x) == pytest.approx(c * lipschitz_norm(lip, x), abs=1e-12)

    def test_qubit_sigma_z_with_unit_derivations(self, qubit_depolarizing):
        lip = unit_derivations(qubit_depolarizing)
        assert lipschitz_norm(lip, SZ) == pytest.approx(4.0, abs=1e-12)

    def test_diagonal_formula_against_pair_sum(self, rng):
        # ||X||_Lip^2 = 2 sum_{x,y} (O_x - O_y)^2 for diagonal observables of
        # the maximally mixed depolarizing model with matrix-unit derivations
        for d in (3, 4):
            ctx = stationary_state(depolarizing(maximally_mixed(d)))
            lip = unit_derivations(ctx)
            o = rng.normal(size=d)
            pair_sum = sum(2 * (o[x] - o[y]) ** 2 for x in range(d) for y in range(d))
            value = lipschitz_norm(lip, np.diag(o).astype(complex))
            assert value == pytest.approx(math.sqrt(pair_sum), abs=1e-12)

    def test_normalized_derivations_match_per_jump_loop(self):
        lind = Lindbladian(np.zeros((2, 2)), [np.diag([2.0, 0.0]), np.zeros((2, 2)), 3.0 * SZ])
        ctx = stationary_state(lind)
        lip = unit_derivations(ctx)
        loop = [l / np.linalg.norm(l) if np.linalg.norm(l) > 1e-15 else l for l in lind.jumps]
        assert np.array_equal(lip.derivations, np.array(loop))

    def test_zero_iff_commutes_with_all_jumps(self, qubit_depolarizing):
        lip = LipschitzContext.from_context(qubit_depolarizing)
        assert lipschitz_norm(lip, SZ) > 0.1


class TestTildeObservable:
    def test_maximally_mixed_reduces_to_raw_observable(self, qubit_depolarizing):
        u = np.zeros(4)
        u[1] = u[2] = 1 / math.sqrt(2)
        lind = qubit_depolarizing.lindbladian
        l_u = sum(u[m] * lind.jumps[m] for m in range(4))
        tilde = tilde_observable(qubit_depolarizing, u)
        assert np.allclose(tilde, l_u + l_u.conj().T, atol=1e-12)

    def test_scalar_case(self):
        from conftest import scalar_lindblad
        c = 0.7 - 0.2j
        ctx = stationary_state(scalar_lindblad(c))
        tilde = tilde_observable(ctx, [1.0])
        assert tilde[0, 0] == pytest.approx(2 * c.real, abs=1e-14)

    def test_hermitian_and_same_mean_on_thermal_qubit(self):
        sigma, jump = aligned_thermal_qubit()
        st = FaithfulState(sigma)
        lind = Lindbladian(np.zeros((2, 2)), [jump])
        probe_src = stationary_state(depolarizing(st))
        probe = type(probe_src)(lind.heisenberg_superoperator(),
                                probe_src.sigma, st, True, 1, lindbladian=lind)
        tilde = tilde_observable(probe, [1.0])
        assert np.max(np.abs(tilde - tilde.conj().T)) < 1e-12
        raw_mean = np.trace(sigma @ (jump + jump.conj().T)).real
        assert np.trace(sigma @ tilde).real == pytest.approx(raw_mean, abs=1e-12)


class TestConcentrationBounds:
    def test_ti_gaussian_formula_and_attestation(self):
        with pytest.raises(ValidationError):
            concentration_bound("ti_gaussian")
        b = concentration_bound("ti_gaussian", prefactor=2.0, hypothesis_attested=True)
        assert b.bound(4.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-14)

    def test_poincare_plugin(self):
        b = concentration_bound("poincare", gap=1.0, sup_norm=1.0)
        assert b.exponent(6.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_depolarizing_display(self):
        spread = 16.0   # ordered-pair sum for eigenvalues (1, -1, 0, 0)
        b = concentration_bound("depolarizing", dim=4, eigenvalue_spread=spread)
        num = 2 * (4 - 2) ** 2
        den = 4 * (4 - 2) ** 2 + spread * 16 * math.log(3) ** 2
        assert b.coefficient == pytest.approx(num / den, abs=1e-14)
        assert b.prefactor == 4.0

    def test_ti_lipschitz_and_gibbs(self):
        b = concentration_bound("ti_lipschitz", ti_constant=0.5, lipschitz_value=2.0)
        assert b.coefficient == pytest.approx(1.0 / (2 * (1 + 0.5 * 4)), abs=1e-14)
        g = concentration_bound("gibbs", ti_constant=0.5, lipschitz_value=2.0, beta_h_norm=1.0)
        assert g.prefactor == pytest.approx(math.exp(0.5), abs=1e-14)
        assert g.coefficient == b.coefficient

    def test_tensor_variant(self):
        b = concentration_bound("tensor", lsi_alpha2=0.5, n_factors=3, alpha_u=2.0)
        assert b.coefficient == pytest.approx(4 * 0.25 / (8 * 0.25 + 6), abs=1e-14)

    def test_missing_inputs_flagged(self):
        with pytest.raises(ValidationError):
            concentration_bound("poincare", gap=1.0)


class TestPoincareTI:
    def test_stationary_state_trivial(self, qubit_depolarizing):
        lhs, rhs, holds = verify_poincare_ti(qubit_depolarizing, qubit_depolarizing.sigma)
        assert holds and lhs <= 1e-10

    def test_pure_state_on_qubit(self, qubit_depolarizing):
        rho = np.diag([1.0, 0.0]).astype(complex)
        lhs, rhs, holds = verify_poincare_ti(qubit_depolarizing, rho)
        assert holds
        assert lhs == pytest.approx(1.0, abs=1e-10)     # ||rho - id/2||_1 = 1
        assert rhs == pytest.approx(2.0, abs=1e-8)      # (4/1) * I(rho) = 4 * 1/2

    def test_hundred_random_qutrit_states(self, rng, qutrit_depolarizing):
        for _ in range(100):
            rho = random_state(rng, 3)
            _, _, holds = verify_poincare_ti(qutrit_depolarizing, rho)
            assert holds


class TestW1LowerBound:
    def test_equal_states_give_zero(self, qubit_depolarizing):
        lip = LipschitzContext.from_context(qubit_depolarizing)
        rho = np.diag([0.6, 0.4]).astype(complex)
        assert w1_lower_bound(lip, rho, rho) == 0.0

    def test_dominates_explicit_feasible_point(self, qubit_depolarizing):
        lip = unit_derivations(qubit_depolarizing)
        rho1 = np.diag([1.0, 0.0]).astype(complex)
        rho2 = np.eye(2) / 2
        value = w1_lower_bound(lip, rho1, rho2)
        # X = sigma_z / ||sigma_z||_Lip = sigma_z / 4 pairs to 0.25
        assert value >= 0.25 - 1e-9

    def test_supremum_property(self, rng, qubit_depolarizing):
        lip = LipschitzContext.from_context(qubit_depolarizing)
        rho1 = random_state(rng, 2)
        rho2 = random_state(rng, 2)
        value = w1_lower_bound(lip, rho1, rho2)
        for _ in range(20):
            x = random_hermitian(rng, 2)
            norm = lipschitz_norm(lip, x)
            if norm > 1e-10:
                assert value >= abs(np.trace((rho1 - rho2) @ x).real) / norm - 1e-7

    def test_optimum_on_a_kink(self, qubit_depolarizing):
        # X = [[0, z], [z*, 0]] pairs to 2|rho_01| |z| and makes the top
        # singular value of every [L_j, X] double, a kink of ||X||_Lip at
        # which a strong Wolfe line search (L-BFGS-B) stops 6e-7 short of
        # the optimum |rho_01|.
        lip = LipschitzContext.from_context(qubit_depolarizing)
        rho = np.array([[0.315, -0.377 - 0.069j], [-0.377 + 0.069j, 0.685]])
        value = w1_lower_bound(lip, rho, np.eye(2) / 2)
        assert value == pytest.approx(abs(rho[0, 1]), rel=1e-10)

    def test_degenerate_direction_reported(self, qubit_depolarizing):
        st = qubit_depolarizing.faithful
        lip = LipschitzContext(st, [np.zeros((2, 2), dtype=complex)], [0.0])
        rho1 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(NumericalError):
            w1_lower_bound(lip, rho1, np.eye(2) / 2)

    def test_ti_chain_on_depolarizing(self, rng):
        # w1 lower bound never exceeds sqrt(2 C I) with C from the LSI constant
        for d in (2, 3):
            ctx = stationary_state(depolarizing(maximally_mixed(d)))
            lip = LipschitzContext.from_context(ctx)
            c = ti_from_lsi(lsi_depolarizing(maximally_mixed(d)))
            for _ in range(20):
                rho = random_state(rng, d)
                w1 = w1_lower_bound(lip, rho, ctx.sigma)
                assert w1 <= math.sqrt(2 * c * fisher_information(ctx, rho)) + 1e-8


class TestBfgsStop:
    @pytest.mark.parametrize("name", ["weighted_l1", "elliptic_norm"])
    def test_stops_once_steps_fall_below_rounding(self, name):
        # 1 + a kink at 0: BFGS reaches the kink to rounding, and from there
        # every step or bracket moves f by less than an ulp of 1. Without
        # the rounding test both runs take over 1200 evaluations.
        a = np.array([1.0, 4.0])
        calls = []

        def f(x):
            calls.append(x)
            if name == "weighted_l1":
                return 1.0 + a @ np.abs(x), a * np.sign(x)
            r = math.sqrt(x @ (a * x))
            return 1.0 + r, (a * x) / r if r > 0 else np.zeros_like(x)

        assert _bfgs_weak_wolfe(f, np.array([1.0, -0.7])) == pytest.approx(1.0, abs=1e-15)
        assert len(calls) <= 200


class TestTensorization:
    def test_qutrit_bracket(self, qutrit_depolarizing):
        lo, up = tensorization_lsi_bounds([qutrit_depolarizing])
        assert lo == pytest.approx(1 / (math.log(3 ** 5) + 11), abs=1e-10)
        assert up == pytest.approx(0.5, abs=1e-10)
        lo3, up3 = tensorization_lsi_bounds([qutrit_depolarizing] * 3)
        assert lo3 == pytest.approx(lo, abs=1e-12)

    def test_single_factor_sanity(self, qutrit_depolarizing):
        lo, up = tensorization_lsi_bounds([qutrit_depolarizing])
        assert lo <= spectral_gap(qutrit_depolarizing) / 2 + 1e-12

    def test_min_gap_rule(self, qubit_depolarizing):
        a, b = 0.3, 0.2     # chain gap 0.5 < depolarizing gap 1
        chain_ctx = stationary_state(classical_embedding(
            ClassicalChain(np.array([[-a, a], [b, -b]]))))
        lo, up = tensorization_lsi_bounds([qubit_depolarizing, chain_ctx])
        assert up == pytest.approx(0.25, abs=1e-10)

    def test_mixed_dimensions_rejected(self, qubit_depolarizing, qutrit_depolarizing):
        with pytest.raises(ValidationError):
            tensorization_lsi_bounds([qubit_depolarizing, qutrit_depolarizing])

    def test_tensor_alpha_u_scales_quadratically(self, qubit_depolarizing):
        u = np.zeros((2, 4))
        u[0, 1] = 1.0
        base = tensor_alpha_u([qubit_depolarizing] * 2, u)
        assert base > 0
        assert tensor_alpha_u([qubit_depolarizing] * 2, 2 * u) == pytest.approx(4 * base, rel=1e-12)
