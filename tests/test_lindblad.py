import numpy as np
import pytest

from conftest import (
    SZ,
    aligned_thermal_qubit,
    random_faithful,
    random_hermitian,
    random_state,
)
from qdev.linalg import (
    FaithfulState,
    NotFaithfulError,
    SuperOperator,
    inner_product,
    left_right_matrix,
    to_superoperator,
)
from qdev.lindblad import (
    Lindbladian,
    apply_adjoint_generator,
    apply_generator,
    bohr_frequencies,
    check_detailed_balance,
    dirichlet_form,
    dual_superoperator,
    fisher_information,
    gauge_equivalence_check,
    kms_canonical_hamiltonian,
    stationary_state,
)
from qdev.models import ClassicalChain, classical_embedding, depolarizing, maximally_mixed


def random_lindblad(rng, d, k):
    h = random_hermitian(rng, d)
    jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(k)]
    return Lindbladian(h, jumps)


def lower_jump(d=2):
    l = np.zeros((d, d), dtype=complex)
    l[1, 0] = 1.0   # |1><0| in ket index convention: maps |0> to |1>
    return l


class TestGeneratorAction:
    def test_unitality(self, rng):
        lind = random_lindblad(rng, 3, 2)
        assert np.max(np.abs(apply_generator(lind, np.eye(3)))) < 1e-10

    def test_trace_preservation(self, rng):
        lind = random_lindblad(rng, 3, 2)
        rho = random_state(rng, 3)
        assert abs(np.trace(apply_adjoint_generator(lind, rho))) < 1e-12

    def test_duality(self, rng):
        lind = random_lindblad(rng, 3, 2)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = random_state(rng, 3)
        lhs = np.trace(rho @ apply_generator(lind, x))
        rhs = np.trace(apply_adjoint_generator(lind, rho) @ x)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_single_jump_population_transfer(self):
        # jump |0><1| (annihilates |1>, creates |0>): Heisenberg picture
        # sends the |0> projector to the |1> projector.
        jump = np.zeros((2, 2), dtype=complex)
        jump[0, 1] = 1.0
        lind = Lindbladian(np.zeros((2, 2)), [jump])
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert np.allclose(apply_generator(lind, p0), p1, atol=1e-14)
        assert np.allclose(apply_generator(lind, p1), -p1, atol=1e-14)

    def test_superoperator_matches_action(self, rng):
        lind = random_lindblad(rng, 3, 2)
        s = lind.heisenberg_superoperator()
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(s.apply(x), apply_generator(lind, x), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", ["none", "one", "d^2"])
    def test_assembly_matches_matrix_units(self, d, k, rng):
        n_jumps = {"none": 0, "one": 1, "d^2": d * d}[k]
        h = random_hermitian(rng, d)
        jumps = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d
                 for _ in range(n_jumps)]
        lind = Lindbladian(h, jumps)
        reference = to_superoperator(lind.heisenberg_action, d).matrix
        assert np.max(np.abs(lind.heisenberg_superoperator().matrix - reference)) <= 1e-13


class TestStationaryState:
    def test_depolarizing_recovers_target(self, rng):
        st = random_faithful(rng, 3)
        ctx = stationary_state(depolarizing(st))
        assert np.max(np.abs(ctx.sigma.matrix - st.matrix)) < 1e-9
        assert ctx.primitive

    def test_amplitude_damping_not_faithful(self):
        jump = np.zeros((2, 2), dtype=complex)
        jump[0, 1] = 1.0
        ctx = stationary_state(Lindbladian(np.zeros((2, 2)), [jump]))
        assert np.allclose(ctx.sigma.matrix, np.diag([1.0, 0.0]), atol=1e-9)
        assert not ctx.primitive
        assert ctx.faithful is None
        with pytest.raises(NotFaithfulError):
            dirichlet_form(ctx, np.eye(2))

    def test_classical_embedding_stationary(self, rng):
        pi = np.array([0.5, 0.3, 0.2])
        sym = np.array([[0, 0.7, 0.4], [0.7, 0, 0.9], [0.4, 0.9, 0]])
        q = sym * pi[None, :]
        np.fill_diagonal(q, -q.sum(axis=1))
        chain = ClassicalChain(q)
        ctx = stationary_state(classical_embedding(chain))
        assert np.max(np.abs(ctx.sigma.matrix - np.diag(chain.stationary))) < 1e-9

    def test_dephasing_degenerate_kernel(self):
        # every diagonal state is stationary: the ergodic projection of the
        # maximally mixed state is itself, and the kernel is not simple
        ctx = stationary_state(Lindbladian(np.zeros((3, 3)), [np.diag([0.0, 1.0, 3.0])]))
        assert ctx.kernel_dim == 3
        assert np.max(np.abs(ctx.sigma.matrix - np.eye(3) / 3)) < 1e-12
        assert ctx.faithful is not None
        assert not ctx.primitive


class TestDuals:
    def test_dual_of_identity(self, qubit_depolarizing):
        eye = SuperOperator(np.eye(4, dtype=complex))
        for kind in ("GNS", "KMS", "BKM"):
            dual = dual_superoperator(kind, qubit_depolarizing, eye)
            assert np.allclose(dual.matrix, np.eye(4), atol=1e-12)

    def test_kms_dual_commuting_conjugation(self, rng):
        st = FaithfulState(np.diag([0.7, 0.3]).astype(complex))
        ctx = stationary_state(depolarizing(st))
        a = np.diag([1.4, -0.3]).astype(complex)   # Hermitian, commutes with sigma
        s = SuperOperator(left_right_matrix(a, a.conj().T))
        dual = dual_superoperator("KMS", ctx, s)
        assert np.max(np.abs(dual.matrix - s.matrix)) < 1e-11

    @pytest.mark.parametrize("kind", ["GNS", "KMS", "BKM"])
    def test_dual_pairing(self, kind, rng, qutrit_depolarizing):
        ctx = qutrit_depolarizing
        st = ctx.faithful
        s = SuperOperator(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
        dual = dual_superoperator(kind, ctx, s)
        for _ in range(10):
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            lhs = inner_product(kind, st, x, s.apply(y))
            rhs = inner_product(kind, st, dual.apply(x), y)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestDetailedBalance:
    def test_maximally_mixed_depolarizing_all_symmetric(self, qubit_depolarizing):
        for kind in ("GNS", "KMS", "BKM"):
            assert check_detailed_balance(kind, qubit_depolarizing).symmetric

    def test_gns_implies_kms_and_bkm(self, rng):
        for _ in range(5):
            st = random_faithful(rng, 3)
            ctx = stationary_state(depolarizing(st))
            gns = check_detailed_balance("GNS", ctx)
            assert gns.symmetric
            assert check_detailed_balance("KMS", ctx).symmetric
            assert check_detailed_balance("BKM", ctx).symmetric


class TestBohrFrequencies:
    def test_two_level_jump(self):
        s0, s1 = 0.8, 0.2
        jump = np.zeros((2, 2), dtype=complex)
        jump[0, 1] = 1.0
        sigma = FaithfulState(np.diag([s0, s1]).astype(complex))
        lind = depolarizing(sigma)
        ctx = stationary_state(lind)
        # jumps sqrt(s_x)|x><y| have Delta eigenvalue s_x/s_y: omega = ln(s_y/s_x)
        omegas = bohr_frequencies(ctx)
        expected = [np.log(sy / sx) for sx in (s0, s1) for sy in (s0, s1)]
        assert np.allclose(omegas, expected, atol=1e-10)

    def test_maximally_mixed_zero(self, qutrit_depolarizing):
        assert np.allclose(bohr_frequencies(qutrit_depolarizing), 0.0, atol=1e-12)

    def test_non_eigenvector_returns_none(self, rng):
        sigma, aligned = aligned_thermal_qubit()
        # the aligned jump mixes two modular eigenspaces, so it is not a
        # modular eigenvector itself
        lind = Lindbladian(np.zeros((2, 2)), [aligned])
        heis = lind.heisenberg_superoperator()
        ctx = stationary_state(depolarizing(FaithfulState(sigma)))
        ctx2 = type(ctx)(heis, heis.adjoint(), ctx.sigma, ctx.faithful, True, 1, lindbladian=lind)
        assert ctx2.bohr is None


class TestCanonicalHamiltonian:
    def test_commuting_jumps_give_zero(self):
        st = FaithfulState(np.diag([0.7, 0.3]).astype(complex))
        lind = Lindbladian(np.zeros((2, 2)), [np.diag([0.5, -0.2]).astype(complex)])
        ctx = stationary_state(depolarizing(st))
        ctx2 = type(ctx)(lind.heisenberg_superoperator(), lind.heisenberg_superoperator().adjoint(),
                         ctx.sigma, ctx.faithful, True, 1, lindbladian=lind)
        assert np.max(np.abs(kms_canonical_hamiltonian(ctx2))) < 1e-12

    def test_maximally_mixed_gives_zero(self, qubit_depolarizing):
        # at sigma = id/2 the alignment condition reads L_j = L_j*, so use the
        # Hermitian (Pauli) gauge of the depolarizing jumps
        paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
                  np.array([[0, -1j], [1j, 0]], dtype=complex),
                  np.diag([1.0, -1.0]).astype(complex)]
        lind = Lindbladian(np.zeros((2, 2)), [p / np.sqrt(2) for p in paulis])
        ctx = stationary_state(lind)
        assert ctx.primitive
        assert np.max(np.abs(kms_canonical_hamiltonian(ctx))) < 1e-12

    def test_thermal_aligned_pair_assembles_kms_symmetric(self):
        sigma, jump = aligned_thermal_qubit()
        st = FaithfulState(sigma)
        bare = Lindbladian(np.zeros((2, 2)), [jump])
        ctx_probe = stationary_state(depolarizing(st))
        probe = type(ctx_probe)(bare.heisenberg_superoperator(),
                                bare.heisenberg_superoperator().adjoint(),
                                ctx_probe.sigma, st, True, 1, lindbladian=bare)
        h = kms_canonical_hamiltonian(probe)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.max(np.abs(h)) > 1e-3
        # assembling the generator with the canonical Hamiltonian must give a
        # KMS-symmetric generator fixing sigma
        assembled = Lindbladian(h, [jump])
        ctx = stationary_state(assembled)
        assert np.max(np.abs(ctx.sigma.matrix - sigma)) < 1e-9
        assert check_detailed_balance("KMS", ctx).symmetric

    def test_alignment_violation_rejected(self, rng):
        st = FaithfulState(np.diag([0.7, 0.3]).astype(complex))
        bad = Lindbladian(np.zeros((2, 2)), [np.array([[0, 1], [0, 0]], dtype=complex)])
        ctx_probe = stationary_state(depolarizing(st))
        probe = type(ctx_probe)(bad.heisenberg_superoperator(),
                                bad.heisenberg_superoperator().adjoint(),
                                ctx_probe.sigma, st, True, 1, lindbladian=bad)
        with pytest.raises(Exception):
            kms_canonical_hamiltonian(probe)


class TestDirichletAndFisher:
    def test_identity_gives_zero(self, qubit_depolarizing):
        assert dirichlet_form(qubit_depolarizing, np.eye(2)) == pytest.approx(0.0, abs=1e-12)

    def test_depolarizing_is_variance(self, rng, qutrit_depolarizing):
        ctx = qutrit_depolarizing
        st = ctx.faithful
        for _ in range(100):
            x = random_hermitian(rng, 3)
            var = inner_product("KMS", st, x, x).real - np.trace(st.matrix @ x).real ** 2
            assert dirichlet_form(ctx, x) == pytest.approx(var, abs=1e-10)

    def test_fisher_information_vanishes_at_sigma(self, qutrit_depolarizing):
        ctx = qutrit_depolarizing
        assert fisher_information(ctx, ctx.sigma.matrix) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative_for_kms_symmetric(self, rng, qubit_depolarizing):
        for _ in range(100):
            x = random_hermitian(rng, 2)
            assert dirichlet_form(qubit_depolarizing, x) >= -1e-10

    def test_classical_reduction(self, rng):
        pi = np.array([0.5, 0.3, 0.2])
        sym = np.array([[0, 0.7, 0.4], [0.7, 0, 0.9], [0.4, 0.9, 0]])
        q = sym * pi[None, :]
        np.fill_diagonal(q, -q.sum(axis=1))
        chain = ClassicalChain(q)
        ctx = stationary_state(classical_embedding(chain))
        for _ in range(10):
            g = rng.normal(size=3)
            e = dirichlet_form(ctx, np.diag(g).astype(complex))
            classical = -float(np.einsum("i,i,ij,j->", pi, g, q, g))
            assert e == pytest.approx(classical, abs=1e-12)


class TestGaugeEquivalence:
    def test_unitary_rotation(self, rng):
        lind = random_lindblad(rng, 2, 2)
        theta = 0.7
        u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        rotated = [u[0, 0] * lind.jumps[0] + u[0, 1] * lind.jumps[1],
                   u[1, 0] * lind.jumps[0] + u[1, 1] * lind.jumps[1]]
        other = Lindbladian(lind.hamiltonian, rotated)
        assert gauge_equivalence_check(lind, other)

    def test_constant_shift_with_hamiltonian_correction(self, rng):
        lind = random_lindblad(rng, 2, 2)
        c = np.array([0.3 - 0.2j, 0.0])
        shifted = [lind.jumps[0] + c[0] * np.eye(2), lind.jumps[1] + c[1] * np.eye(2)]
        a = sum(cj * l.conj().T for cj, l in zip(c, lind.jumps))
        h_corr = lind.hamiltonian - (a - a.conj().T) / 2j
        other = Lindbladian(h_corr, shifted)
        assert gauge_equivalence_check(lind, other)

    def test_extra_jump_differs(self, rng):
        lind = random_lindblad(rng, 2, 2)
        extra = Lindbladian(lind.hamiltonian,
                            [lind.jumps[0], lind.jumps[1] + 0.5 * SZ])
        assert not gauge_equivalence_check(lind, extra)
