import numpy as np
import pytest

from conftest import (
    SZ,
    aligned_thermal_qubit,
    apply_superoperator,
    dense_kms_conjugated,
    dual_superoperator,
    fisher_information,
    gram_superoperator,
    heisenberg_action,
    kms_canonical_hamiltonian,
    left_right_matrix,
    modular_frequencies_one_shot,
    random_faithful,
    random_hermitian,
    random_state,
    schrodinger_action,
    to_superoperator,
)
from qdev import lindblad
from qdev.linalg import (
    DimensionMismatchError,
    FaithfulState,
    NotFaithfulError,
    ValidationError,
    hermitian_part,
    inner_product,
    left_right_sum_matrix,
    unvec,
)
from qdev.lindblad import (
    Lindbladian,
    check_detailed_balance,
    dirichlet_form,
    stationary_state,
)
from qdev.models import ClassicalChain, appendix_b_fixtures, classical_embedding, depolarizing


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
        assert np.max(np.abs(heisenberg_action(lind, np.eye(3)))) < 1e-10

    def test_trace_preservation(self, rng):
        lind = random_lindblad(rng, 3, 2)
        rho = random_state(rng, 3)
        assert abs(np.trace(schrodinger_action(lind, rho))) < 1e-12

    def test_duality(self, rng):
        lind = random_lindblad(rng, 3, 2)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = random_state(rng, 3)
        lhs = np.trace(rho @ heisenberg_action(lind, x))
        rhs = np.trace(schrodinger_action(lind, rho) @ x)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_single_jump_population_transfer(self):
        # jump |0><1| (annihilates |1>, creates |0>): Heisenberg picture
        # sends the |0> projector to the |1> projector.
        jump = np.zeros((2, 2), dtype=complex)
        jump[0, 1] = 1.0
        lind = Lindbladian(np.zeros((2, 2)), [jump])
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert np.allclose(heisenberg_action(lind, p0), p1, atol=1e-14)
        assert np.allclose(heisenberg_action(lind, p1), -p1, atol=1e-14)

    @pytest.mark.parametrize("jumps", [[np.eye(2), np.eye(3)], [np.eye(3)], [np.ones((2, 3))]],
                             ids=["ragged", "wrong-dim", "not-square"])
    def test_mismatched_jumps_rejected(self, jumps):
        with pytest.raises(DimensionMismatchError):
            Lindbladian(np.zeros((2, 2)), jumps)

    def test_jumps_held_as_one_stack(self):
        lind = Lindbladian(np.zeros((2, 2)), [lower_jump(), lower_jump().T])
        assert lind.jumps.shape == (2, 2, 2) and lind.jumps.dtype == complex
        assert np.array_equal(lind.jumps[1], lower_jump().T)
        assert Lindbladian(np.eye(3), []).jumps.shape == (0, 3, 3)
        stack = np.array([lower_jump(), lower_jump().T])
        assert Lindbladian(np.zeros((2, 2)), stack).jumps is stack

    def test_superoperator_matches_action(self, rng):
        lind = random_lindblad(rng, 3, 2)
        s = lind.heisenberg_superoperator()
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(apply_superoperator(s, x), heisenberg_action(lind, x), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", ["none", "one", "d^2"])
    def test_assembly_matches_matrix_units(self, d, k, rng):
        n_jumps = {"none": 0, "one": 1, "d^2": d * d}[k]
        h = random_hermitian(rng, d)
        jumps = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d
                 for _ in range(n_jumps)]
        lind = Lindbladian(h, jumps)
        reference = to_superoperator(lambda x: heisenberg_action(lind, x), d)
        assert np.max(np.abs(lind.heisenberg_superoperator() - reference)) <= 1e-13


def kron_heisenberg_matrix(lind):
    """The generator's Heisenberg matrix as four Kronecker products plus the
    jump sum: the in-place assembly must reproduce it bit for bit."""
    d = lind.dim
    eye = np.eye(d)
    h, kappa = lind.hamiltonian, sum((l.conj().T @ l for l in lind.jumps), np.zeros((d, d), complex))
    m = 1j * (left_right_matrix(h, eye) - left_right_matrix(eye, h))
    m -= 0.5 * (left_right_matrix(kappa, eye) + left_right_matrix(eye, kappa))
    if len(lind.jumps):
        m += left_right_sum_matrix([l.conj().T for l in lind.jumps], lind.jumps)
    return m


class TestInPlaceAssembly:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_equals_kron_formula(self, d, k, rng):
        lind = random_lindblad(rng, d, k)
        assert np.array_equal(lind.heisenberg_superoperator(), kron_heisenberg_matrix(lind))

    def test_equals_kron_formula_for_noncommuting_jumps(self):
        jumps = [lower_jump(3), lower_jump(3).T, np.diag([1.0, -1.0, 0.5]).astype(complex)]
        assert np.linalg.norm(jumps[0] @ jumps[1] - jumps[1] @ jumps[0]) > 0.5
        h = np.array([[0.3, 0.5 - 0.2j, 0.0], [0.5 + 0.2j, -1.2, 0.1j], [0.0, -0.1j, 2.0]])
        lind = Lindbladian(h, jumps)
        assert np.array_equal(lind.heisenberg_superoperator(), kron_heisenberg_matrix(lind))

    def test_no_jumps_is_the_commutator(self, rng):
        h = random_hermitian(rng, 4)
        lind = Lindbladian(h, [])
        m = lind.heisenberg_superoperator()
        assert np.array_equal(m, kron_heisenberg_matrix(lind))
        assert np.array_equal(m.diagonal(), (1j * (np.diag(h)[None, :] - np.diag(h)[:, None])).ravel())


class TestStationaryState:
    def test_depolarizing_recovers_target(self, rng):
        st = random_faithful(rng, 3)
        ctx = stationary_state(depolarizing(st))
        assert np.max(np.abs(ctx.sigma - st.matrix)) < 1e-9
        assert ctx.primitive

    def test_amplitude_damping_not_faithful(self):
        jump = np.zeros((2, 2), dtype=complex)
        jump[0, 1] = 1.0
        ctx = stationary_state(Lindbladian(np.zeros((2, 2)), [jump]))
        assert np.allclose(ctx.sigma, np.diag([1.0, 0.0]), atol=1e-9)
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
        assert np.max(np.abs(ctx.sigma - np.diag(chain.stationary))) < 1e-9

    def test_dephasing_degenerate_kernel(self):
        # every diagonal state is stationary: the ergodic projection of the
        # maximally mixed state is itself, and the kernel is not simple
        ctx = stationary_state(Lindbladian(np.zeros((3, 3)), [np.diag([0.0, 1.0, 3.0])]))
        assert ctx.kernel_dim == 3
        assert np.max(np.abs(ctx.sigma - np.eye(3) / 3)) < 1e-12
        assert ctx.faithful is not None
        assert not ctx.primitive


def svd_stationary(lind):
    """Kernel of the Schrodinger matrix by a full SVD: the last right
    singular vector normalized to trace one, and the number of singular
    values at or below KERNEL_REL_TOL * scale."""
    m = lind.heisenberg_superoperator().conj().T
    scale = max(1.0, float(np.max(np.abs(m))))
    _, s, vh = np.linalg.svd(m)
    sigma = hermitian_part(unvec(vh[-1].conj(), lind.dim))
    return sigma / np.trace(sigma).real, int(np.count_nonzero(s <= lindblad.KERNEL_REL_TOL * scale))


def weakly_coupled_blocks(eps):
    """Two depolarizing qubit blocks on {0, 1} and {2, 3} of a ququart,
    joined by jumps of rate eps between states 1 and 2."""
    jumps = []
    for block in ((0, 1), (2, 3)):
        for x in block:
            for y in block:
                l = np.zeros((4, 4), dtype=complex)
                l[x, y] = 1.0 / (1 + x + y)
                jumps.append(l)
    for x, y in ((1, 2), (2, 1)):
        l = np.zeros((4, 4), dtype=complex)
        l[x, y] = np.sqrt(eps)
        jumps.append(l)
    return Lindbladian(np.diag([0.0, 0.3, -0.2, 0.5]), jumps)


class TestStationarySolve:
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_bordered_lu_matches_svd(self, d):
        rng = np.random.default_rng(100 + d)
        lind = random_lindblad(rng, d, 2)
        reference, mult = svd_stationary(lind)
        ctx = stationary_state(lind)
        assert mult == 1 and ctx.kernel_dim == 1
        assert np.max(np.abs(ctx.sigma - reference)) < 1e-12

    @pytest.fixture()
    def svd_calls(self, monkeypatch):
        calls = []
        plain = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or plain(*a, **k))
        return calls

    def test_primitive_model_needs_no_svd(self, svd_calls):
        st = random_faithful(np.random.default_rng(7), 4)
        ctx = stationary_state(depolarizing(st))
        assert ctx.primitive and svd_calls == []

    def test_degenerate_kernel_falls_back_to_svd(self, svd_calls):
        ctx = stationary_state(Lindbladian(np.zeros((3, 3)), [np.diag([0.0, 1.0, 3.0])]))
        assert ctx.kernel_dim == 3 and len(svd_calls) == 1

    @pytest.mark.parametrize("eps", [1e-6, 1e-12])
    def test_weak_coupling_matches_svd_classification(self, eps, svd_calls):
        lind = weakly_coupled_blocks(eps)
        _, mult = svd_stationary(lind)
        svd_calls.clear()
        ctx = stationary_state(lind)
        assert ctx.kernel_dim == mult
        assert ctx.primitive == (mult == 1)
        # The bordered LU certifies the rate-1e-6 coupling; at 1e-12 the
        # SVD classifies the kernel as two-dimensional.
        assert (mult, len(svd_calls)) == ((1, 0) if eps == 1e-6 else (2, 1))

    @pytest.mark.parametrize("s", [1e3, 1e6, 1e8])
    def test_sigma_invariant_under_generator_scaling(self, s):
        """sigma of s L is sigma of L: the unitality and stationarity checks
        are relative to the generator scale."""
        lind = random_lindblad(np.random.default_rng(41), 3, 3)
        reference = stationary_state(lind).sigma
        scaled_lind = Lindbladian(s * lind.hamiltonian, np.sqrt(s) * lind.jumps)
        scaled = stationary_state(scaled_lind)
        raw = lindblad._context(s * lind.heisenberg_superoperator(), scaled_lind)
        for ctx in (scaled, raw):
            assert np.max(np.abs(ctx.sigma - reference)) <= 1e-9


class TestBorderedKernel:
    """_bordered_kernel borders the Heisenberg matrix it is given in place
    and must hand it back bit for bit."""

    @staticmethod
    def generator(d):
        """A Heisenberg matrix, its scale, and whether undoing the border by
        subtraction would leave a trace (so the tests can tell)."""
        h = random_lindblad(np.random.default_rng(40 + d), d, 2).heisenberg_superoperator()
        scale = max(1.0, float(np.max(np.abs(h))))
        border = np.ix_(*(np.flatnonzero(np.eye(d).reshape(-1, order="F")),) * 2)
        assert not np.array_equal((h[border] + scale / d) - scale / d, h[border])
        return h, scale, border

    @pytest.mark.parametrize("d", [2, 3])
    def test_generator_unchanged_after_success(self, d):
        h, scale, _ = self.generator(d)
        before = h.copy()
        assert lindblad._bordered_kernel(h, d, scale) is not None
        assert np.array_equal(h, before)

    def test_generator_unchanged_after_failed_inversion(self, monkeypatch):
        d = 3
        h, scale, border = self.generator(d)
        before = h.copy()
        seen = []

        def singular(a):
            seen.append(a.copy())
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "inv", singular)
        assert lindblad._bordered_kernel(h, d, scale) is None
        # What is inverted is the transpose of H, bordered in its own storage.
        assert np.array_equal(seen[0].T[border], before[border] + scale / d)
        assert np.array_equal(h, before)


class TestEigenbasisCalculus:
    @pytest.fixture(params=[2, 3, 5])
    def ctx(self, request):
        d = request.param
        rng = np.random.default_rng(200 + d)
        return stationary_state(depolarizing(random_faithful(rng, d)))

    @pytest.mark.parametrize("kind", ["GNS", "KMS", "BKM"])
    def test_dual_matches_dense_solve(self, ctx, kind):
        rng = np.random.default_rng(300 + ctx.dim)
        n = ctx.dim ** 2
        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = gram_superoperator(kind, ctx.faithful)
        reference = np.linalg.solve(g, s.conj().T @ g)
        dual = dual_superoperator(kind, ctx, s)
        assert np.max(np.abs(dual - reference)) < 1e-10 * max(1.0, np.max(np.abs(reference)))

    def test_kms_hermitian_part_spectrum_matches_dense(self, ctx):
        rng = np.random.default_rng(400 + ctx.dim)
        lind = random_lindblad(rng, ctx.dim, 2)
        m = lind.heisenberg_superoperator()
        reference = np.linalg.eigvalsh(hermitian_part(dense_kms_conjugated(ctx.faithful, m)))
        ours = np.linalg.eigvalsh(ctx.kms_hermitian_part(ctx.to_eigenbasis(m)))
        assert np.max(np.abs(ours - reference)) < 1e-12 * max(1.0, np.max(np.abs(reference)))
        generator = np.linalg.eigvalsh(
            hermitian_part(dense_kms_conjugated(ctx.faithful, ctx.heisenberg)))
        ours = np.linalg.eigvalsh(ctx.kms_hermitian_part(ctx.eigenbasis_generator.copy()))
        assert np.max(np.abs(ours - generator)) < 1e-12

    def test_cached_generator_is_read_only_until_taken(self, ctx):
        cached = ctx.eigenbasis_generator
        reference = ctx.to_eigenbasis(ctx.heisenberg)
        with pytest.raises(ValueError):
            cached *= 2.0
        with pytest.raises(ValueError):
            ctx.kms_hermitian_part(cached)
        assert np.array_equal(ctx.eigenbasis_generator, reference)
        taken = ctx.take_eigenbasis_generator()
        assert taken is cached and taken.flags.writeable
        # The context no longer holds it: a second take rotates anew.
        again = ctx.take_eigenbasis_generator()
        assert again is not taken and np.array_equal(again, reference)

    @pytest.mark.parametrize("kind", ["GNS", "KMS", "BKM"])
    def test_deviation_is_original_basis_max_norm(self, kind):
        rng = np.random.default_rng(500)
        lind = random_lindblad(rng, 3, 2)
        ctx = stationary_state(lind)
        g = gram_superoperator(kind, ctx.faithful)
        m = ctx.heisenberg
        reference = np.max(np.abs(m - np.linalg.solve(g, m.conj().T @ g)))
        assert check_detailed_balance(kind, ctx).deviation == pytest.approx(reference, rel=1e-10)


class TestDuals:
    def test_dual_of_identity(self, qubit_depolarizing):
        eye = np.eye(4, dtype=complex)
        for kind in ("GNS", "KMS", "BKM"):
            dual = dual_superoperator(kind, qubit_depolarizing, eye)
            assert np.allclose(dual, np.eye(4), atol=1e-12)

    def test_kms_dual_commuting_conjugation(self, rng):
        st = FaithfulState(np.diag([0.7, 0.3]).astype(complex))
        ctx = stationary_state(depolarizing(st))
        a = np.diag([1.4, -0.3]).astype(complex)   # Hermitian, commutes with sigma
        s = left_right_matrix(a, a.conj().T)
        dual = dual_superoperator("KMS", ctx, s)
        assert np.max(np.abs(dual - s)) < 1e-11

    @pytest.mark.parametrize("kind", ["GNS", "KMS", "BKM"])
    def test_dual_pairing(self, kind, rng, qutrit_depolarizing):
        ctx = qutrit_depolarizing
        st = ctx.faithful
        s = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        dual = dual_superoperator(kind, ctx, s)
        for _ in range(10):
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            lhs = inner_product(kind, st, x, apply_superoperator(s, y))
            rhs = inner_product(kind, st, apply_superoperator(dual, x), y)
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
        omegas = ctx.bohr
        expected = [np.log(sy / sx) for sx in (s0, s1) for sy in (s0, s1)]
        assert np.allclose(omegas, expected, atol=1e-10)

    def test_maximally_mixed_zero(self, qutrit_depolarizing):
        assert np.allclose(qutrit_depolarizing.bohr, 0.0, atol=1e-12)

    def test_non_eigenvector_returns_none(self, rng):
        sigma, aligned = aligned_thermal_qubit()
        # the aligned jump mixes two modular eigenspaces, so it is not a
        # modular eigenvector itself
        lind = Lindbladian(np.zeros((2, 2)), [aligned])
        heis = lind.heisenberg_superoperator()
        ctx = stationary_state(depolarizing(FaithfulState(sigma)))
        ctx2 = type(ctx)(heis, ctx.sigma, ctx.faithful, True, 1, lindbladian=lind)
        assert ctx2.bohr is None


class TestModularFrequenciesChunked:
    """The stack is worked through d jumps at a time; the result is that of
    one pass over the whole stack."""

    def test_depolarizing_matches_one_shot(self):
        st = random_faithful(np.random.default_rng(12), 5)
        jumps = depolarizing(st).jumps.copy()
        jumps[7] = 0.0  # a dead jump, frequency 0
        ours = lindblad._modular_frequencies(st, jumps)
        reference = modular_frequencies_one_shot(st, jumps)
        assert ours is not None and len(ours) == 25
        assert ours == pytest.approx(reference, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("bad", [1, 23])
    def test_non_eigenvector_in_any_chunk_gives_none(self, bad):
        st = random_faithful(np.random.default_rng(13), 5)
        jumps = depolarizing(st).jumps.copy()
        jumps[bad] = jumps[bad] + jumps[bad].conj().T
        assert modular_frequencies_one_shot(st, jumps) is None
        assert lindblad._modular_frequencies(st, jumps) is None

    def test_no_jumps(self):
        st = random_faithful(np.random.default_rng(14), 3)
        jumps = np.zeros((0, 3, 3), dtype=complex)
        assert lindblad._modular_frequencies(st, jumps) == modular_frequencies_one_shot(st, jumps) == []


class TestCanonicalHamiltonian:
    def test_commuting_jumps_give_zero(self):
        st = FaithfulState(np.diag([0.7, 0.3]).astype(complex))
        lind = Lindbladian(np.zeros((2, 2)), [np.diag([0.5, -0.2]).astype(complex)])
        ctx = stationary_state(depolarizing(st))
        ctx2 = type(ctx)(lind.heisenberg_superoperator(),
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
                                ctx_probe.sigma, st, True, 1, lindbladian=bare)
        h = kms_canonical_hamiltonian(probe)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.max(np.abs(h)) > 1e-3
        # assembling the generator with the canonical Hamiltonian must give a
        # KMS-symmetric generator fixing sigma
        assembled = Lindbladian(h, [jump])
        ctx = stationary_state(assembled)
        assert np.max(np.abs(ctx.sigma - sigma)) < 1e-9
        assert check_detailed_balance("KMS", ctx).symmetric

    def test_alignment_violation_rejected(self, rng):
        st = FaithfulState(np.diag([0.7, 0.3]).astype(complex))
        bad = Lindbladian(np.zeros((2, 2)), [np.array([[0, 1], [0, 0]], dtype=complex)])
        ctx_probe = stationary_state(depolarizing(st))
        probe = type(ctx_probe)(bad.heisenberg_superoperator(),
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
        assert fisher_information(ctx, ctx.sigma) == pytest.approx(0.0, abs=1e-10)

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


def heisenberg_difference(l1, l2):
    """Max-norm of the difference of two generators' Heisenberg matrices."""
    m1 = l1.heisenberg_superoperator()
    return float(np.max(np.abs(m1 - l2.heisenberg_superoperator())))


class TestGaugeEquivalence:
    """Gauge-equivalent jump families assemble the same generator, to 1e-9
    in max-norm."""

    def test_unitary_rotation(self, rng):
        lind = random_lindblad(rng, 2, 2)
        theta = 0.7
        u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        rotated = [u[0, 0] * lind.jumps[0] + u[0, 1] * lind.jumps[1],
                   u[1, 0] * lind.jumps[0] + u[1, 1] * lind.jumps[1]]
        other = Lindbladian(lind.hamiltonian, rotated)
        assert heisenberg_difference(lind, other) <= 1e-9

    def test_constant_shift_with_hamiltonian_correction(self, rng):
        lind = random_lindblad(rng, 2, 2)
        c = np.array([0.3 - 0.2j, 0.0])
        shifted = [lind.jumps[0] + c[0] * np.eye(2), lind.jumps[1] + c[1] * np.eye(2)]
        a = sum(cj * l.conj().T for cj, l in zip(c, lind.jumps))
        h_corr = lind.hamiltonian - (a - a.conj().T) / 2j
        other = Lindbladian(h_corr, shifted)
        assert heisenberg_difference(lind, other) <= 1e-9

    def test_extra_jump_differs(self, rng):
        lind = random_lindblad(rng, 2, 2)
        extra = Lindbladian(lind.hamiltonian,
                            [lind.jumps[0], lind.jumps[1] + 0.5 * SZ])
        assert heisenberg_difference(lind, extra) > 1e-9


class TestLindbladianFromChannel:
    """The GKSL decoding of a channel-difference generator Psi - id."""

    @pytest.mark.parametrize("which, k", [("phi", 2), ("psi", 3), ("psi_tilde", 3), ("p_channel", 2)])
    def test_appendix_b_channels(self, which, k):
        channel = getattr(appendix_b_fixtures(), which)
        before = channel.copy()
        lind = lindblad.lindbladian_from_channel(channel)
        assert np.array_equal(channel, before)
        assert lind.k == k
        assert np.max(np.abs(lind.heisenberg_superoperator() - (channel - np.eye(4)))) <= 1e-14
        assert np.max(np.abs(np.trace(lind.jumps, axis1=1, axis2=2))) <= 1e-14

    @pytest.mark.parametrize("d, k", [(1, 1), (2, 3), (3, 2), (5, 3)])
    def test_random_generators_round_trip(self, rng, d, k):
        heis = random_lindblad(rng, d, k).heisenberg_superoperator()
        decoded = lindblad.lindbladian_from_channel(heis + np.eye(d * d))
        scale = max(1.0, float(np.max(np.abs(heis))))
        assert np.max(np.abs(decoded.heisenberg_superoperator() - heis)) <= 1e-13 * scale
        assert decoded.k <= min(k, d * d - 1)

    def test_not_conditionally_cp_refused(self):
        # Psi(X) = 0.1 Tr(X) id + 0.8 X^T: unital and Hermiticity-preserving;
        # its compressed Choi matrix has the eigenvalue -0.7.
        w = np.eye(2).reshape(-1)
        with pytest.raises(ValidationError, match=r"m\.json: .*not conditionally completely positive.*-7\.000e-01"):
            lindblad.lindbladian_from_channel(0.1 * np.outer(w, w) + 0.8 * np.eye(4)[[0, 2, 1, 3]], "m.json")

    @pytest.mark.parametrize("channel", [0.5 * np.eye(4), np.eye(4) + np.diag([0, 0.01j, 0.01j, 0])],
                             ids=["not-unital", "not-hermiticity-preserving"])
    def test_not_a_generator_refused(self, channel):
        with pytest.raises(ValidationError, match="is not a quantum Markov generator"):
            lindblad.lindbladian_from_channel(channel)
