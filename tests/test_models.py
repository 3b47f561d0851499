import numpy as np
import pytest

from conftest import (
    apply_superoperator,
    dual_superoperator,
    heisenberg_action,
    kron_counterexample_channels,
    left_right_matrix,
    random_faithful,
    random_hermitian,
    random_state,
    schrodinger_action,
    site_channels,
)
from qdev.linalg import FaithfulState, ValidationError, inner_product, vec
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
    counterexample_channels,
    depolarizing,
    heat_bath,
    _on_sites,
    _partial_trace,
    maximally_mixed,
    tensor_product,
)


def choi_matrix(superop_matrix, d):
    c = np.zeros((d * d, d * d), dtype=complex)
    unit = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit[i, j] = 1.0
            image = (superop_matrix @ vec(unit)).reshape((d, d), order="F")
            c += np.kron(unit, image)
            unit[i, j] = 0.0
    return c


class TestDepolarizing:
    def test_closed_form_generator(self, rng):
        st = random_faithful(rng, 3)
        lind = depolarizing(st)
        heis = lind.heisenberg_superoperator()
        # X -> Tr[sigma X] id - X as a matrix: outer(vec(id), vec(sigma^T)) - I
        closed = np.outer(vec(np.eye(3)), vec(st.matrix.T)) - np.eye(9)
        assert np.max(np.abs(heis - closed)) < 1e-12

    def test_general_sigma_stationary_and_gns(self, rng):
        st = random_faithful(rng, 2)
        ctx = stationary_state(depolarizing(st))
        assert np.max(np.abs(ctx.sigma - st.matrix)) < 1e-9
        assert check_detailed_balance("GNS", ctx).symmetric

    def test_dirichlet_is_variance(self, rng):
        st = random_faithful(rng, 3)
        ctx = stationary_state(depolarizing(st))
        for _ in range(100):
            x = random_hermitian(rng, 3)
            var = inner_product("KMS", st, x, x).real - np.trace(st.matrix @ x).real ** 2
            assert dirichlet_form(ctx, x) == pytest.approx(var, abs=1e-10)


class TestClassicalChain:
    def test_two_state_formulas(self):
        a, b = 1.3, 0.5
        chain = ClassicalChain(np.array([[-a, a], [b, -b]]))
        assert chain.reversible
        assert np.allclose(chain.stationary, [b / (a + b), a / (a + b)], atol=1e-12)
        assert chain.gap() == pytest.approx(a + b, abs=1e-12)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValidationError):
            ClassicalChain(np.array([[-1.0, 0.5], [1.0, -1.0]]))
        with pytest.raises(ValidationError):
            ClassicalChain(np.array([[-1.0, -1.0], [1.0, -1.0]]))

    def test_diagonal_action_is_rate_matrix(self, rng):
        q = np.array([[-0.9, 0.6, 0.3], [0.2, -0.5, 0.3], [0.4, 0.1, -0.5]])
        chain = ClassicalChain(q)
        lind = classical_embedding(chain)
        g = rng.normal(size=3)
        out = heisenberg_action(lind, np.diag(g).astype(complex))
        assert np.allclose(np.diag(out).real, q @ g, atol=1e-12)
        assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-12

    def test_nonreversible_chain_not_kms(self):
        q = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        chain = ClassicalChain(q)
        assert not chain.reversible
        ctx = stationary_state(classical_embedding(chain))
        assert not check_detailed_balance("KMS", ctx).symmetric


class TestTensorProduct:
    def test_two_qubit_depolarizing(self):
        lind = tensor_product([depolarizing(maximally_mixed(2))] * 2)
        ctx = stationary_state(lind)
        assert np.max(np.abs(ctx.sigma - np.eye(4) / 4)) < 1e-9

    def test_single_factor_unchanged(self, rng):
        base = depolarizing(random_faithful(rng, 2))
        wrapped = tensor_product([base])
        assert np.max(np.abs(base.heisenberg_superoperator()
                             - wrapped.heisenberg_superoperator())) < 1e-14

    def test_bohr_frequencies_union(self):
        st = FaithfulState(np.diag([0.8, 0.2]).astype(complex))
        single = stationary_state(depolarizing(st))
        pair = stationary_state(tensor_product([depolarizing(st)] * 2))
        singles = sorted(np.round(single.bohr, 10))
        doubles = sorted(set(np.round(pair.bohr, 10)))
        assert set(doubles) == set(singles)

    def test_dimension_guard(self):
        with pytest.raises(ValidationError):
            tensor_product([depolarizing(maximally_mixed(4))] * 4)


class TestJumpStacks:
    """The stacked constructors against the per-jump loops they replaced."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_depolarizing_matches_outer_product_loop(self, d):
        st = random_faithful(np.random.default_rng(40 + d), d)
        u = st.eigenvectors
        loop = [np.sqrt(st.eigenvalues[x]) * (u[:, x:x + 1] @ u[:, y:y + 1].conj().T)
                for x in range(d) for y in range(d)]
        assert depolarizing(st).jumps.shape == (d * d, d, d)
        assert np.max(np.abs(depolarizing(st).jumps - np.array(loop))) <= 4 * self.EPS

    def test_depolarizing_guard_precedes_jumps(self):
        with pytest.raises(ValidationError, match="exceeds guard 64"):
            depolarizing(maximally_mixed(65))

    def test_classical_embedding_matches_edge_loop(self):
        q = np.array([[-0.9, 0.6, 0.3], [0.0, -0.5, 0.5], [0.4, 0.1, -0.5]])
        chain = ClassicalChain(q)
        loop = []
        for i in range(3):
            for j in range(3):
                if i != j and q[i, j] > 0:
                    loop.append(np.zeros((3, 3), dtype=complex))
                    loop[-1][j, i] = np.sqrt(q[i, j])
        for i in range(3):
            loop.append(np.zeros((3, 3), dtype=complex))
            loop[-1][i, i] = np.sqrt(chain.gap())
        assert np.array_equal(classical_embedding(chain).jumps, np.array(loop))

    def test_tensor_product_matches_per_jump_placement(self):
        rng = np.random.default_rng(44)
        factors = [depolarizing(random_faithful(rng, 2)), classical_embedding(
            ClassicalChain(np.array([[-1.0, 0.5, 0.5], [0.2, -0.2, 0.0], [0.3, 0.3, -0.6]])))]
        dims = [2, 3]
        loop = [_on_sites(j, (k,), dims) for k, l in enumerate(factors) for j in l.jumps]
        assert np.array_equal(tensor_product(factors).jumps, np.array(loop))


class TestHeatBath:
    def ising(self, beta):
        zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
        return CommutingHamiltonian(2, 2, [((0, 1), zz)], beta=beta)

    def test_infinite_temperature_is_site_replacement(self):
        ham = self.ising(0.0)
        assert np.max(np.abs(ham.gibbs_state() - np.eye(4) / 4)) < 1e-12
        rho = random_state(np.random.default_rng(0), 4)
        out = apply_superoperator(site_channels(heat_bath(ham), 2)[0].conj().T, rho)
        expected = np.kron(np.eye(2) / 2, _ptrace_site0(rho))
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_beta_zero_matches_tensor_depolarizing(self):
        model = stationary_state(heat_bath(self.ising(0.0)))
        tensor = tensor_product([depolarizing(maximally_mixed(2))] * 2)
        diff = model.heisenberg - tensor.heisenberg_superoperator()
        assert np.max(np.abs(diff)) < 1e-10

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_stationarity_and_cp_unitality(self, beta):
        ham = self.ising(beta)
        lind = heat_bath(ham)
        heis = stationary_state(lind).heisenberg
        residual = np.max(np.abs(apply_superoperator(heis.conj().T, ham.gibbs_state())))
        assert residual < 1e-9
        for psi in site_channels(lind, 2):
            assert np.max(np.abs(apply_superoperator(psi, np.eye(4)) - np.eye(4))) < 1e-10
            choi = choi_matrix(psi, 4)
            assert np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0] > -1e-10

    @pytest.mark.parametrize("n_sites, beta", [(2, 0.5), (3, 1.0), (3, 2.0), (3, 4.0), (4, 3.0)])
    def test_kms_symmetric_across_beta(self, n_sites, beta):
        # The max-norm deviation grows with the condition number of the Gibbs
        # state (2.3e-7 at n = 3, beta = 4, where it is 8.9e6); the verdict
        # must not.
        zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
        ham = CommutingHamiltonian(n_sites, 2, [((i, i + 1), zz) for i in range(n_sites - 1)], beta=beta)
        ctx = stationary_state(heat_bath(ham))
        assert check_detailed_balance("KMS", ctx).symmetric
        assert not check_detailed_balance("GNS", ctx).symmetric

    def test_single_site_reduces_to_depolarizing(self):
        h = CommutingHamiltonian(1, 2, [((0,), np.diag([1.0, -1.0]))], beta=0.7)
        model = stationary_state(heat_bath(h))
        target = depolarizing(FaithfulState(h.gibbs_state()))
        diff = model.heisenberg - target.heisenberg_superoperator()
        assert np.max(np.abs(diff)) < 1e-10

    def test_noncommuting_terms_rejected(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(ValidationError):
            CommutingHamiltonian(2, 2, [((0,), sx), ((0,), sz)], beta=0.5)

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_generator_matches_unit_by_unit_assembly(self, n_sites):
        # A ZZ chain with a field on site 0, rotated by one random local
        # unitary on every site: the terms still commute, and the Gibbs
        # state is not diagonal.
        u = np.linalg.qr(random_hermitian(np.random.default_rng(5), 2) + 1j * np.eye(2))[0]
        zz = np.kron(u, u) @ np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])) @ np.kron(u, u).conj().T
        terms = [((i, i + 1), zz) for i in range(n_sites - 1)]
        terms.append(((0,), 0.5 * u @ np.diag([1.0, -1.0]) @ u.conj().T))
        h = CommutingHamiltonian(n_sites, 2, terms, beta=0.5)
        lind = heat_bath(h)
        reference = _unit_by_unit_heat_bath(h)
        for psi, ref in zip(site_channels(lind, n_sites), reference):
            assert np.max(np.abs(psi - ref)) <= 1e-12
        eye = np.eye(4 ** n_sites)
        heis = stationary_state(lind).heisenberg
        assert np.max(np.abs(heis - sum(ref - eye for ref in reference))) <= 1e-12


def _ptrace_site0(rho):
    t = rho.reshape(2, 2, 2, 2)
    return np.trace(t, axis1=0, axis2=2)


def _unit_by_unit(mapping, dim):
    """Matrix of a map on dim x dim matrices, one matrix unit per column."""
    columns = []
    for j in range(dim):
        for i in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            columns.append(vec(mapping(unit)))
    return np.stack(columns, axis=1)


def _unit_by_unit_heat_bath(h):
    """Heisenberg matrices of the heat-bath site channels, assembled as the
    product of the matrices of X -> left X left^dagger, of the lift
    A -> A (x) I_v and of the partial trace Tr_v, the last two built one
    matrix unit at a time."""
    n, d = h.n_sites, h.local_dim
    omega = h.gibbs_state()
    w, v = np.linalg.eigh(omega)
    sqrt_omega = (v * np.sqrt(w)) @ v.conj().T
    channels = []
    for site in range(n):
        complement = [s for s in range(n) if s != site]
        wc, vc = np.linalg.eigh(_partial_trace(omega, site, n, d))
        left = sqrt_omega @ _on_sites((vc / np.sqrt(wc)) @ vc.conj().T, complement, [d] * n)
        ptrace = _unit_by_unit(lambda x: _partial_trace(x, site, n, d), d ** n)
        lift = _unit_by_unit(lambda x: _on_sites(x, complement, [d] * n), d ** (n - 1))
        channels.append((left_right_matrix(left, left.conj().T) @ lift @ ptrace).conj().T)
    return channels


class TestAppendixB:
    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_matches_kron_construction(self, p):
        v1 = np.array([np.cos(0.3), np.sin(0.3)])
        v2 = np.array([np.cos(1.2), np.sin(1.2)])
        fx = counterexample_channels(v1, v2, p)
        ours = (fx.phi, fx.psi, fx.psi_tilde, fx.p_channel)
        for channel, reference in zip(ours, kron_counterexample_channels(v1, v2, p)):
            assert np.max(np.abs(channel - reference)) <= 1e-13

    def test_sigma_closed_form_is_invariant(self):
        fx = appendix_b_fixtures()
        phi_star = fx.phi.conj().T
        assert np.max(np.abs(apply_superoperator(phi_star, fx.sigma.matrix) - fx.sigma.matrix)) < 1e-12
        # channel-difference generator finds the same state
        ctx = stationary_state(lindbladian_from_channel(fx.psi))
        assert np.max(np.abs(ctx.sigma - fx.sigma.matrix)) < 1e-9

    def test_psi_unital_cp(self):
        fx = appendix_b_fixtures()
        for channel in (fx.psi, fx.psi_tilde):
            assert np.max(np.abs(apply_superoperator(channel, np.eye(2)) - np.eye(2))) < 1e-12
            choi = choi_matrix(channel, 2)
            assert np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0] > -1e-10

    def test_classification(self):
        fx = appendix_b_fixtures()
        ctx_psi = stationary_state(lindbladian_from_channel(fx.psi))
        ctx_psit = stationary_state(lindbladian_from_channel(fx.psi_tilde))
        assert check_detailed_balance("KMS", ctx_psi).deviation <= 1e-10
        assert check_detailed_balance("BKM", ctx_psi).deviation > 1e-6
        assert check_detailed_balance("BKM", ctx_psit).deviation <= 1e-10
        assert check_detailed_balance("KMS", ctx_psit).deviation > 1e-6

    def test_shared_stationary_state(self):
        fx = appendix_b_fixtures()
        for channel in (fx.psi, fx.psi_tilde):
            ctx = stationary_state(lindbladian_from_channel(channel))
            assert np.max(np.abs(ctx.sigma - fx.sigma.matrix)) < 1e-9

    def test_p_channel_classification_and_gns_witness(self):
        fx = appendix_b_fixtures(p=0.3)
        ctx = stationary_state(lindbladian_from_channel(fx.p_channel))
        assert np.allclose(ctx.sigma, np.diag([0.3, 0.7]), atol=1e-10)
        assert check_detailed_balance("KMS", ctx).symmetric
        assert check_detailed_balance("BKM", ctx).symmetric
        # GNS dual applied to the all-ones matrix fails positivity
        gns_dual = dual_superoperator("GNS", ctx, fx.p_channel)
        ones = np.ones((2, 2), dtype=complex)
        x = np.array([1.0, -1.0])
        value = float(np.real(x @ apply_superoperator(gns_dual, ones) @ x))
        assert value <= 0.0

    def test_parameter_constraints(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(ValidationError):
            counterexample_channels(v, np.array([0.0, 1.0]), 0.3)   # orthogonal
        with pytest.raises(ValidationError):
            appendix_b_fixtures(p=0.7)


class TestConstructorContracts:
    def test_every_constructor_passes_generator_contracts(self, rng):
        chain = ClassicalChain(np.array([[-1.0, 1.0], [0.4, -0.4]]))
        fixtures = [
            depolarizing(maximally_mixed(2)),
            depolarizing(random_faithful(rng, 3)),
            classical_embedding(chain),
            tensor_product([depolarizing(maximally_mixed(2))] * 2),
            heat_bath(CommutingHamiltonian(2, 2, [((0, 1), np.diag([1.0, -1.0, -1.0, 1.0]))], beta=0.5)),
        ]
        for lind in fixtures:
            eye = np.eye(lind.dim)
            assert np.max(np.abs(heisenberg_action(lind, eye))) < 1e-10
            rho = random_state(rng, lind.dim)
            assert abs(np.trace(schrodinger_action(lind, rho))) < 1e-12
            ctx = stationary_state(lind)
            assert np.max(np.abs(schrodinger_action(lind, ctx.sigma))) < 1e-9
