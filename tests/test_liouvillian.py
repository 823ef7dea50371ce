import math

import numpy as np
import pytest

from sqatoms import (
    AtomParams,
    BathParams,
    build_generator,
    rhs_collective,
    stationary_space,
    unique_asymptotic,
    dicke_asymptotic,
)
from sqatoms.model import CANONICAL, COLLECTIVE, KET_A, KET_G

from conftest import random_atoms, random_bath, random_density


def _random_params(rng, gamma_hat=None):
    return random_bath(rng), random_atoms(rng, gamma_hat=gamma_hat)


class TestGeneratorStructure:
    def test_trace_preservation(self, rng):
        for _ in range(30):
            bath, atoms = _random_params(rng)
            gen = build_generator(bath, atoms)
            assert abs(gen.apply(random_density(rng)).trace()) < 1e-12

    def test_trace_row_is_zero(self, rng):
        bath, atoms = _random_params(rng)
        gen = build_generator(bath, atoms)
        trace_row = gen.matrix[[0, 5, 10, 15], :].sum(axis=0)
        assert np.max(np.abs(trace_row)) < 1e-13

    def test_hermiticity_preservation(self, rng):
        for _ in range(20):
            bath, atoms = _random_params(rng)
            gen = build_generator(bath, atoms)
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert np.max(np.abs(gen.apply(x.conj().T) - gen.apply(x).conj().T)) < 1e-12

    def test_basis_conversion_consistency(self, rng):
        from sqatoms.model import COLLECTIVE_BASIS_MAP as u

        bath, atoms = _random_params(rng)
        gen_can = build_generator(bath, atoms, CANONICAL)
        gen_col = build_generator(bath, atoms, COLLECTIVE)
        rho_can = random_density(rng)
        via_can = u @ gen_can.apply(rho_can) @ u.conj().T
        via_col = gen_col.apply(u @ rho_can @ u.conj().T)
        assert np.max(np.abs(via_can - via_col)) < 1e-12

    def test_complete_positivity_on_admissible_domain(self, rng):
        # the Choi matrix of exp(tL) is PSD iff the map is completely
        # positive, which for this bath holds exactly on |M|^2 <= N(N+1)
        from scipy.linalg import expm
        from sqatoms.liouvillian import _generator_matrix

        def choi_min_eig(mat, t):
            prop = expm(t * mat)
            choi = np.zeros((16, 16), dtype=complex)
            for i in range(4):
                for j in range(4):
                    unit = np.zeros((4, 4), dtype=complex)
                    unit[i, j] = 1.0
                    choi += np.kron(unit, (prop @ unit.reshape(16)).reshape(4, 4))
            return float(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)[0])

        for _ in range(10):
            bath, atoms = _random_params(rng)
            assert choi_min_eig(build_generator(bath, atoms).matrix, 0.3) >= -1e-12

        # an over-squeezed bath is not a quantum channel generator
        bad_bath = BathParams(0.3, 1.3 * math.sqrt(0.3 * 1.3))
        mat = _generator_matrix(bad_bath, AtomParams(gamma_hat=0.9))
        assert choi_min_eig(mat, 0.5) < -1e-3

    def test_vacuum_rate_eigenvalues(self):
        # at N = M = 0 the symmetric/antisymmetric populations relax at the
        # enhanced and reduced rates
        atoms = AtomParams(gamma_hat=0.6)
        gen = build_generator(BathParams(0.0), atoms)
        evals = np.linalg.eigvals(gen.matrix)
        for target in (-(1.0 + atoms.gamma_hat), -(1.0 - atoms.gamma_hat)):
            assert np.min(np.abs(evals - target)) < 1e-12


class TestCollectiveRhsOracle:
    def test_agrees_with_generator_on_random_matrices(self, rng):
        worst = 0.0
        for _ in range(200):
            bath, atoms = _random_params(rng)
            if rng.uniform() < 0.3:
                atoms = AtomParams(gamma_hat=1.0, delta=atoms.delta, omega_dd=atoms.omega_dd)
            gen = build_generator(bath, atoms, COLLECTIVE)
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            diff = np.max(np.abs(gen.apply(x) - rhs_collective(x, bath, atoms)))
            worst = max(worst, diff)
        assert worst < 1e-12

    def test_symmetric_state_enhanced_decay_in_vacuum(self):
        atoms = AtomParams(gamma_hat=0.75)
        # projector onto |s> in collective coordinates is the (1,1) unit
        proj = np.zeros((4, 4), dtype=complex)
        proj[1, 1] = 1.0
        d = rhs_collective(proj, BathParams(0.0), atoms)
        assert d[1, 1] == pytest.approx(-(1.0 + atoms.gamma_hat), abs=1e-14)

    def test_sa_coherence_decay_coefficient(self):
        bath = BathParams(0.8, 0.5, 1.0)
        atoms = AtomParams(gamma_hat=0.4, omega_dd=0.7, delta=0.2)
        x = np.zeros((4, 4), dtype=complex)
        x[2, 1] = 1.0  # rho_as
        d = rhs_collective(x, bath, atoms)
        expected = -(1.0 + 2.0 * bath.n_mean) + 2j * atoms.omega_ratio
        assert d[2, 1] == pytest.approx(expected, abs=1e-14)
        # the s-a coherence is fully decoupled from every other entry
        assert np.max(np.abs(d - expected * x)) < 1e-14

    def test_dicke_antisymmetric_population_frozen(self, rng):
        atoms = AtomParams(gamma_hat=1.0, delta=0.9, omega_dd=0.5)
        for _ in range(20):
            bath = random_bath(rng)
            d = rhs_collective(random_density(rng), bath, atoms)
            assert abs(d[2, 2]) < 1e-14


class TestDickeDecoupling:
    def test_antisymmetric_state_is_dark(self, rng):
        proj_a = np.outer(KET_A, KET_A.conj())
        for _ in range(20):
            bath = random_bath(rng)
            atoms = AtomParams(gamma_hat=1.0, delta=rng.uniform(-2, 2),
                               omega_dd=rng.uniform(-1, 1))
            gen = build_generator(bath, atoms)
            assert np.max(np.abs(gen.apply(proj_a))) < 1e-12


class TestStationarySpace:
    def test_separated_kernel_is_one_dimensional(self):
        bath = BathParams(1.0, math.sqrt(2.0))
        atoms = AtomParams(gamma_hat=0.85)
        res = stationary_space(build_generator(bath, atoms))
        assert res.dimension == 1
        assert not res.ill_conditioned
        state = res.states[0]
        assert np.max(np.abs(state.matrix - unique_asymptotic(bath, atoms).matrix)) < 1e-9

    def test_dicke_kernel_is_two_dimensional_off_resonance(self):
        bath = BathParams(1.0, math.sqrt(2.0))
        atoms = AtomParams(gamma_hat=1.0, delta=0.7)
        res = stationary_space(build_generator(bath, atoms))
        assert res.dimension == 2
        lo = dicke_asymptotic(bath, atoms, 0.0)
        hi = dicke_asymptotic(bath, atoms, 1.0)
        assert np.max(np.abs(res.states[0].matrix - lo.matrix)) < 1e-9
        assert np.max(np.abs(res.states[1].matrix - hi.matrix)) < 1e-9

    def test_resonant_min_uncertainty_kernel_is_enlarged(self):
        # at |M| = sqrt(N(N+1)) and zero detuning both |a> and the two-atom
        # squeezed state are dark, so the kernel holds a full 2x2 operator
        # block: dimension 4, not 2
        bath = BathParams(1.0, math.sqrt(2.0))
        atoms = AtomParams(gamma_hat=1.0)
        res = stationary_space(build_generator(bath, atoms))
        assert res.dimension == 4

    def test_independent_atoms_in_vacuum(self):
        res = stationary_space(build_generator(BathParams(0.0), AtomParams(gamma_hat=0.0)))
        assert res.dimension == 1
        assert np.max(np.abs(res.states[0].matrix - np.outer(KET_G, KET_G))) < 1e-10

    def test_ill_conditioned_flag_near_dicke(self):
        bath = BathParams(1.0, 0.9)
        res = stationary_space(build_generator(bath, AtomParams(gamma_hat=1.0 - 1e-8, delta=0.4)))
        assert res.dimension == 1
        assert res.ill_conditioned

    def test_random_draw_dimensions(self, rng):
        for _ in range(10):
            bath = random_bath(rng)
            res_sep = stationary_space(build_generator(bath, random_atoms(rng, gh_hi=0.95)))
            assert res_sep.dimension == 1
            atoms_d = AtomParams(gamma_hat=1.0, delta=rng.uniform(0.1, 2.0))
            res_dic = stationary_space(build_generator(bath, atoms_d))
            assert res_dic.dimension == 2


class TestClosedFormStationarity:
    def test_unique_state_is_stationary_at_reference_point(self):
        bath = BathParams(1.0, math.sqrt(2.0), 0.0)
        atoms = AtomParams(gamma_hat=0.85, delta=0.5)
        gen = build_generator(bath, atoms)
        assert np.max(np.abs(gen.apply(unique_asymptotic(bath, atoms)))) < 1e-10

    def test_unique_state_is_omega_independent(self):
        bath = BathParams(0.7, 0.6, 1.2)
        base = unique_asymptotic(bath, AtomParams(gamma_hat=0.5, delta=0.3))
        coupled = unique_asymptotic(bath, AtomParams(gamma_hat=0.5, delta=0.3, omega_dd=0.8))
        assert np.max(np.abs(base.matrix - coupled.matrix)) == 0.0
        gen = build_generator(bath, AtomParams(gamma_hat=0.5, delta=0.3, omega_dd=0.8))
        assert np.max(np.abs(gen.apply(coupled))) < 1e-10
