import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sqatoms import (
    AtomParams,
    BathParams,
    DensityMatrix,
    IntegratorConfig,
    build_generator,
    dicke_asymptotic,
    evolve_to_stationary,
    fidelity_antisymmetric,
    integrate,
    propagate_expm,
    rhs_collective,
    trajectory,
    two_atom_squeezed_state,
    unique_asymptotic,
)
from sqatoms.cli import main, parse_initial_state
from sqatoms.evolve import default_t_max
from sqatoms.model import COLLECTIVE, KET_A, KET_E, KET_G, KET_S

from conftest import random_atoms, random_bath, random_density


class TestIntegratorConfig:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            IntegratorConfig(stationarity_eps=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=0.0)


class TestIntegrate:
    def test_stationary_state_is_fixed(self):
        bath = BathParams(1.0, math.sqrt(2.0))
        atoms = AtomParams(gamma_hat=0.85, delta=0.5)
        rho_u = unique_asymptotic(bath, atoms)
        out = integrate(rho_u, bath, atoms, 5.0)
        assert np.max(np.abs(out.state.matrix - rho_u.matrix)) < 1e-9

    def test_vacuum_single_atom_exponential_decay(self):
        bath, atoms = BathParams(0.0), AtomParams(gamma_hat=0.0)
        out = integrate(DensityMatrix.from_pure(KET_E), bath, atoms, 1.0)
        assert out.state.matrix[0, 0].real == pytest.approx(math.exp(-2.0), abs=1e-8)

    def test_trace_and_hermiticity_preserved(self, rng):
        for _ in range(50):
            bath, atoms = random_bath(rng), random_atoms(rng, gh_hi=1.0)
            out = integrate(DensityMatrix(random_density(rng)), bath, atoms, 20.0)
            m = out.state.matrix
            assert abs(m.trace() - 1.0) < 1e-10
            assert np.max(np.abs(m - m.conj().T)) < 1e-10
            assert out.correction < 1e-10

    def test_agrees_with_matrix_exponential(self, rng):
        for _ in range(5):
            bath, atoms = random_bath(rng), random_atoms(rng)
            rho0 = DensityMatrix(random_density(rng))
            via_rk = integrate(rho0, bath, atoms, 3.0).state.matrix
            via_exp = propagate_expm(rho0, bath, atoms, 3.0).matrix
            assert np.max(np.abs(via_rk - via_exp)) < 1e-10

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            integrate(DensityMatrix.from_pure(KET_G), BathParams(0.0),
                      AtomParams(gamma_hat=0.5), -1.0)


class TestPropagator:
    def test_trajectory_matches_dop853_on_collective_equations(self, rng):
        # independent oracle: a general-purpose high-order integrator on the
        # hand-derived collective equations, not on the generator matrix
        times = np.linspace(0.0, 6.0, 13)
        worst = 0.0
        for k in range(6):
            bath = random_bath(rng)
            if k % 2 == 0:
                bath = BathParams.minimum_uncertainty(bath.n_mean, bath.m_phase)
            atoms = random_atoms(rng, gamma_hat=1.0 if k % 3 == 0 else None)
            rho0 = DensityMatrix(random_density(rng))
            sol = solve_ivp(
                lambda t, y: rhs_collective(y.reshape(4, 4), bath, atoms).reshape(16),
                (0.0, times[-1]), rho0.in_basis(COLLECTIVE).matrix.reshape(16),
                method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14,
            )
            assert sol.success
            for i, state in enumerate(trajectory(rho0, bath, atoms, times)):
                ref = sol.y[:, i].reshape(4, 4)
                worst = max(worst, np.max(np.abs(state.in_basis(COLLECTIVE).matrix - ref)))
        assert worst < 1e-9

    def test_stationary_chunks_follow_the_doubling_schedule(self):
        bath = BathParams(1.0, math.sqrt(2.0))
        atoms = AtomParams(gamma_hat=0.85)
        res = evolve_to_stationary(DensityMatrix.from_pure(KET_G), bath, atoms,
                                   IntegratorConfig(t_max=100.0, stationarity_eps=1e-300))
        # chunks 1, 2, 4, 8 then capped at t_max / 8: 15 + 85 / 12.5 -> 7 more
        assert not res.converged
        assert res.time == pytest.approx(100.0, abs=1e-12)
        assert res.steps == 4 + 7
        ref = propagate_expm(DensityMatrix.from_pure(KET_G), bath, atoms, 100.0)
        assert np.max(np.abs(res.state.matrix - ref.matrix)) < 1e-10

    @staticmethod
    def _count_expm(monkeypatch):
        import sqatoms.evolve as ev

        calls = []
        original = ev.expm

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(ev, "expm", counting)
        return calls

    @pytest.mark.parametrize("t_end, samples", [(20.0, 201), (30.0, 201), (7.3, 57)])
    def test_uniform_grid_takes_one_propagator(self, monkeypatch, t_end, samples):
        times = np.linspace(0.0, t_end, samples)
        assert len(set(np.diff(times).tolist())) > 1  # linspace gaps differ in the last bits
        bath = BathParams.minimum_uncertainty(1.3, 0.4)
        atoms = AtomParams(gamma_hat=0.9, delta=0.6, omega_dd=0.2)
        rho0 = DensityMatrix.from_pure(KET_E)
        calls = self._count_expm(monkeypatch)
        states = trajectory(rho0, bath, atoms, times)
        assert len(calls) == 1
        for t, state in zip(times[::10], states[::10]):
            ref = propagate_expm(rho0, bath, atoms, float(t))
            assert np.max(np.abs(state.matrix - ref.matrix)) < 1e-12

    def test_nonuniform_grid_takes_one_propagator_per_gap(self, monkeypatch):
        times = [0.5, 1.0, 1.5, 3.0, 3.0, 4.5]
        calls = self._count_expm(monkeypatch)
        bath, atoms = BathParams(1.0, 0.8), AtomParams(gamma_hat=1.0, delta=0.3)
        states = trajectory(DensityMatrix.from_pure(KET_S), bath, atoms, times)
        assert len(calls) == 2  # gaps 0.5 and 1.5
        for t, state in zip(times, states):
            ref = propagate_expm(DensityMatrix.from_pure(KET_S), bath, atoms, t)
            assert np.max(np.abs(state.matrix - ref.matrix)) < 1e-12

    def test_one_validated_state_per_sample(self, monkeypatch, capsys):
        # each returned state is built (and so validated) once; the CSV
        # rows read its collective view from raw arrays
        built = []
        original = DensityMatrix.__post_init__

        def counting(self):
            built.append(self.basis)
            original(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        assert main(["evolve", "--N", "1", "--min-uncertainty", "--gamma-hat", "0.9",
                     "--init", "e", "--t", "5", "--samples", "41"]) == 0
        capsys.readouterr()
        assert len(built) == 1 + 41  # the initial state, then one per sample


class TestEvolveToStationary:
    def test_separated_regime_reaches_unique_state(self):
        bath = BathParams(1.0, math.sqrt(2.0))
        atoms = AtomParams(gamma_hat=0.85)
        res = evolve_to_stationary(DensityMatrix.from_pure(KET_G), bath, atoms)
        assert res.converged
        assert np.max(np.abs(res.state.matrix - unique_asymptotic(bath, atoms).matrix)) < 1e-8

    def test_dicke_zero_fidelity_reaches_squeezed_state(self):
        bath = BathParams.minimum_uncertainty(1.0)
        atoms = AtomParams(gamma_hat=1.0)
        res = evolve_to_stationary(DensityMatrix.from_pure(KET_G), bath, atoms)
        psi = two_atom_squeezed_state(1.0, math.pi)
        assert res.converged
        assert np.max(np.abs(res.state.matrix - np.outer(psi, psi.conj()))) < 1e-8

    def test_antisymmetric_state_is_left_alone(self):
        bath = BathParams(2.0, 1.3, 0.9)
        atoms = AtomParams(gamma_hat=1.0, delta=0.4)
        res = evolve_to_stationary(DensityMatrix.from_pure(KET_A), bath, atoms)
        assert res.converged
        assert np.max(np.abs(res.state.matrix - np.outer(KET_A, KET_A.conj()))) < 1e-10

    def test_not_converged_flag_on_short_horizon(self):
        bath = BathParams(1.0, math.sqrt(2.0))
        atoms = AtomParams(gamma_hat=0.85)
        res = evolve_to_stationary(
            DensityMatrix.from_pure(KET_G), bath, atoms, IntegratorConfig(t_max=0.5)
        )
        assert not res.converged
        assert res.residual > 1e-10
        assert res.state.matrix.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_dicke_fidelity_conserved_along_trajectory(self):
        bath = BathParams.minimum_uncertainty(1.5, 0.7)
        atoms = AtomParams(gamma_hat=1.0, delta=0.3)
        v = KET_G + 0.6 * KET_A + 0.3 * KET_S
        rho0 = DensityMatrix.from_pure(v / np.linalg.norm(v))
        f0 = fidelity_antisymmetric(rho0)
        times = np.linspace(0.0, 15.0, 16)
        for state in trajectory(rho0, bath, atoms, times):
            assert abs(fidelity_antisymmetric(state) - f0) < 1e-9

    def test_monotone_approach_bounded_by_spectral_gap(self):
        bath = BathParams(1.0, 0.8, 0.4)
        atoms = AtomParams(gamma_hat=0.7, delta=0.3)
        gen = build_generator(bath, atoms)
        rates = -np.linalg.eigvals(gen.matrix).real
        gap = rates[rates > 1e-9].min()
        rho_inf = unique_asymptotic(bath, atoms).matrix
        rho0 = DensityMatrix.from_pure(KET_E)
        d0 = np.linalg.norm(rho0.matrix - rho_inf)
        for t in (1.0, 2.0, 4.0, 8.0):
            dist = np.linalg.norm(integrate(rho0, bath, atoms, t).state.matrix - rho_inf)
            assert dist <= 2.0 * d0 * math.exp(-gap * t)

    def test_trajectory_requires_sorted_times(self):
        with pytest.raises(ValueError):
            trajectory(DensityMatrix.from_pure(KET_G), BathParams(0.0),
                       AtomParams(gamma_hat=0.5), [1.0, 0.5])


class TestFormerHorizonOverruns:
    """Slowly relaxing cases near the Dicke limit, up to the 1e6 horizon
    cap; their work is bounded by a propagator-application count, not by
    wall time."""

    MAX_STEPS = 25

    def test_near_resonant_dicke_point_on_the_bound(self):
        # slowest decaying rate 3.3e-3, horizon 1.5e4
        rho0 = parse_initial_state("product:1.0,0.5,2.0,1.0")
        bath = BathParams.minimum_uncertainty(2.18)
        atoms = AtomParams(gamma_hat=1.0, delta=0.1355)
        res = evolve_to_stationary(rho0, bath, atoms)
        target = dicke_asymptotic(bath, atoms, fidelity_antisymmetric(rho0))
        assert res.converged
        assert res.steps <= self.MAX_STEPS
        assert np.max(np.abs(res.state.matrix - target.matrix)) < 1e-7

    @pytest.mark.parametrize("gamma_hat", [1.0 - 1e-6, 1.0 - 1e-9])
    def test_near_dicke_separated_atoms_report_nonconvergence(self, gamma_hat, capsys):
        # the slowest rate, about 3(1 - gamma_hat), is too small for the
        # residual to reach 1e-10 by the capped horizon t = 1e6
        bath = BathParams.minimum_uncertainty(1.0)
        atoms = AtomParams(gamma_hat=gamma_hat, delta=0.3)
        res = evolve_to_stationary(DensityMatrix.from_pure(KET_G), bath, atoms)
        assert not res.converged
        assert res.time == pytest.approx(1e6)
        assert res.steps <= self.MAX_STEPS
        code = main(["steady", "--N", "1", "--min-uncertainty", "--gamma-hat", repr(gamma_hat),
                     "--delta", "0.3", "--dynamics", "--init", "g"])
        assert code == 3
        assert "did not reach stationarity" in capsys.readouterr().err


class TestDefaultHorizon:
    def test_scales_with_slowest_mode_in_separated_regime(self):
        bath = BathParams(1.0, 0.5)
        short = default_t_max(bath, AtomParams(gamma_hat=0.2))
        long = default_t_max(bath, AtomParams(gamma_hat=0.99))
        assert long > short

    def test_finite_in_dicke_limit(self):
        assert default_t_max(BathParams(1.0, math.sqrt(2.0)), AtomParams(gamma_hat=1.0)) < 1e4
