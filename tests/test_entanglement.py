import math

import numpy as np
import pytest

from sqatoms import (
    AtomParams,
    BathParams,
    DensityMatrix,
    FidelityRangeError,
    NonFiniteError,
    NotXFormError,
    RegimeError,
    asymptotic_concurrence,
    concurrence,
    concurrence_unique,
    concurrence_x,
    dicke_asymptotic,
    resonant_min_uncertainty_profile,
    thresholds,
    two_atom_squeezed_state,
    unique_asymptotic,
)
from sqatoms.model import KET_A

from conftest import random_atoms, random_bath, random_pure, random_x_state

C0_N1 = 2.0 * math.sqrt(2.0) / 3.0


class TestConcurrence:
    def test_bell_state(self):
        bell = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
        assert concurrence(DensityMatrix.from_pure(bell)) == pytest.approx(1.0, abs=1e-12)

    def test_product_states_are_separable(self, rng):
        for _ in range(50):
            vec = np.kron(random_pure(rng, 2), random_pure(rng, 2))
            assert concurrence(DensityMatrix.from_pure(vec)) < 1e-10

    def test_two_atom_squeezed_state_value(self):
        psi = two_atom_squeezed_state(1.0, 0.7)
        assert concurrence(DensityMatrix.from_pure(psi)) == pytest.approx(C0_N1, abs=1e-12)

    def test_maximally_mixed_state(self):
        assert concurrence(np.eye(4, dtype=complex) / 4.0) == 0.0


class TestConcurrenceX:
    def test_ground_state_is_separable(self):
        rho = unique_asymptotic(BathParams(0.0), AtomParams(gamma_hat=0.5))
        assert concurrence_x(rho) == 0.0

    def test_antisymmetric_projector(self):
        assert concurrence_x(np.outer(KET_A, KET_A)) == pytest.approx(1.0, abs=1e-15)

    def test_matches_eigenvalue_definition(self, rng):
        for _ in range(200):
            rho = random_x_state(rng)
            assert concurrence_x(rho) == pytest.approx(concurrence(rho), abs=1e-10)

    def test_rejects_non_x_matrices(self, rng):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = rho[1, 0] = 1e-6
        with pytest.raises(NotXFormError):
            concurrence_x(rho)


class TestConcurrenceUnique:
    def test_vacuum_is_separable(self):
        assert concurrence_unique(BathParams(0.0), AtomParams(gamma_hat=0.4)) == 0.0

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            concurrence_unique(BathParams(1.0), AtomParams(gamma_hat=1.0))

    def test_nan_photon_number_raises(self):
        # max(0.0, nan) is 0.0: without the finiteness check this read as separable
        with pytest.raises(NonFiniteError):
            concurrence_unique(BathParams(math.nan), AtomParams(gamma_hat=0.4))

    def test_matches_constructive_concurrence(self, rng):
        for _ in range(100):
            bath, atoms = random_bath(rng), random_atoms(rng)
            closed = concurrence_unique(bath, atoms)
            constructive = concurrence(unique_asymptotic(bath, atoms))
            assert closed == pytest.approx(constructive, abs=1e-9)

    def test_matches_nullspace_state_concurrence(self, rng):
        from sqatoms import build_generator, stationary_space

        for _ in range(20):
            bath, atoms = random_bath(rng), random_atoms(rng, gh_hi=0.95)
            res = stationary_space(build_generator(bath, atoms))
            assert concurrence(res.states[0]) == pytest.approx(
                concurrence_unique(bath, atoms), abs=1e-9
            )

    def test_minimum_uncertainty_profile_shape(self):
        # positive on a finite window with an interior maximum at small N,
        # and pointwise suppressed by detuning
        ns = np.linspace(0.0, 3.0, 301)
        curves = {}
        for delta in (0.0, 0.5, 1.0):
            atoms = AtomParams(gamma_hat=0.85, delta=delta)
            curves[delta] = np.array([
                concurrence_unique(BathParams.minimum_uncertainty(n), atoms) for n in ns
            ])
        for delta, c in curves.items():
            assert c.max() > 0.0
            imax = int(c.argmax())
            assert 0 < imax < len(ns) - 1
            assert np.all(np.diff(c[: imax + 1]) >= -1e-12)  # single interior peak
            assert np.all(np.diff(c[imax:]) <= 1e-12)
            assert c[-1] == 0.0  # vanishes for large N
        assert np.all(curves[0.0] >= curves[0.5] - 1e-12)
        assert np.all(curves[0.5] >= curves[1.0] - 1e-12)


class TestThresholds:
    def test_vacuum(self):
        thr = thresholds(BathParams(0.0), AtomParams(gamma_hat=1.0))
        assert thr.f2 == 0.0 and thr.f1 == 0.0

    def test_thermal(self):
        thr = thresholds(BathParams(1.5), AtomParams(gamma_hat=1.0, delta=0.2))
        assert thr.f1 == 0.0
        assert thr.f2 > 0.0

    def test_resonant_minimum_uncertainty_coincide(self):
        thr = thresholds(BathParams(1.0, math.sqrt(2.0)), AtomParams(gamma_hat=1.0))
        expected = 2.0 * math.sqrt(2.0) / (2.0 * math.sqrt(2.0) + 3.0)
        assert thr.f1 == pytest.approx(expected, abs=1e-12)
        assert thr.f2 == pytest.approx(expected, abs=1e-12)

    def test_ordering_invariants(self, rng):
        for _ in range(300):
            bath = random_bath(rng, n_lo=0.0)
            atoms = AtomParams(gamma_hat=1.0, delta=rng.uniform(-2, 2))
            thr = thresholds(bath, atoms)
            assert thr.f2 >= thr.f_cr - 1e-12
            assert thr.f1 <= thr.f2 + 1e-12

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            thresholds(BathParams(1.0), AtomParams(gamma_hat=0.5))


class TestAsymptoticConcurrence:
    def test_full_fidelity_is_maximally_entangled(self):
        bath = BathParams(2.0, 0.9, 0.1)
        assert asymptotic_concurrence(bath, AtomParams(gamma_hat=1.0, delta=1.1), 1.0) == 1.0

    def test_zero_on_separable_window(self):
        bath = BathParams.minimum_uncertainty(1.0)
        atoms = AtomParams(gamma_hat=1.0, delta=0.8)
        thr = thresholds(bath, atoms)
        assert thr.f1 < thr.f2
        # exactly zero inside the window; the endpoints themselves are zeros
        # of a differently rounded expression, so allow an ulp there
        for f in np.linspace(thr.f1, thr.f2, 17)[1:-1]:
            assert asymptotic_concurrence(bath, atoms, f) == 0.0
        for f in (thr.f1, thr.f2):
            assert asymptotic_concurrence(bath, atoms, f) <= 1e-15
        eps = 1e-3
        assert asymptotic_concurrence(bath, atoms, thr.f1 - eps) > 0.0
        assert asymptotic_concurrence(bath, atoms, thr.f2 + eps) > 0.0

    def test_matches_constructive_concurrence(self, rng):
        for _ in range(60):
            bath = random_bath(rng)
            atoms = AtomParams(gamma_hat=1.0, delta=rng.uniform(-2, 2))
            f = rng.uniform(0, 1)
            direct = concurrence(dicke_asymptotic(bath, atoms, f))
            assert asymptotic_concurrence(bath, atoms, f) == pytest.approx(direct, abs=1e-10)

    def test_piecewise_affine_in_fidelity(self):
        bath = BathParams.minimum_uncertainty(1.0)
        atoms = AtomParams(gamma_hat=1.0, delta=0.8)
        thr = thresholds(bath, atoms)
        for lo, hi in ((0.0, thr.f1), (thr.f2, 1.0)):
            grid = np.linspace(lo + 1e-6, hi - 1e-6, 21)
            vals = np.array([asymptotic_concurrence(bath, atoms, f) for f in grid])
            second = np.diff(vals, n=2)
            assert np.max(np.abs(second)) < 1e-10

    def test_resonant_min_uncertainty_closed_form(self):
        bath = BathParams.minimum_uncertainty(1.0)
        atoms = AtomParams(gamma_hat=1.0)
        c0 = C0_N1
        for f in np.linspace(0.0, 1.0, 41):
            expected = abs((1.0 + c0) * f - c0)
            assert asymptotic_concurrence(bath, atoms, f) == pytest.approx(expected, abs=1e-12)

    def test_zero_fidelity_entanglement_needs_squeezing(self, rng):
        # squeezed bath near minimum uncertainty entangles F = 0 states
        for n in (0.5, 1.0, 2.0):
            bath = BathParams.minimum_uncertainty(n)
            assert asymptotic_concurrence(bath, AtomParams(gamma_hat=1.0, delta=0.1), 0.0) > 0.0
        # thermal and vacuum reservoirs do not
        for n in (0.0, 0.7, 2.5):
            bath = BathParams(n)
            atoms = AtomParams(gamma_hat=1.0, delta=rng.uniform(-1, 1))
            assert asymptotic_concurrence(bath, atoms, 0.0) == 0.0

    def test_fidelity_range_error(self):
        with pytest.raises(FidelityRangeError):
            asymptotic_concurrence(BathParams(1.0), AtomParams(gamma_hat=1.0), -0.1)


class TestResonantMinUncertaintyProfile:
    def test_zero_fidelity_value(self):
        assert resonant_min_uncertainty_profile(1.0, 0.0) == pytest.approx(C0_N1, abs=1e-15)

    def test_vanishes_at_touch_point(self):
        c0 = C0_N1
        f1 = c0 / (1.0 + c0)
        assert resonant_min_uncertainty_profile(1.0, f1) == pytest.approx(0.0, abs=1e-12)

    def test_maximal_squeezing_limit(self):
        assert resonant_min_uncertainty_profile(1e8, 0.0) > 1.0 - 1e-8

    def test_agrees_with_family_concurrence(self):
        for n in (0.3, 1.0, 2.7):
            bath = BathParams.minimum_uncertainty(n)
            atoms = AtomParams(gamma_hat=1.0)
            for f in np.linspace(0.0, 1.0, 21):
                assert resonant_min_uncertainty_profile(n, f) == pytest.approx(
                    asymptotic_concurrence(bath, atoms, f), abs=1e-12
                )
