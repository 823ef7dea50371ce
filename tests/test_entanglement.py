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


class TestArrayConcurrence:
    """The closed-form concurrences broadcast over N, |M|, delta and F and
    agree elementwise with their scalar calls."""

    @staticmethod
    def _draws(rng):
        ns = np.concatenate([[0.0, 1e-8, 1e3], rng.uniform(0.0, 5.0, 13)])
        fracs = rng.uniform(0.0, 1.0, ns.size)
        fracs[::3] = 1.0  # on the |M| bound
        return ns, fracs * np.sqrt(ns * (ns + 1.0)), np.concatenate([[0.0], rng.uniform(-3, 3, 5)])

    @staticmethod
    def _close(got, want):
        assert isinstance(want, float)
        assert abs(got - want) <= 1e-15 * abs(want)
        assert math.copysign(1.0, got) == 1.0  # no -0.0

    def test_unique_state_concurrence(self, rng):
        ns, ms, deltas = self._draws(rng)
        for gamma_hat in (0.0, 0.85, 1.0 - 1e-12):
            got = concurrence_unique(BathParams(ns[:, None], ms[:, None], 0.3),
                                     AtomParams(gamma_hat=gamma_hat, delta=deltas[None, :]))
            assert got.shape == (ns.size, deltas.size)
            for i, j in np.ndindex(got.shape):
                self._close(got[i, j], concurrence_unique(
                    BathParams(float(ns[i]), float(ms[i]), 0.3),
                    AtomParams(gamma_hat=gamma_hat, delta=float(deltas[j]))))

    def test_dicke_family_concurrence(self, rng):
        ns, ms, deltas = self._draws(rng)
        fs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 6)])
        got = asymptotic_concurrence(BathParams(ns[:, None, None], ms[:, None, None], 0.3),
                                     AtomParams(gamma_hat=1.0, delta=deltas[None, :, None]),
                                     fs[None, None, :])
        assert got.shape == (ns.size, deltas.size, fs.size)
        for i, j, k in np.ndindex(got.shape):
            self._close(got[i, j, k], asymptotic_concurrence(
                BathParams(float(ns[i]), float(ms[i]), 0.3),
                AtomParams(gamma_hat=1.0, delta=float(deltas[j])), float(fs[k])))
        assert np.all(got[..., 1] == 1.0)  # F = 1 is the pure |a>

    def test_zero_branch_is_positive_zero(self):
        # np.maximum(0.0, -0.0) is -0.0; the scans must not print "-0"
        from sqatoms.entanglement import _positive_part

        clipped = _positive_part(np.array([-0.0, 0.0, -1e-300, -2.0, 0.5]))
        assert np.array_equal(np.copysign(1.0, clipped), [1.0, 1.0, 1.0, 1.0, 1.0])
        assert math.copysign(1.0, _positive_part(-0.0)) == 1.0
        c = asymptotic_concurrence(BathParams.minimum_uncertainty(1.0), AtomParams(1.0, delta=0.8),
                                   np.linspace(0.0, 1.0, 501))
        zeros = c[c == 0.0]
        assert zeros.size and np.all(np.copysign(1.0, zeros) == 1.0)
        c = concurrence_unique(BathParams(np.linspace(0.0, 3.0, 31)), AtomParams(0.5, delta=0.4))
        assert np.all(c == 0.0) and np.all(np.copysign(1.0, c) == 1.0)

    def test_array_errors_name_the_first_offender(self):
        atoms = AtomParams(gamma_hat=1.0)
        bath = BathParams.minimum_uncertainty(1.0)
        with pytest.raises(FidelityRangeError, match="got 1.5"):
            asymptotic_concurrence(bath, atoms, np.array([0.2, 1.5, -1.0]))
        with pytest.raises(FidelityRangeError):
            asymptotic_concurrence(bath, atoms, np.array([0.2, np.nan]))
        with pytest.raises(NonFiniteError, match="delta = inf"):
            concurrence_unique(bath, AtomParams(0.5, delta=np.array([0.0, np.inf])))
        with pytest.raises(RegimeError):
            concurrence_unique(bath, AtomParams(1.0, delta=np.array([0.0, 1.0])))
