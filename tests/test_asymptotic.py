import math
from fractions import Fraction

import numpy as np
import pytest

from sqatoms import (
    AtomParams,
    BathParams,
    BelowCriticalError,
    DensityMatrix,
    FidelityRangeError,
    RegimeError,
    atomic_squeeze_unitary,
    build_generator,
    critical_fidelity,
    decompose,
    dicke_asymptotic,
    fidelity_antisymmetric,
    squeeze_parameter,
    two_atom_squeezed_state,
    unique_asymptotic,
)
from sqatoms.asymptotic import (
    dicke_asymptotic_coefficients,
    unique_asymptotic_coefficients,
)
from sqatoms.model import KET_A, KET_G

from conftest import random_atoms, random_bath


class TestUniqueAsymptotic:
    def test_vacuum_gives_ground_state(self):
        rho = unique_asymptotic(BathParams(0.0), AtomParams(gamma_hat=0.3, delta=0.7))
        assert np.max(np.abs(rho.matrix - np.outer(KET_G, KET_G))) < 1e-15

    def test_thermal_resonant_is_product_thermal_state(self):
        n = 1.4
        rho = unique_asymptotic(BathParams(n), AtomParams(gamma_hat=0.6)).matrix
        w = 1.0 + 2.0 * n
        assert rho[0, 0].real == pytest.approx(n**2 / w**2, abs=1e-12)
        assert rho[1, 1].real == pytest.approx(n * (n + 1) / w**2, abs=1e-12)
        assert rho[3, 3].real == pytest.approx((n + 1) ** 2 / w**2, abs=1e-12)
        assert abs(rho[0, 3]) == 0.0 and abs(rho[1, 2]) == 0.0
        # product of two single-atom thermal states
        single = np.diag([n / w, (n + 1) / w])
        assert np.max(np.abs(rho - np.kron(single, single))) < 1e-12

    def test_stationary_under_generator(self):
        bath = BathParams(1.0, math.sqrt(2.0), 0.0)
        atoms = AtomParams(gamma_hat=0.85, delta=0.0)
        gen = build_generator(bath, atoms)
        assert np.max(np.abs(gen.apply(unique_asymptotic(bath, atoms)))) < 1e-10

    def test_trace_identity_over_draws(self, rng):
        for _ in range(1000):
            bath, atoms = random_bath(rng), random_atoms(rng)
            u, a, c, d, _, _ = unique_asymptotic_coefficients(bath, atoms)
            assert abs(a + 2 * c + d - u) < 1e-12 * u

    def test_positive_semidefinite_over_draws(self, rng):
        for _ in range(300):
            rho = unique_asymptotic(random_bath(rng), random_atoms(rng))
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10

    def test_regime_error_in_dicke_limit(self):
        with pytest.raises(RegimeError):
            unique_asymptotic(BathParams(1.0), AtomParams(gamma_hat=1.0))


class TestDickeAsymptotic:
    def test_full_fidelity_gives_antisymmetric_state(self):
        rho = dicke_asymptotic(BathParams(2.0, 1.1, 0.4), AtomParams(gamma_hat=1.0, delta=0.6), 1.0)
        assert np.max(np.abs(rho.matrix - np.outer(KET_A, KET_A.conj()))) < 1e-15

    def test_zero_fidelity_resonant_min_uncertainty_is_squeezed_state(self):
        theta0 = 0.8
        bath = BathParams.minimum_uncertainty(1.0, theta0)
        rho = dicke_asymptotic(bath, AtomParams(gamma_hat=1.0), 0.0)
        psi = two_atom_squeezed_state(1.0, theta0 + math.pi)
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) < 1e-12

    def test_thermal_bath_has_no_outer_coherence(self):
        rho = dicke_asymptotic(BathParams(1.5), AtomParams(gamma_hat=1.0, delta=0.5), 0.4)
        assert abs(rho.matrix[0, 3]) == 0.0

    def test_fidelity_is_preserved_exactly(self, rng):
        for _ in range(50):
            bath = random_bath(rng)
            atoms = AtomParams(gamma_hat=1.0, delta=rng.uniform(-2, 2))
            f = rng.uniform(0, 1)
            rho = dicke_asymptotic(bath, atoms, f)
            assert fidelity_antisymmetric(rho) == pytest.approx(f, abs=1e-12)

    def test_trace_identity_over_draws(self, rng):
        for _ in range(1000):
            bath = random_bath(rng)
            atoms = AtomParams(gamma_hat=1.0, delta=rng.uniform(-2, 2))
            u, a, c, d, _ = dicke_asymptotic_coefficients(bath, atoms)
            assert abs(a + c + d - u) < 1e-12 * u

    def test_positive_semidefinite_over_draws(self, rng):
        for _ in range(300):
            bath = random_bath(rng)
            atoms = AtomParams(gamma_hat=1.0, delta=rng.uniform(-2, 2))
            rho = dicke_asymptotic(bath, atoms, rng.uniform(0, 1))
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10

    def test_stationary_under_dicke_generator(self, rng):
        for _ in range(50):
            bath = random_bath(rng)
            atoms = AtomParams(gamma_hat=1.0, delta=rng.uniform(-2, 2),
                               omega_dd=rng.uniform(-1, 1))
            gen = build_generator(bath, atoms)
            rho = dicke_asymptotic(bath, atoms, rng.uniform(0, 1))
            assert np.max(np.abs(gen.apply(rho))) < 1e-10

    def test_fidelity_range_error(self):
        with pytest.raises(FidelityRangeError):
            dicke_asymptotic(BathParams(1.0), AtomParams(gamma_hat=1.0), 1.2)

    def test_regime_error_for_separated_atoms(self):
        with pytest.raises(RegimeError):
            dicke_asymptotic(BathParams(1.0), AtomParams(gamma_hat=0.9), 0.5)


class TestTwoAtomSqueezedState:
    def test_vacuum_limit_is_ground_state(self):
        psi = two_atom_squeezed_state(0.0, 1.3)
        assert np.max(np.abs(psi - KET_G)) < 1e-15

    def test_amplitude_split_at_unit_photon_number(self):
        # excited-state weight N/(1+2N), matching the stationary population
        psi = two_atom_squeezed_state(1.0, 0.0)
        assert abs(psi[3]) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        assert abs(psi[0]) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)

    def test_maximal_squeezing_limit(self):
        from sqatoms import concurrence

        psi = two_atom_squeezed_state(1e6, 0.2)
        assert abs(psi[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert abs(psi[3]) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert concurrence(DensityMatrix.from_pure(psi)) > 1.0 - 1e-9

    def test_only_stationary_coefficient_placement_is_used(self):
        # tie-break for the amplitude ordering: the implemented state is dark
        # under the resonant minimum-uncertainty Dicke generator, the
        # transposed assignment is not
        bath = BathParams.minimum_uncertainty(1.0)
        gen = build_generator(bath, AtomParams(gamma_hat=1.0))
        good = two_atom_squeezed_state(1.0, math.pi)
        assert np.max(np.abs(gen.apply(np.outer(good, good.conj())))) < 1e-12
        swapped = np.zeros(4, dtype=complex)
        swapped[3], swapped[0] = good[0], -good[3]
        assert np.max(np.abs(gen.apply(np.outer(swapped, swapped.conj())))) > 0.1


class TestAtomicSqueezeUnitary:
    def test_zero_parameter_is_identity(self):
        assert np.array_equal(atomic_squeeze_unitary(0.0), np.eye(4))

    def test_unitarity_for_random_parameters(self, rng):
        for _ in range(20):
            xi = rng.normal() + 1j * rng.normal()
            s = atomic_squeeze_unitary(xi)
            assert np.max(np.abs(s @ s.conj().T - np.eye(4))) < 1e-12

    def test_acts_only_on_double_excitation_block(self, rng):
        s = atomic_squeeze_unitary(0.7 - 0.2j)
        assert s[1, 1] == 1.0 and s[2, 2] == 1.0
        off_block = s.copy()
        off_block[np.ix_([0, 3], [0, 3])] = 0.0
        off_block[1, 1] = off_block[2, 2] = 0.0
        assert np.max(np.abs(off_block)) == 0.0

    def test_generates_squeezed_state_from_ground(self, rng):
        for n, theta in ((0.3, 0.0), (1.0, 2.1), (4.0, -0.9)):
            xi = squeeze_parameter(n, theta)
            out = atomic_squeeze_unitary(xi) @ KET_G
            assert np.max(np.abs(out - two_atom_squeezed_state(n, theta))) < 1e-12


class TestCriticalFidelity:
    def test_zero_at_resonant_minimum_uncertainty(self):
        bath = BathParams.minimum_uncertainty(1.7)
        assert critical_fidelity(bath, AtomParams(gamma_hat=1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_thermal_reference_value(self):
        # c = 18 and u = 63 at N = 1, so the threshold is 2/9
        val = critical_fidelity(BathParams(1.0), AtomParams(gamma_hat=1.0))
        assert val == pytest.approx(2.0 / 9.0, abs=1e-14)

    def test_vacuum(self):
        assert critical_fidelity(BathParams(0.0), AtomParams(gamma_hat=1.0)) == 0.0


class TestDecompose:
    def test_resonant_min_uncertainty_reduces_to_two_state_mixture(self):
        bath = BathParams.minimum_uncertainty(1.0, 0.6)
        atoms = AtomParams(gamma_hat=1.0)
        mix = decompose(bath, atoms, 0.3)
        assert mix.p == pytest.approx(0.3, abs=1e-12)
        assert mix.q == pytest.approx(0.7, abs=1e-12)
        assert abs(mix.gibbs_weight) < 1e-12
        psi = two_atom_squeezed_state(1.0, 0.6 + math.pi)
        overlap = abs(np.vdot(mix.psi, psi))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert mix.degenerate_gibbs

    def test_weight_p_vanishes_at_critical_fidelity(self):
        bath = BathParams(1.0, 0.9, 0.2)
        atoms = AtomParams(gamma_hat=1.0, delta=0.4)
        f_cr = critical_fidelity(bath, atoms)
        mix = decompose(bath, atoms, f_cr)
        assert abs(mix.p) < 1e-12

    def test_reference_point_reconstruction(self):
        bath = BathParams(1.0, 0.8, math.pi / 3)
        atoms = AtomParams(gamma_hat=1.0, delta=0.5)
        mix = decompose(bath, atoms, 0.6)
        target = dicke_asymptotic(bath, atoms, 0.6)
        assert np.max(np.abs(mix.reconstruction().matrix - target.matrix)) < 1e-10

    def test_full_fidelity_is_pure_antisymmetric(self):
        bath = BathParams(0.8, 0.6, 1.0)
        atoms = AtomParams(gamma_hat=1.0, delta=-0.7)
        mix = decompose(bath, atoms, 1.0)
        assert mix.p == pytest.approx(1.0, abs=1e-12)
        assert mix.q == 0.0
        target = dicke_asymptotic(bath, atoms, 1.0)
        assert np.max(np.abs(mix.reconstruction().matrix - target.matrix)) < 1e-12

    def test_below_critical_raises_with_threshold(self):
        bath = BathParams(1.0, 0.5)
        atoms = AtomParams(gamma_hat=1.0)
        f_cr = critical_fidelity(bath, atoms)
        with pytest.raises(BelowCriticalError) as err:
            decompose(bath, atoms, f_cr / 2.0)
        assert err.value.f_cr == pytest.approx(f_cr, abs=1e-15)

    def test_regime_error_for_separated_atoms(self):
        with pytest.raises(RegimeError):
            decompose(BathParams(1.0, 0.5), AtomParams(gamma_hat=0.5), 0.9)

    def test_thermal_bath_has_no_pure_component(self):
        mix = decompose(BathParams(1.2), AtomParams(gamma_hat=1.0, delta=0.3), 0.5)
        assert mix.q == 0.0
        target = dicke_asymptotic(BathParams(1.2), AtomParams(gamma_hat=1.0, delta=0.3), 0.5)
        assert np.max(np.abs(mix.reconstruction().matrix - target.matrix)) < 1e-12

    def test_boltzmann_exponents_match_weight_construction(self, rng):
        for _ in range(50):
            bath = random_bath(rng, frac_hi=0.9)
            atoms = AtomParams(gamma_hat=1.0, delta=rng.uniform(-2, 2))
            f_cr = critical_fidelity(bath, atoms)
            mix = decompose(bath, atoms, rng.uniform(f_cr, 1.0))
            if mix.degenerate_gibbs:
                continue
            u, a, c, d, z = dicke_asymptotic_coefficients(bath, atoms)
            assert mix.beta_omega == pytest.approx(0.5 * math.log(d / a), abs=1e-12)
            bw, bw1 = mix.beta_omega, mix.beta_omega1
            weights = np.array([math.exp(-(bw + bw1)), 1.0, 1.0, math.exp(bw - bw1)])
            weights /= weights.sum()
            assert np.max(np.abs(mix.gibbs.matrix.diagonal().real - weights)) < 1e-10

    def test_reconstruction_over_random_draws(self, rng):
        for _ in range(100):
            bath = random_bath(rng)
            atoms = AtomParams(gamma_hat=1.0, delta=rng.uniform(-2, 2))
            f_cr = critical_fidelity(bath, atoms)
            f = rng.uniform(f_cr, 1.0)
            mix = decompose(bath, atoms, f)
            assert -1e-12 <= mix.p <= 1.0 + 1e-12
            assert -1e-12 <= mix.q <= 1.0 + 1e-12
            assert mix.p + mix.q <= 1.0 + 1e-12
            target = dicke_asymptotic(bath, atoms, f)
            assert np.max(np.abs(mix.reconstruction().matrix - target.matrix)) < 1e-10


def _exact_populations(n, mm, gamma_hat, delta, dicke):
    """Populations and inner coherence of the closed forms divided by u,
    in exact rational arithmetic on the expanded N, |M|^2 polynomials
    (the form that cancels in floating point near the |M| bound)."""
    n, mm, g, d2 = Fraction(n), Fraction(mm), Fraction(gamma_hat), Fraction(delta) ** 2
    w = 1 + 2 * n
    if dicke:
        beta = n * (n + 1) - mm
        u = w * w * (1 + 3 * n + 3 * n * n - 3 * mm) + 4 * (1 + 3 * n + 3 * n * n) * d2
        a = 4 * n * n * beta + mm + n * n * (1 + 4 * d2)
        c = w * w * beta + 4 * n * (n + 1) * d2
        d = 4 * (1 + n) ** 2 * beta + mm + (1 + n) ** 2 * (1 + 4 * d2)
        return [a / u, c / u, d / u]
    core = w * w - 4 * mm + 4 * d2
    u = w * w * (w * w + 4 * d2) + 4 * mm * (g * g - w * w)
    a = n * n * core + mm * g * g
    c = n * (n + 1) * core + mm * g * g
    d = (1 + n) ** 2 * core + mm * g * g
    return [a / u, c / u, d / u, -2 * g * mm / u]


class TestCancellationNearTheBound:
    """The closed forms are written in beta = N(N+1) - |M|^2, which is
    exactly 0 on the minimum-uncertainty boundary; in the expanded form
    u lost about 2 log10(N) digits there and the state failed its trace
    check for N >= 100 (separated) and N >= 500 (Dicke)."""

    @pytest.mark.parametrize("n", [1e2, 1e3, 1e6, 1e8])
    @pytest.mark.parametrize("gamma_hat", [0.0, 0.85, 1.0 - 1e-9])
    def test_unique_state_on_the_bound(self, n, gamma_hat):
        delta = 0.7
        rho = unique_asymptotic(BathParams.minimum_uncertainty(n, 0.4),
                                AtomParams(gamma_hat=gamma_hat, delta=delta)).matrix
        # oracle: the ideal boundary |M|^2 = N(N+1), evaluated exactly
        want = _exact_populations(n, n * (1 + Fraction(n)), gamma_hat, delta, dicke=False)
        got = [rho[0, 0].real, rho[1, 1].real, rho[3, 3].real, rho[1, 2].real]
        assert np.allclose(got, [float(v) for v in want], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("n", [1e2, 1e3, 1e6, 1e8])
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_dicke_state_on_the_bound(self, n, delta):
        f = 0.25
        rho = dicke_asymptotic(BathParams.minimum_uncertainty(n, 0.4),
                               AtomParams(gamma_hat=1.0, delta=delta), f).matrix
        a, c, d = (float(v) * (1.0 - f) for v in
                   _exact_populations(n, n * (1 + Fraction(n)), 1.0, delta, dicke=True))
        got = [rho[0, 0].real, rho[1, 1].real + rho[2, 1].real, rho[3, 3].real]
        assert np.allclose(got, [a, c, d], rtol=1e-12, atol=1e-15)
        assert fidelity_antisymmetric(rho) == pytest.approx(f, abs=1e-15)

    def test_beta_is_exactly_zero_on_the_bound(self):
        for n in (0.0, 1e-8, 0.3, 7.0, 1e3, 1e6):
            bath = BathParams.minimum_uncertainty(n, 1.1)
            _, _, c, _, _ = dicke_asymptotic_coefficients(bath, AtomParams(gamma_hat=1.0))
            assert c == 0.0  # c = (1+2N)^2 beta + 4N(N+1) delta^2

    @pytest.mark.parametrize("n", [1e3, 1e6])
    def test_interior_points_match_exact_arithmetic(self, n):
        # strictly inside the bound the expanded form is exact in rationals
        # on the given doubles; the beta form must reproduce it
        for frac in (0.5, 0.99, 0.999999):
            bath = BathParams(n, frac * math.sqrt(n * (n + 1.0)), 0.2)
            for dicke in (False, True):
                atoms = AtomParams(gamma_hat=1.0 if dicke else 0.85, delta=0.3)
                coeffs = (dicke_asymptotic_coefficients if dicke
                          else unique_asymptotic_coefficients)(bath, atoms)
                got = [coeffs.a / coeffs.u, coeffs.c / coeffs.u, coeffs.d / coeffs.u]
                if not dicke:
                    got.append(coeffs.b / coeffs.u)
                want = _exact_populations(n, bath.m_abs**2, atoms.gamma_hat, 0.3, dicke)
                # beta itself carries the rounding of N(N+1) and |M|^2
                assert np.allclose(got, [float(v) for v in want], rtol=1e-9, atol=1e-15)

    def test_trace_identities_hold_by_construction(self, rng):
        for _ in range(50):
            bath = random_bath(rng, n_hi=1e6)
            atoms = random_atoms(rng)
            u, a, c, d, _, _ = unique_asymptotic_coefficients(bath, atoms)
            assert a + 2.0 * c + d == u
            u, a, c, d, _ = dicke_asymptotic_coefficients(bath, AtomParams(1.0, delta=atoms.delta))
            assert a + c + d == u


class TestArrayCoefficients:
    def test_arrays_match_the_scalar_path(self, rng):
        ns = np.concatenate([[0.0, 1e-8, 1e3], rng.uniform(0.0, 5.0, 9)])
        fracs = rng.uniform(0.0, 1.0, ns.size)
        fracs[::4] = 1.0  # a share of the draws on the |M| bound
        ms = fracs * np.sqrt(ns * (ns + 1.0))
        deltas = np.concatenate([[0.0], rng.uniform(-3.0, 3.0, 4)])
        shape = (ns.size, deltas.size)
        for min_unc in (True, False):
            def bath_at(n, m):
                return BathParams.minimum_uncertainty(n, 0.7) if min_unc else BathParams(n, m, 0.7)

            for gamma_hat in (0.0, 0.6, 1.0 - 1e-12, 1.0):
                fn = (dicke_asymptotic_coefficients if gamma_hat == 1.0
                      else unique_asymptotic_coefficients)
                arrays = fn(bath_at(ns[:, None], ms[:, None]),
                            AtomParams(gamma_hat=gamma_hat, delta=deltas[None, :]))
                for i, j in np.ndindex(shape):
                    scalar = fn(bath_at(float(ns[i]), float(ms[i])),
                                AtomParams(gamma_hat=gamma_hat, delta=float(deltas[j])))
                    for got, want in zip(arrays, scalar):
                        assert isinstance(want, (float, complex))
                        got = np.broadcast_to(got, shape)[i, j]
                        assert abs(got - want) <= 1e-15 * abs(want)
