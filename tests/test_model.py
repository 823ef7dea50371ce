import math

import numpy as np
import pytest

from sqatoms import (
    AtomParams,
    BathParams,
    DensityMatrix,
    GammaHatRangeError,
    MSqueezeBoundError,
    NegativeRateError,
    NonFiniteError,
    NotNormalizedError,
    ParameterError,
    fidelity_antisymmetric,
    from_collective,
    product_state_fidelity,
    to_collective,
    validate,
)
from sqatoms.model import (
    CANONICAL,
    COLLECTIVE,
    COLLECTIVE_BASIS_MAP,
    KET_A,
    KET_E,
    KET_G,
)

from conftest import random_density, random_pure


class TestValidate:
    def test_minimum_uncertainty_boundary_accepted(self):
        bath = BathParams(1.0, math.sqrt(2.0), 0.0)
        atoms = AtomParams(gamma_hat=0.85, gamma0=1.0)
        assert validate(bath, atoms) == (bath, atoms)

    def test_m_above_bound_rejected(self):
        with pytest.raises(MSqueezeBoundError):
            validate(BathParams(0.0, 0.1), AtomParams(gamma_hat=0.5))

    def test_gamma_hat_out_of_range(self):
        with pytest.raises(GammaHatRangeError):
            validate(BathParams(1.0, 1.0), AtomParams(gamma_hat=1.2))
        with pytest.raises(GammaHatRangeError):
            validate(BathParams(1.0, 1.0), AtomParams(gamma_hat=-0.1))

    def test_nonpositive_gamma0(self):
        with pytest.raises(NegativeRateError):
            validate(BathParams(1.0, 0.5), AtomParams(gamma_hat=0.5, gamma0=0.0))

    def test_negative_n_or_m(self):
        with pytest.raises(ParameterError):
            validate(BathParams(-0.5), AtomParams(gamma_hat=0.5))
        with pytest.raises(ParameterError):
            validate(BathParams(1.0, -0.5), AtomParams(gamma_hat=0.5))

    def test_minimum_uncertainty_constructor(self):
        bath = BathParams.minimum_uncertainty(2.0, 0.3)
        assert bath.m_abs == pytest.approx(math.sqrt(6.0), abs=1e-15)
        validate(bath, AtomParams(gamma_hat=1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["n_mean", "m_abs", "m_phase", "gamma_hat", "gamma0",
                                       "omega_dd", "delta"])
    def test_non_finite_field_rejected(self, field, bad):
        bath = {"n_mean": 1.0, "m_abs": 0.5, "m_phase": 0.0}
        atoms = {"gamma_hat": 0.5, "gamma0": 1.0, "omega_dd": 0.0, "delta": 0.0}
        (bath if field in bath else atoms)[field] = bad
        with pytest.raises(NonFiniteError, match="finite"):
            validate(BathParams(**bath), AtomParams(**atoms))

    def test_arrays_are_checked_elementwise(self):
        ns = np.linspace(0.0, 3.0, 7)[:, None]
        deltas = np.array([[-1.0, 0.0, 2.5]])
        bath = BathParams.minimum_uncertainty(ns, 0.3)
        assert validate(bath, AtomParams(gamma_hat=0.5, delta=deltas))[0] is bath
        with pytest.raises(MSqueezeBoundError, match=r"\|M\| = 2.0 exceeds .* for N = 0.0"):
            validate(BathParams(ns, 2.0), AtomParams(gamma_hat=0.5))
        with pytest.raises(ParameterError, match="got -0.5"):
            validate(BathParams(np.array([0.0, 1.0, -0.5, -2.0])), AtomParams(gamma_hat=0.5))
        with pytest.raises(NonFiniteError, match="delta = nan"):
            validate(bath, AtomParams(gamma_hat=0.5, delta=np.array([0.0, math.nan])))
        with pytest.raises(NonFiniteError, match="N = inf"):
            validate(BathParams.minimum_uncertainty(np.array([1.0, math.inf])),
                     AtomParams(gamma_hat=0.5))

    def test_bound_is_shared_by_constructor_and_check(self):
        ns = np.array([0.0, 1e-8, 0.5, 2.0, 1e3, 1e6])
        bath = BathParams.minimum_uncertainty(ns)
        assert np.array_equal(bath.m_abs, bath.m_bound)
        for n, m in zip(ns, bath.m_abs):
            scalar = BathParams.minimum_uncertainty(float(n))
            assert type(scalar.m_abs) is float and type(scalar.m_bound) is float
            assert scalar.m_abs == m == math.sqrt(n * (n + 1.0))
        assert BathParams(-1.0).m_bound == 0.0

    def test_regime_flag(self):
        assert AtomParams(gamma_hat=0.999).regime == "separated"
        assert AtomParams(gamma_hat=1.0).regime == "dicke"


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.5, 0.5, 0.1, 0.0]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_entries(self, entry):
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[1, 1] = entry
        with pytest.raises(NonFiniteError):
            DensityMatrix(m)
        with pytest.raises(NonFiniteError):
            DensityMatrix(np.full((4, 4), entry))

    def test_matrix_is_read_only(self):
        rho = DensityMatrix.from_pure(KET_G)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestCollectiveBasis:
    def test_map_is_unitary(self):
        u = COLLECTIVE_BASIS_MAP
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-14
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-14

    def test_single_excitation_product_state(self):
        # |10><10| spreads evenly over |s>, |a> with +1/2 cross terms
        ket10 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        coll = to_collective(DensityMatrix.from_pure(ket10)).matrix
        assert coll[1, 1] == pytest.approx(0.5, abs=1e-15)
        assert coll[2, 2] == pytest.approx(0.5, abs=1e-15)
        assert coll[1, 2] == pytest.approx(0.5, abs=1e-15)
        assert coll[2, 1] == pytest.approx(0.5, abs=1e-15)

    def test_doubly_excited_state_is_basis_vector(self):
        coll = to_collective(DensityMatrix.from_pure(KET_E)).matrix
        assert np.max(np.abs(coll - np.diag([1.0, 0.0, 0.0, 0.0]))) < 1e-15

    def test_round_trip_on_random_states(self, rng):
        for _ in range(100):
            rho = DensityMatrix(random_density(rng))
            back = from_collective(to_collective(rho))
            assert back.basis == CANONICAL
            assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-14

    def test_in_basis_is_idempotent(self, rng):
        rho = DensityMatrix(random_density(rng))
        assert rho.in_basis(CANONICAL) is rho
        coll = rho.in_basis(COLLECTIVE)
        assert coll.in_basis(COLLECTIVE) is coll


class TestFidelityAntisymmetric:
    def test_antisymmetric_state(self):
        assert fidelity_antisymmetric(DensityMatrix.from_pure(KET_A)) == pytest.approx(1.0, abs=1e-15)

    def test_ground_state(self):
        assert fidelity_antisymmetric(DensityMatrix.from_pure(KET_G)) == 0.0

    def test_single_excitation(self):
        ket01 = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
        assert fidelity_antisymmetric(DensityMatrix.from_pure(ket01)) == pytest.approx(0.5, abs=1e-15)

    def test_equals_collective_entry_exactly(self, rng):
        for _ in range(30):
            rho = DensityMatrix(random_density(rng))
            assert fidelity_antisymmetric(rho) == to_collective(rho).matrix[2, 2].real


class TestProductStateFidelity:
    def test_same_ground_states(self):
        ground = np.array([0.0, 1.0])
        assert product_state_fidelity(ground, ground) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_states(self):
        assert product_state_fidelity([0.0, 1.0], [1.0, 0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_superposition(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert product_state_fidelity([0.0, 1.0], plus) == pytest.approx(0.25, abs=1e-12)

    def test_matches_density_matrix_route(self, rng):
        for _ in range(50):
            phi, psi = random_pure(rng, 2), random_pure(rng, 2)
            via_dm = fidelity_antisymmetric(DensityMatrix.from_pure(np.kron(phi, psi)))
            assert product_state_fidelity(phi, psi) == pytest.approx(via_dm, abs=1e-12)

    def test_never_exceeds_half(self, rng):
        for _ in range(200):
            assert product_state_fidelity(random_pure(rng, 2), random_pure(rng, 2)) <= 0.5 + 1e-15

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            product_state_fidelity([0.0, 1.1], [0.0, 1.0])
