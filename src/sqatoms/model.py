"""Domain types, parameter validation and basis bookkeeping.

Conventions used throughout the package:

* canonical product basis, ordered ``|11>, |10>, |01>, |00>`` (atom A in the
  first slot, excited level first within each qubit),
* collective basis ``|e>, |s>, |a>, |g>`` with the symmetric and
  antisymmetric one-excitation states ``|s> = (|10> + |01>)/sqrt(2)`` and
  ``|a> = (|10> - |01>)/sqrt(2)``,
* all rates are normalized to the single-atom emission rate ``gamma0``;
  times are measured in units of ``1/gamma0``.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

CANONICAL = "canonical"
COLLECTIVE = "collective"

# validation tolerances for density matrices
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-9

# unitary mapping canonical coordinates to collective ones: row i holds the
# collective vector |e>, |s>, |a>, |g> expressed in the canonical basis
_SQ2 = 1.0 / math.sqrt(2.0)
COLLECTIVE_BASIS_MAP = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, _SQ2, _SQ2, 0.0],
        [0.0, _SQ2, -_SQ2, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)
COLLECTIVE_BASIS_MAP.setflags(write=False)

# canonical coordinates of the collective states
KET_E = COLLECTIVE_BASIS_MAP[0].copy()
KET_S = COLLECTIVE_BASIS_MAP[1].copy()
KET_A = COLLECTIVE_BASIS_MAP[2].copy()
KET_G = COLLECTIVE_BASIS_MAP[3].copy()
for _k in (KET_E, KET_S, KET_A, KET_G):
    _k.setflags(write=False)


class ParameterError(ValueError):
    """A physical parameter violates its admissible range."""


class MSqueezeBoundError(ParameterError):
    """|M| exceeds the squeezing bound sqrt(N(N+1))."""


class NegativeRateError(ParameterError):
    """The single-atom emission rate is not positive."""


class GammaHatRangeError(ParameterError):
    """The collective damping ratio lies outside [0, 1]."""


class NonFiniteError(ParameterError):
    """A parameter or a density-matrix entry is NaN or infinite."""


class NotNormalizedError(ValueError):
    """A state vector is not normalized to one."""


class RegimeError(ValueError):
    """Operation called in the wrong damping regime (separated vs Dicke)."""


class FidelityRangeError(ValueError):
    """Fidelity argument lies outside [0, 1]."""


@dataclass(frozen=True)
class BathParams:
    """Broadband squeezed reservoir: mean photon number ``n_mean`` (N),
    squeezing-correlation magnitude ``m_abs`` (|M|) and phase ``m_phase``.

    The physical bound is ``m_abs <= sqrt(n_mean * (n_mean + 1))``, with
    equality for minimum-uncertainty squeezing.  Construction does not
    enforce the bound; call :func:`validate`.  ``n_mean`` and ``m_abs``
    may be numpy arrays (broadcast against each other and against the
    detuning), which the closed forms evaluate elementwise; the phase is
    a scalar.
    """

    n_mean: float
    m_abs: float = 0.0
    m_phase: float = 0.0

    @property
    def m(self) -> complex:
        """Complex squeezing correlation M = |M| exp(i phase)."""
        return self.m_abs * complex(math.cos(self.m_phase), math.sin(self.m_phase))

    @property
    def m_bound(self) -> float:
        """sqrt(N(N+1)), and 0 for N <= 0."""
        return squeeze_bound(self.n_mean)

    @classmethod
    def minimum_uncertainty(cls, n_mean: float, m_phase: float = 0.0) -> "BathParams":
        """Bath on the minimum-uncertainty boundary |M| = sqrt(N(N+1))."""
        return cls(n_mean=n_mean, m_abs=squeeze_bound(n_mean), m_phase=m_phase)


@dataclass(frozen=True)
class AtomParams:
    """Atomic pair: collective damping ratio ``gamma_hat`` (gamma/gamma0),
    emission rate ``gamma0``, dipole-dipole coupling ``omega_dd`` (same
    units as gamma0) and normalized detuning ``delta``."""

    gamma_hat: float
    gamma0: float = 1.0
    omega_dd: float = 0.0
    delta: float = 0.0

    @property
    def regime(self) -> str:
        return "dicke" if self.gamma_hat >= 1.0 else "separated"

    @property
    def omega_ratio(self) -> float:
        """Dipole-dipole coupling in units of gamma0."""
        return self.omega_dd / self.gamma0


def as_scalar(x):
    """A 0-d result as a Python float (or complex); arrays pass through."""
    return x.item() if getattr(x, "ndim", None) == 0 else x


def squeeze_bound(n_mean):
    """sqrt(N(N+1)) elementwise, 0 where N <= 0.

    :meth:`BathParams.minimum_uncertainty` and :func:`validate` share this
    one expression, so a minimum-uncertainty bath sits exactly on the
    bound that validation and the closed forms compare against.
    """
    n = np.maximum(n_mean, 0.0)
    return as_scalar(np.sqrt(n * (n + 1.0)))


def first_violation(cond, *values):
    """None if ``cond`` holds nowhere; else each of ``values`` (broadcast
    against ``cond``) at the first position where it holds.  ``cond`` is a
    bool for scalar parameters and a bool array otherwise."""
    if not (cond.any() if isinstance(cond, np.ndarray) else cond):
        return None
    cond = np.asarray(cond)
    i = int(cond.argmax())
    return tuple(np.broadcast_to(v, cond.shape).flat[i].item() for v in values)


def validate(bath: BathParams, atoms: AtomParams) -> tuple[BathParams, AtomParams]:
    """Check both parameter sets and return them unchanged.

    Every field may be a scalar or a numpy array; arrays are checked
    elementwise and an error names the first offending value.  The checks
    are plain comparisons, which numpy broadcasts over arrays and which
    cost no ufunc dispatch on Python floats.

    Raises
    ------
    NonFiniteError, MSqueezeBoundError, NegativeRateError, GammaHatRangeError,
    ParameterError
        naming the violated invariant.
    """
    # every range check below is a comparison, and comparisons with NaN
    # are false, so finiteness comes first (NaN is unequal to itself)
    fields = {"N": bath.n_mean, "|M|": bath.m_abs, "M phase": bath.m_phase,
              "gamma_hat": atoms.gamma_hat, "gamma0": atoms.gamma0,
              "omega_dd": atoms.omega_dd, "delta": atoms.delta}
    bad = [f"{name} = {hit[0]}" for name, value in fields.items()
           if (hit := first_violation((value != value) | (abs(value) == math.inf), value))]
    if bad:
        raise NonFiniteError(f"parameters must be finite, got {', '.join(bad)}")
    n, m = bath.n_mean, bath.m_abs
    if hit := first_violation(n < 0.0, n):
        raise ParameterError(f"mean photon number must be >= 0, got {hit[0]}")
    if hit := first_violation(m < 0.0, m):
        raise ParameterError(f"|M| must be >= 0, got {hit[0]}")
    bound = bath.m_bound
    if hit := first_violation(m > bound * (1.0 + 1e-14) + 1e-300, m, bound, n):
        raise MSqueezeBoundError(
            f"|M| = {hit[0]} exceeds sqrt(N(N+1)) = {hit[1]} for N = {hit[2]}"
        )
    if hit := first_violation(atoms.gamma0 <= 0.0, atoms.gamma0):
        raise NegativeRateError(f"gamma0 must be > 0, got {hit[0]}")
    gh = atoms.gamma_hat
    if hit := first_violation((gh < 0.0) | (gh > 1.0), gh):
        raise GammaHatRangeError(f"gamma_hat must lie in [0, 1], got {hit[0]}")
    return bath, atoms


@dataclass(frozen=True)
class DensityMatrix:
    """A 4x4 two-qubit density matrix together with its basis tag.

    Construction enforces finite entries, hermiticity (1e-12 entrywise),
    unit trace (1e-12) and positivity up to a -1e-9 eigenvalue floor.
    """

    matrix: np.ndarray
    basis: str = CANONICAL

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got shape {m.shape}")
        if self.basis not in (CANONICAL, COLLECTIVE):
            raise ValueError(f"unknown basis tag {self.basis!r}")
        if not np.isfinite(m).all():
            raise NonFiniteError("density matrix has non-finite entries")
        herm = abs(m - m.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_pure(cls, amplitudes: np.ndarray, basis: str = CANONICAL) -> "DensityMatrix":
        """Projector onto a (normalized) pure state."""
        v = np.asarray(amplitudes, dtype=complex).reshape(4)
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-10:
            raise NotNormalizedError(f"state vector norm deviates from 1 by {abs(nrm - 1.0):.3e}")
        v = v / nrm
        return cls(np.outer(v, v.conj()), basis)

    def in_basis(self, basis: str) -> "DensityMatrix":
        if basis == self.basis:
            return self
        if basis not in (CANONICAL, COLLECTIVE):
            raise ValueError(f"unknown basis tag {basis!r}")
        return DensityMatrix(rotate(self.matrix, self.basis, basis), basis)


def rotate(m: np.ndarray, basis: str, target: str) -> np.ndarray:
    """Raw 4x4 array ``m``, expressed in ``basis``, re-expressed in
    ``target``; no validation, so rotating a state already checked costs
    two matrix products and no eigenvalues."""
    if basis == target:
        return m
    u = COLLECTIVE_BASIS_MAP
    if target == COLLECTIVE:
        return u @ m @ u.conj().T
    return u.conj().T @ m @ u


def to_collective(rho: DensityMatrix) -> DensityMatrix:
    """Rotate a canonical-basis state into the collective basis."""
    return rho.in_basis(COLLECTIVE)


def from_collective(rho: DensityMatrix) -> DensityMatrix:
    """Rotate a collective-basis state back to the canonical basis."""
    return rho.in_basis(CANONICAL)


def as_matrix(rho, basis: str = CANONICAL) -> np.ndarray:
    """Raw 4x4 array view of ``rho`` in the requested basis.

    Plain arrays are trusted to already be expressed in ``basis``.
    """
    if isinstance(rho, DensityMatrix):
        return rotate(rho.matrix, rho.basis, basis)
    return np.asarray(rho, dtype=complex)


def fidelity_antisymmetric(rho) -> float:
    """Overlap <a| rho |a> with the antisymmetric state.

    Accepts a :class:`DensityMatrix` in either basis or a raw canonical
    4x4 array.  Computed as the (a, a) entry of the collective-basis view,
    so it agrees with :func:`to_collective` exactly.
    """
    if isinstance(rho, DensityMatrix):
        return float(as_matrix(rho, COLLECTIVE)[2, 2].real)
    return float(rotate(np.asarray(rho, dtype=complex), CANONICAL, COLLECTIVE)[2, 2].real)


def product_state_fidelity(phi: np.ndarray, psi: np.ndarray) -> float:
    """Antisymmetric-state fidelity of the product |phi> (x) |psi>.

    Single-qubit amplitudes are ordered (excited, ground).  Equals
    ``(1 - |<phi|psi>|^2) / 2`` and therefore never exceeds 1/2.
    """
    phi = np.asarray(phi, dtype=complex).reshape(2)
    psi = np.asarray(psi, dtype=complex).reshape(2)
    for name, v in (("phi", phi), ("psi", psi)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise NotNormalizedError(f"{name} is not normalized to 1 within 1e-12")
    overlap = np.vdot(phi, psi)
    return 0.5 * (1.0 - abs(overlap) ** 2)
