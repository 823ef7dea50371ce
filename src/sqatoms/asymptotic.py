"""Closed-form asymptotic states and their mixture structure.

For spatially separated atoms (gamma_hat < 1) there is a unique stationary
state; in the Dicke limit (gamma_hat = 1) the antisymmetric population is
conserved and the stationary states form a one-parameter family indexed by
the fidelity F with respect to |a>.  Both are X-form matrices in the
canonical basis, assembled here from polynomial coefficients in N, |M|^2
and the normalized detuning.  The coefficient sets were obtained by
solving the stationarity conditions of the generator symbolically; the
test suite re-checks stationarity numerically against the assembled
16x16 generator.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    CANONICAL,
    AtomParams,
    BathParams,
    DensityMatrix,
    FidelityRangeError,
    RegimeError,
    as_scalar,
    validate,
)


class SeparatedCoefficients(NamedTuple):
    """Unnormalized X-state entries of the unique stationary state:
    populations (a, 2c, d)/u, inner coherence b/u, outer coherence z/u;
    u = a + 2c + d.  Fields are arrays where the parameters are."""

    u: float
    a: float
    c: float
    d: float
    b: float
    z: complex


class DickeCoefficients(NamedTuple):
    """Unnormalized F-independent part of the Dicke stationary family;
    u = a + c + d.  Fields are arrays where the parameters are."""

    u: float
    a: float
    c: float
    d: float
    z: complex


def squeeze_deficit(bath: BathParams):
    """beta = N(N+1) - |M|^2, the distance from minimum uncertainty.

    Exactly 0 where |M| reaches the bound (the validated tolerance above
    it included), and never negative.  The coefficient sets are written
    in beta rather than in N(N+1) and |M|^2 separately: near the bound
    those differ by O(1) while each is O(N^2), and the difference would
    lose about 2 log10(N) digits (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 1).
    """
    n, m = bath.n_mean, bath.m_abs
    on_bound = np.greater_equal(m, bath.m_bound)
    return np.where(on_bound, 0.0, np.maximum(n * (n + 1.0) - m * m, 0.0))


def _outer_coherence(bath: BathParams, atoms: AtomParams, scale: float):
    """z = -(1 + 2N - 2i delta) scale M, multiplied out in real arithmetic:
    numpy's complex product on arrays can round differently from Python's
    on scalars, and array scans must reproduce their scalar calls."""
    w = 1.0 + 2.0 * bath.n_mean
    two_delta = 2.0 * atoms.delta
    mr = scale * bath.m_abs * math.cos(bath.m_phase)
    mi = scale * bath.m_abs * math.sin(bath.m_phase)
    return -(w * mr + two_delta * mi) - 1j * (w * mi - two_delta * mr)


def unique_asymptotic_coefficients(bath: BathParams, atoms: AtomParams) -> SeparatedCoefficients:
    """Coefficient set of the unique stationary state for gamma_hat < 1.

    N, |M| and the detuning may be numpy arrays (broadcast together);
    scalar parameters give float fields.
    """
    n = bath.n_mean
    mm = bath.m_abs**2
    gh = atoms.gamma_hat
    # (1+2N)^2 - 4|M|^2 + 4 delta^2, with (1+2N)^2 = 1 + 4N(N+1)
    core = 1.0 + 4.0 * squeeze_deficit(bath) + 4.0 * atoms.delta**2
    a = n * n * core + mm * gh * gh
    c = n * (n + 1.0) * core + mm * gh * gh
    d = (1.0 + n) ** 2 * core + mm * gh * gh
    b = -2.0 * gh * mm
    z = _outer_coherence(bath, atoms, gh)
    return SeparatedCoefficients(*map(as_scalar, (a + 2.0 * c + d, a, c, d, b, z)))


def dicke_asymptotic_coefficients(bath: BathParams, atoms: AtomParams) -> DickeCoefficients:
    """Coefficient set of the Dicke-limit stationary family.

    The detuning term of c carries the factor 4N(N+1), and d mirrors a
    under N -> N+1; both are fixed by stationarity under the generator
    and by the trace identity a + c + d = u.  N, |M| and the detuning may
    be numpy arrays (broadcast together); scalar parameters give float
    fields.
    """
    n = bath.n_mean
    mm = bath.m_abs**2
    d2 = atoms.delta**2
    w = 1.0 + 2.0 * n
    beta = squeeze_deficit(bath)
    a = 4.0 * n * n * beta + mm + n * n * (1.0 + 4.0 * d2)
    c = w * w * beta + 4.0 * n * (n + 1.0) * d2
    d = 4.0 * (1.0 + n) ** 2 * beta + mm + (1.0 + n) ** 2 * (1.0 + 4.0 * d2)
    z = _outer_coherence(bath, atoms, 1.0)
    return DickeCoefficients(*map(as_scalar, (a + c + d, a, c, d, z)))


def _xstate(p11: float, p22: float, p23: complex, p14: complex, p44: float) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = p11
    rho[1, 1] = rho[2, 2] = p22
    rho[1, 2] = p23
    rho[2, 1] = np.conj(p23)
    rho[0, 3] = p14
    rho[3, 0] = np.conj(p14)
    rho[3, 3] = p44
    return rho


def unique_asymptotic(bath: BathParams, atoms: AtomParams) -> DensityMatrix:
    """Unique stationary state of spatially separated atoms (gamma_hat < 1).

    Canonical-basis X state with populations a/u, c/u, c/u, d/u,
    inner coherence b/u and outer coherence z/u.
    """
    validate(bath, atoms)
    if atoms.gamma_hat >= 1.0:
        raise RegimeError("unique asymptotic state requires gamma_hat < 1 (separated atoms)")
    u, a, c, d, b, z = unique_asymptotic_coefficients(bath, atoms)
    return DensityMatrix(_xstate(a / u, c / u, b / u, z / u, d / u), CANONICAL)


def dicke_asymptotic(bath: BathParams, atoms: AtomParams, fidelity: float) -> DensityMatrix:
    """Stationary state in the Dicke limit for initial fidelity F.

    The antisymmetric population stays at F; the rest of the X block
    relaxes to the (1-F)-weighted coefficient state.
    """
    validate(bath, atoms)
    if atoms.gamma_hat != 1.0:
        raise RegimeError("Dicke asymptotic family requires gamma_hat = 1")
    if not 0.0 <= fidelity <= 1.0:
        raise FidelityRangeError(f"fidelity must lie in [0, 1], got {fidelity}")
    u, a, c, d, z = dicke_asymptotic_coefficients(bath, atoms)
    f = fidelity
    r = (1.0 - f) / u
    return DensityMatrix(
        _xstate(r * a, r * c / 2.0 + f / 2.0, r * c / 2.0 - f / 2.0, r * z, r * d),
        CANONICAL,
    )


def two_atom_squeezed_state(n_mean: float, theta: float = 0.0) -> np.ndarray:
    """Pure two-atom squeezed state, canonical amplitudes.

    Carries weight (1+N)/(1+2N) on |00> and N/(1+2N) on |11> (phase theta
    on the doubly excited component), so that its excited-state population
    matches the zero-fidelity stationary state it represents.  At N = 0 it
    reduces to the ground state; for N -> infinity it approaches a
    maximally entangled superposition of |00> and |11>.
    """
    if n_mean < 0.0:
        raise ValueError(f"n_mean must be >= 0, got {n_mean}")
    w = 1.0 + 2.0 * n_mean
    vec = np.zeros(4, dtype=complex)
    vec[3] = math.sqrt((1.0 + n_mean) / w)
    vec[0] = cmath.exp(1j * theta) * math.sqrt(n_mean / w)
    return vec


def squeeze_parameter(n_mean: float, theta: float = 0.0) -> complex:
    """Complex xi with S(xi)|00> equal to the two-atom squeezed state."""
    r = math.asin(math.sqrt(n_mean / (1.0 + 2.0 * n_mean)))
    return r * cmath.exp(1j * (theta + math.pi))


def atomic_squeeze_unitary(xi: complex) -> np.ndarray:
    """Two-atom squeezing transformation exp(conj(xi) s-s- - xi s+s+).

    Acts nontrivially only on span{|11>, |00>}; the generator restricted
    to that block squares to -|xi|^2, so the exponential closes in
    sine/cosine form.
    """
    r = abs(xi)
    s = np.eye(4, dtype=complex)
    if r == 0.0:
        return s
    phase = xi / r
    s[0, 0] = s[3, 3] = math.cos(r)
    s[0, 3] = -phase * math.sin(r)
    s[3, 0] = np.conj(phase) * math.sin(r)
    return s


def critical_fidelity(bath: BathParams, atoms: AtomParams) -> float:
    """Smallest fidelity for which the Gibbs-mixture form of the Dicke
    stationary state exists: c / (c + u)."""
    validate(bath, atoms)
    if atoms.gamma_hat != 1.0:
        raise RegimeError("critical fidelity is defined in the Dicke limit (gamma_hat = 1)")
    u, _, c, _, _ = dicke_asymptotic_coefficients(bath, atoms)
    return c / (c + u)


class BelowCriticalError(ValueError):
    """Requested mixture decomposition below the critical fidelity."""

    def __init__(self, fidelity: float, f_cr: float):
        super().__init__(
            f"fidelity {fidelity} lies below the critical fidelity {f_cr}; "
            "the Gibbs-mixture form does not exist there"
        )
        self.fidelity = fidelity
        self.f_cr = f_cr


@dataclass(frozen=True)
class MixtureDecomposition:
    """Dicke stationary state as (1-p-q) rho_beta + p |a><a| + q |psi><psi|.

    ``beta_omega`` and ``beta_omega1`` are the dimensionless Boltzmann
    exponents of the Gibbs part (NaN where the logarithmic construction
    degenerates; ``degenerate_gibbs`` flags that case).  ``psi`` holds the
    canonical amplitudes of the pure symmetric component.
    """

    p: float
    q: float
    gibbs: DensityMatrix
    psi: np.ndarray
    beta_omega: float
    beta_omega1: float
    degenerate_gibbs: bool = False

    @property
    def gibbs_weight(self) -> float:
        return 1.0 - self.p - self.q

    def reconstruction(self) -> DensityMatrix:
        """Re-assemble the mixture into a density matrix."""
        proj_a = np.zeros((4, 4), dtype=complex)
        proj_a[1, 1] = proj_a[2, 2] = 0.5
        proj_a[1, 2] = proj_a[2, 1] = -0.5
        rho = (
            self.gibbs_weight * self.gibbs.matrix
            + self.p * proj_a
            + self.q * np.outer(self.psi, self.psi.conj())
        )
        return DensityMatrix(rho, CANONICAL)


def decompose(bath: BathParams, atoms: AtomParams, fidelity: float) -> MixtureDecomposition:
    """Gibbs + antisymmetric + pure-symmetric mixture of the Dicke state.

    The Gibbs part is built directly from the Boltzmann weights
    (a s, c t, c t, d s) with s = sqrt(ad) - |z| and t = sqrt(ad), which
    stays finite where the logarithmic (beta, omega_1) construction is
    singular; those exponents are still reported whenever well defined.

    Parameters
    ----------
    bath, atoms : BathParams, AtomParams
        Reservoir and atom-pair parameters; the Dicke limit is required.
    fidelity : float
        Antisymmetric-state population of the target stationary state.
        Must not be below :func:`critical_fidelity`, the mixture does
        not exist there.

    Returns
    -------
    MixtureDecomposition
        Weights p, q, the Gibbs state, the pure symmetric component and
        the Boltzmann exponents; ``reconstruction()`` re-assembles the
        stationary state.
    """
    validate(bath, atoms)
    if atoms.gamma_hat != 1.0:
        raise RegimeError("mixture decomposition is defined in the Dicke limit (gamma_hat = 1)")
    if not 0.0 <= fidelity <= 1.0:
        raise FidelityRangeError(f"fidelity must lie in [0, 1], got {fidelity}")
    u, a, c, d, z = dicke_asymptotic_coefficients(bath, atoms)
    f_cr = c / (c + u)
    if fidelity < f_cr - 1e-14:
        raise BelowCriticalError(fidelity, f_cr)

    zabs = abs(z)
    root_ad = math.sqrt(a * d)
    p = (1.0 + c / u) * fidelity - c / u
    q = 0.0 if zabs == 0.0 else zabs * (a + d) * (1.0 - fidelity) / (u * root_ad)

    phi = cmath.phase(z) if zabs > 0.0 else 0.0
    psi = np.zeros(4, dtype=complex)
    psi[3] = math.sqrt(d / (a + d))
    psi[0] = cmath.exp(1j * phi) * math.sqrt(a / (a + d))

    s = root_ad - zabs
    weights = np.array([a * s, c * root_ad, c * root_ad, d * s])
    norm = weights.sum()
    if norm > 1e-13 * max(u, 1.0):
        gibbs = DensityMatrix(np.diag(weights / norm).astype(complex), CANONICAL)
    else:
        # zero-weight Gibbs part (vacuum or resonant minimum uncertainty)
        gibbs = DensityMatrix(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex), CANONICAL)

    degenerate = (
        a <= 0.0
        or d <= 0.0
        or abs(d - a) < 1e-12 * max(a, d)
        or s < 1e-12 * max(root_ad, 1.0)
        or c <= 0.0
    )
    if degenerate:
        beta_omega = 0.5 * math.log(d / a) if a > 0.0 and d > 0.0 else math.nan
        beta_omega1 = math.nan
    else:
        beta_omega = 0.5 * math.log(d / a)
        beta_omega1 = math.log(c / s)
    return MixtureDecomposition(
        p=p,
        q=q,
        gibbs=gibbs,
        psi=psi,
        beta_omega=beta_omega,
        beta_omega1=beta_omega1,
        degenerate_gibbs=degenerate,
    )
