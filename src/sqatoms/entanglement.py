"""Concurrence of two-qubit states and of the asymptotic states.

The general Wootters concurrence is evaluated through the Hermitian
product sqrt(rho) rho_tilde sqrt(rho), whose spectrum equals that of
rho rho_tilde but is numerically well behaved.  X-form states admit the
usual two-branch closed formula, which doubles as an independent oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CANONICAL,
    AtomParams,
    BathParams,
    FidelityRangeError,
    RegimeError,
    as_matrix,
    as_scalar,
    first_violation,
    validate,
)
from .asymptotic import (
    dicke_asymptotic_coefficients,
    unique_asymptotic_coefficients,
)

_SIG_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SIG_Y, _SIG_Y)


class NotXFormError(ValueError):
    """Matrix has entries off the diagonal and anti-diagonal."""


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    Works with the Hermitian-equivalent form of the spin-flipped product:
    the square roots of the eigenvalues of rho rho_tilde equal the singular
    values of A = sqrt(rho) (sy x sy) conj(sqrt(rho)), since A A^dag =
    sqrt(rho) rho_tilde sqrt(rho).  The SVD route keeps full precision for
    rank-deficient states, where squaring would cost half the digits.
    Tiny negative eigenvalues of rho itself are clipped before the root.

    Parameters
    ----------
    rho : DensityMatrix or (4, 4) array
        Two-qubit state; raw arrays are taken in the canonical product
        basis (the measure is basis-dependent).

    Returns
    -------
    float
        Concurrence in [0, 1]; 0 for separable states, 1 for maximally
        entangled ones.
    """
    m = as_matrix(rho, CANONICAL)
    evals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    a = root @ _YY @ root.conj()
    sig = np.linalg.svd(a, compute_uv=False)
    return max(0.0, sig[0] - sig[1] - sig[2] - sig[3])


def concurrence_x(rho, off_x_tol: float = 1e-12) -> float:
    """Closed-form concurrence for X-form states.

    max(0, C1, C2) with C1 = 2(|rho14| - sqrt(rho22 rho33)) and
    C2 = 2(|rho23| - sqrt(rho11 rho44)).
    """
    m = as_matrix(rho, CANONICAL)
    mask = np.ones((4, 4), dtype=bool)
    mask[np.arange(4), np.arange(4)] = False
    mask[np.arange(4), 3 - np.arange(4)] = False
    worst = float(np.max(np.abs(m[mask])))
    if worst > off_x_tol:
        raise NotXFormError(f"off-X entries up to {worst:.3e} exceed tolerance {off_x_tol:.1e}")
    p11, p22, p33, p44 = (max(m[i, i].real, 0.0) for i in range(4))
    c1 = 2.0 * (abs(m[0, 3]) - math.sqrt(p22 * p33))
    c2 = 2.0 * (abs(m[1, 2]) - math.sqrt(p11 * p44))
    return max(0.0, c1, c2)


def _modulus(z):
    """|z| as hypot(re, im): numpy's complex absolute value on arrays can
    differ from the scalar one in the last bit, np.hypot does not, so an
    array scan reproduces its scalar calls exactly."""
    return np.hypot(z.real, z.imag)


def _positive_part(x):
    """max(0, x) elementwise, as +0.0 wherever x <= 0 (np.maximum would
    keep a -0.0, which the CSV writer prints as "-0")."""
    return as_scalar(np.where(x > 0.0, x, 0.0))


def concurrence_unique(bath: BathParams, atoms: AtomParams) -> float:
    """Concurrence of the unique stationary state (gamma_hat < 1), from its
    coefficient set: 2 max(0, (|z|-c)/u, (|b|-sqrt(ad))/u).

    N, |M| and the detuning may be numpy arrays; the result then has
    their broadcast shape, and a float for scalar parameters.
    """
    validate(bath, atoms)
    if atoms.gamma_hat >= 1.0:
        raise RegimeError("unique-state concurrence requires gamma_hat < 1")
    u, a, c, d, b, z = unique_asymptotic_coefficients(bath, atoms)
    return _positive_part(2.0 * np.maximum(_modulus(z) - c, np.abs(b) - np.sqrt(a * d)) / u)


@dataclass(frozen=True)
class Thresholds:
    """Fidelity thresholds of the Dicke stationary family: the mixture
    threshold f_cr and the boundaries f1 <= f2 of the separable window."""

    f_cr: float
    f1: float
    f2: float


def thresholds(bath: BathParams, atoms: AtomParams) -> Thresholds:
    """Critical fidelity and the entanglement thresholds F1, F2.

    The stationary state is entangled on [0, F1) and (F2, 1] and separable
    on [F1, F2]; F1 = 0 for a thermal bath and F2 = 0 in vacuum.
    """
    validate(bath, atoms)
    if atoms.gamma_hat != 1.0:
        raise RegimeError("fidelity thresholds are defined in the Dicke limit (gamma_hat = 1)")
    u, a, c, d, z = dicke_asymptotic_coefficients(bath, atoms)
    f_cr = c / (c + u)
    lead = c - 2.0 * abs(z)
    f1 = max(0.0, lead / (lead - u))
    tail = c + 2.0 * math.sqrt(a * d)
    f2 = tail / (tail + u)
    return Thresholds(f_cr=f_cr, f1=f1, f2=f2)


def asymptotic_concurrence(bath: BathParams, atoms: AtomParams, fidelity: float) -> float:
    """Concurrence of the Dicke stationary state at the given fidelity.

    Evaluates the X-form branches on the closed-form matrix elements, so
    the result is exact for every F: affine and positive below F1, zero on
    [F1, F2], affine and rising to 1 above F2.  N, |M|, the detuning and F
    may be numpy arrays; the result then has their broadcast shape, and a
    float for scalar arguments.
    """
    validate(bath, atoms)
    if atoms.gamma_hat != 1.0:
        raise RegimeError("asymptotic concurrence of the family requires gamma_hat = 1")
    f = fidelity
    if hit := first_violation(np.logical_not((f >= 0.0) & (f <= 1.0)), f):
        raise FidelityRangeError(f"fidelity must lie in [0, 1], got {hit[0]}")
    u, a, c, d, z = dicke_asymptotic_coefficients(bath, atoms)
    r = (1.0 - f) / u
    c1 = 2.0 * (r * _modulus(z) - (r * c / 2.0 + f / 2.0))
    c2 = 2.0 * (np.abs(r * c / 2.0 - f / 2.0) - r * np.sqrt(a * d))
    return _positive_part(np.maximum(c1, c2))


def resonant_min_uncertainty_profile(n_mean: float, fidelity: float) -> float:
    """Concurrence versus fidelity at zero detuning and minimum-uncertainty
    squeezing: two affine branches meeting at the single zero F1.

    The zero-fidelity value is c0 = 2 sqrt(N(N+1)) / (1+2N), approaching 1
    in the limit of maximal squeezing.
    """
    if n_mean < 0.0:
        raise ValueError(f"n_mean must be >= 0, got {n_mean}")
    if not 0.0 <= fidelity <= 1.0:
        raise FidelityRangeError(f"fidelity must lie in [0, 1], got {fidelity}")
    c0 = 2.0 * math.sqrt(n_mean * (n_mean + 1.0)) / (1.0 + 2.0 * n_mean)
    f1 = c0 / (1.0 + c0)
    if fidelity < f1:
        return -(1.0 + c0) * fidelity + c0
    return (1.0 + c0) * fidelity - c0
