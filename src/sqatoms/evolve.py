"""Time evolution of the master equation and stationarity detection.

The generator is linear with constant coefficients, so the dynamics use
its exact propagator ``exp(dt L)`` (``scipy.linalg.expm``, the
scaling-and-squaring method of Al-Mohy & Higham, SIAM J. Matrix Anal.
Appl. 31, 970 (2009)) acting on the vectorized collective-basis matrix.
No eigendecomposition is used: the generator is non-normal and its kernel
is degenerate in the Dicke limit.  A sampled trajectory computes one
propagator per distinct time step; the relaxation toward stationarity
doubles its time chunks and squares the last propagator to get the next.
All times are in units of 1/gamma0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .model import (
    CANONICAL,
    COLLECTIVE,
    AtomParams,
    BathParams,
    DensityMatrix,
    as_matrix,
    rotate,
    validate,
)
from .liouvillian import build_generator


@dataclass(frozen=True)
class IntegratorConfig:
    """Relaxation knobs, in 1/gamma0 units where dimensional.  ``t_max``
    of None selects a heuristic horizon from the slowest relevant
    relaxation rate; ``stationarity_eps`` bounds the generator residual
    at which the state counts as stationary."""

    t_max: float | None = None
    stationarity_eps: float = 1e-10

    def __post_init__(self):
        if self.stationarity_eps <= 0.0:
            raise ValueError("stationarity_eps must be positive")
        if self.t_max is not None and self.t_max <= 0.0:
            raise ValueError("t_max must be positive")


@dataclass(frozen=True)
class IntegrationResult:
    """State at the requested time plus bookkeeping: the magnitude of the
    hermitization/renormalization applied on return and the number of
    propagator applications."""

    state: DensityMatrix
    correction: float
    steps: int


def _finalize(y_collective: np.ndarray, steps: int) -> IntegrationResult:
    y_collective = y_collective.reshape(4, 4)
    sym = (y_collective + y_collective.conj().T) / 2.0
    sym /= sym.trace().real
    correction = float(np.max(np.abs(sym - y_collective)))
    rho = DensityMatrix(rotate(sym, COLLECTIVE, CANONICAL), CANONICAL)
    return IntegrationResult(state=rho, correction=correction, steps=steps)


def integrate(rho0, bath: BathParams, atoms: AtomParams, t: float) -> IntegrationResult:
    """Propagate a state for a fixed time with one application of exp(t L).

    Parameters
    ----------
    rho0 : DensityMatrix or (4, 4) array
        Initial state; raw arrays are taken in the canonical basis.
    bath, atoms : BathParams, AtomParams
        Reservoir and atom-pair parameters.
    t : float
        Duration in units of 1/gamma0.

    Returns
    -------
    IntegrationResult
        Final state (re-hermitized and trace-renormalized, with the
        applied correction magnitude) and the propagator application count.
    """
    gen = build_generator(bath, atoms, COLLECTIVE).matrix
    if t < 0.0:
        raise ValueError("integration time must be >= 0")
    return _finalize(expm(t * gen) @ _to_collective_vector(rho0), 1)


def trajectory(rho0, bath: BathParams, atoms: AtomParams, times) -> list[DensityMatrix]:
    """States sampled at the given (sorted, nonnegative) times.

    Each gap between samples is bridged by exp(dt L), computed once per
    distinct gap.  Gaps equal to within 1e-12 relative (``np.linspace``
    gaps differ in their last bits) count as one, so a uniform grid costs
    one ``expm`` call plus one 16x16 matrix-vector product per sample.
    """
    gen = build_generator(bath, atoms, COLLECTIVE).matrix
    y = _to_collective_vector(rho0)
    times = np.asarray(times, dtype=float)
    gaps = np.diff(times, prepend=0.0)
    if (gaps < 0.0).any():
        raise ValueError("sample times must be nondecreasing")
    inner = gaps[1:]
    if inner.size and np.ptp(inner) <= 1e-12 * inner.max():
        inner[:] = (times[-1] - times[0]) / inner.size
    propagators: dict[float, np.ndarray] = {}
    out = []
    for dt in gaps.tolist():
        if dt > 0.0:
            prop = propagators.get(dt)
            if prop is None:
                prop = propagators[dt] = expm(dt * gen)
            y = prop @ y
        out.append(_finalize(y, 0).state)
    return out


def propagate_expm(rho0, bath: BathParams, atoms: AtomParams, t: float) -> DensityMatrix:
    """Exact propagation exp(t L) over the vectorized generator."""
    validate(bath, atoms)
    gen = build_generator(bath, atoms, CANONICAL)
    v = as_matrix(rho0, CANONICAL).reshape(16)
    y = (expm(t * gen.matrix) @ v).reshape(4, 4)
    y = (y + y.conj().T) / 2.0
    return DensityMatrix(y / y.trace().real, CANONICAL)


def default_t_max(bath: BathParams, atoms: AtomParams) -> float:
    """Horizon heuristic: fifty times the slowest relaxation time.

    The slowest rate is read off the generator spectrum rather than from
    the reduced rate (1 - gamma_hat)(1 + 2N) alone: close to resonant
    minimum-uncertainty squeezing a nearly dark mode relaxes far more
    slowly than that, and in the Dicke limit the reduced-rate channel is
    absent altogether.  Purely oscillatory modes (vanishing real part) are
    ignored; they never relax, which the stationarity loop reports as
    non-convergence instead.
    """
    gen = build_generator(bath, atoms, CANONICAL)
    rates = -np.linalg.eigvals(gen.matrix).real
    decaying = rates[rates > 1e-9]
    if decaying.size == 0:
        return 50.0
    return min(50.0 / float(decaying.min()), 1e6)


@dataclass(frozen=True)
class StationaryResult:
    """Outcome of relaxing toward stationarity.  ``converged`` is False when
    the horizon was reached first; the best state reached is still
    returned, with its generator residual.  ``steps`` counts propagator
    applications (one per time chunk)."""

    state: DensityMatrix
    time: float
    converged: bool
    residual: float
    steps: int


def evolve_to_stationary(rho0, bath: BathParams, atoms: AtomParams,
                         cfg: IntegratorConfig | None = None) -> StationaryResult:
    """Relax until the generator residual |L rho|_1 drops below
    ``cfg.stationarity_eps`` (entrywise 1-norm), or the horizon is hit.

    Time advances in chunks of 1, 2, 4, ... (capped at an eighth of the
    horizon and at the time left), so the state is tested at t = 1, 3,
    7, ...; each doubled chunk's propagator is the square of the last.
    """
    cfg = cfg or IntegratorConfig()
    t_max = cfg.t_max if cfg.t_max is not None else default_t_max(bath, atoms)
    gen = build_generator(bath, atoms, COLLECTIVE).matrix
    y = _to_collective_vector(rho0)
    t = 0.0
    steps = 0
    chunk = min(1.0, t_max)
    prop, prop_chunk = None, 0.0
    residual = float(np.abs(gen @ y).sum())
    while residual > cfg.stationarity_eps and t < t_max:
        chunk = min(chunk, t_max - t)
        if chunk == 2.0 * prop_chunk:
            prop = prop @ prop
        elif chunk != prop_chunk:
            prop = expm(chunk * gen)
        prop_chunk = chunk
        y = prop @ y
        t += chunk
        steps += 1
        chunk = min(2.0 * chunk, max(1.0, t_max / 8.0))
        residual = float(np.abs(gen @ y).sum())
    final = _finalize(y, steps)
    return StationaryResult(
        state=final.state,
        time=t,
        converged=residual <= cfg.stationarity_eps,
        residual=residual,
        steps=steps,
    )


def _to_collective_vector(rho) -> np.ndarray:
    """Row-major vectorized collective-basis matrix of a state."""
    if not isinstance(rho, DensityMatrix):
        # raw arrays are taken as canonical, and validated once here
        rho = DensityMatrix(np.asarray(rho, dtype=complex), CANONICAL)
    return as_matrix(rho, COLLECTIVE).reshape(16)
