"""Rotating-frame Lindblad generator of the atom pair.

Two independent routes to the same map are provided:

* :func:`build_generator` assembles the 16x16 superoperator as a weighted
  sum of ten constant superoperators.  The generator is affine in the
  detuning, the dipole-dipole coupling, 1 + N, N, M and conj(M), with the
  collective damping ratio multiplying the cross-atom terms; the constant
  parts are built once at import from the raising/lowering operator
  algebra with ``vec(A X B) = (A kron B^T) vec(X)``.  The dynamics in
  :mod:`sqatoms.evolve` run on this matrix.
* :func:`rhs_collective` evaluates the hand-derived closed equations of
  motion for the collective-basis matrix elements.  It is the reference
  that pins the generator and is not on the dynamics path.

The two must agree entrywise; the test suite enforces this, which also
pins down the coefficient set of the collective equations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    CANONICAL,
    COLLECTIVE,
    COLLECTIVE_BASIS_MAP,
    AtomParams,
    BathParams,
    DensityMatrix,
    as_matrix,
    validate,
)

# single-qubit operators in the (excited, ground) ordering
_SIG_P = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_SIG_M = _SIG_P.T.conj()
_SIG_3 = np.diag([1.0, -1.0]).astype(complex)
_ID2 = np.eye(2, dtype=complex)
_ID4 = np.eye(4, dtype=complex)

SP_A = np.kron(_SIG_P, _ID2)
SM_A = np.kron(_SIG_M, _ID2)
S3_A = np.kron(_SIG_3, _ID2)
SP_B = np.kron(_ID2, _SIG_P)
SM_B = np.kron(_ID2, _SIG_M)
S3_B = np.kron(_ID2, _SIG_3)


def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of X -> a X b on row-major vectorized 4x4 matrices."""
    return np.kron(a, b.T)


def _commutator(h: np.ndarray) -> np.ndarray:
    """Superoperator of X -> -i [h, X]."""
    return -1j * (_sandwich(h, _ID4) - _sandwich(_ID4, h))


def _channel(first, second, same_atom: bool) -> np.ndarray:
    """Half the sum of 2 a X b - b a X - X b a over the atom pairs (j, k)
    with a = first[j], b = second[k], taking j = k or j != k."""
    out = np.zeros((16, 16), dtype=complex)
    for j in range(2):
        for k in range(2):
            if (j == k) != same_atom:
                continue
            a, b = first[j], second[k]
            ba = b @ a
            out += 0.5 * (2.0 * _sandwich(a, b) - _sandwich(ba, _ID4) - _sandwich(_ID4, ba))
    return out


def _constant_terms() -> np.ndarray:
    """The ten constant superoperators, in the order of :func:`_weights`."""
    lower, raise_ = (SM_A, SM_B), (SP_A, SP_B)
    terms = [
        _commutator((S3_A + S3_B) / 2.0),
        _commutator(SP_A @ SM_B + SP_B @ SM_A),
    ]
    for first, second in ((lower, raise_), (raise_, lower), (raise_, raise_), (lower, lower)):
        terms += [_channel(first, second, True), _channel(first, second, False)]
    return np.array(terms)


def _weights(bath: BathParams, atoms: AtomParams) -> np.ndarray:
    """Coefficients of the ten constant superoperators (gamma0 = 1)."""
    n, m, g = bath.n_mean, bath.m, atoms.gamma_hat
    mc = m.conjugate()
    return np.array([atoms.delta, atoms.omega_ratio, 1.0 + n, g * (1.0 + n), n, g * n,
                     m, g * m, mc, g * mc])


# row-major vec: vec(U X U^dag) = (U kron conj(U)) vec(X)
_W = np.kron(COLLECTIVE_BASIS_MAP, COLLECTIVE_BASIS_MAP.conj())
_TERMS_CANONICAL = _constant_terms()
_TERMS = {
    CANONICAL: _TERMS_CANONICAL.reshape(10, 256),
    COLLECTIVE: (_W @ _TERMS_CANONICAL @ _W.conj().T).reshape(10, 256),
}
for _t in _TERMS.values():
    _t.setflags(write=False)


@dataclass(frozen=True)
class Superoperator:
    """16x16 matrix acting on row-major vectorized 4x4 density matrices."""

    matrix: np.ndarray
    basis: str = CANONICAL

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (16, 16):
            raise ValueError(f"superoperator must be 16x16, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, rho) -> np.ndarray:
        """d(rho)/dt for a 4x4 matrix (or DensityMatrix) in this basis."""
        m = as_matrix(rho, self.basis)
        return (self.matrix @ m.reshape(16)).reshape(4, 4)

    def in_basis(self, basis: str) -> "Superoperator":
        if basis == self.basis:
            return self
        w = _W if basis == COLLECTIVE else _W.conj().T
        return Superoperator(w @ self.matrix @ w.conj().T, basis)


def _generator_matrix(bath: BathParams, atoms: AtomParams, basis: str = CANONICAL) -> np.ndarray:
    """Generator matrix in units of gamma0, without parameter validation."""
    if basis not in _TERMS:
        raise ValueError(f"unknown basis tag {basis!r}")
    return (_weights(bath, atoms) @ _TERMS[basis]).reshape(16, 16)


def build_generator(bath: BathParams, atoms: AtomParams, basis: str = CANONICAL) -> Superoperator:
    """Assemble the full generator as a superoperator matrix, in units of
    gamma0, in the requested basis."""
    validate(bath, atoms)
    return Superoperator(_generator_matrix(bath, atoms, basis), basis)


def make_collective_rhs(bath: BathParams, atoms: AtomParams):
    """Right-hand side d(rho)/dt in the collective basis, as a closure.

    This is the hand-derived reference for :func:`build_generator`; the
    dynamics do not call it.  It implements the closed blocks the
    equations of motion split into: the X block (populations and the e-g
    coherence), the two coherence blocks (e-s/s-g and e-a/a-g) and the
    isolated s-a coherence.  Rates are in units of gamma0;
    ``atoms.gamma0`` only fixes the time unit.
    """
    validate(bath, atoms)
    n = bath.n_mean
    m = bath.m
    mc = np.conj(m)
    g = atoms.gamma_hat
    dl = atoms.delta
    om = atoms.omega_ratio

    gp = 1.0 + g          # enhanced rate (gamma0 + gamma)
    gm = 1.0 - g          # reduced rate (gamma0 - gamma)
    n1 = 1.0 + n

    # damping constants of the one-excitation coherence blocks
    k_es = -(g * (n + 0.5) + (2.0 * n + 1.5)) + 1j * (om - dl)
    k_ea = (g * (n + 0.5) - (2.0 * n + 1.5)) - 1j * (om + dl)
    k_sg = -(g * (n + 0.5) + (2.0 * n + 0.5)) - 1j * (om + dl)
    k_ag = (g * (n + 0.5) - (2.0 * n + 0.5)) - 1j * (dl - om)
    k_eg = -(1.0 + 2.0 * n) - 2j * dl
    k_as = -(1.0 + 2.0 * n) + 2j * om

    def rhs(rho: np.ndarray) -> np.ndarray:
        ee, es, ea, eg = rho[0]
        se, ss, sa, sg = rho[1]
        ae, as_, aa, ag = rho[2]
        ge, gs, ga, gg = rho[3]

        out = np.empty((4, 4), dtype=complex)
        pump = mc * eg + m * ge
        # X block: populations and the e-g coherence
        out[0, 0] = -2.0 * n1 * ee + n * gp * ss + n * gm * aa - g * pump
        out[1, 1] = gp * (n1 * ee + n * gg - (1.0 + 2.0 * n) * ss + pump)
        out[2, 2] = gm * (n1 * ee + n * gg - (1.0 + 2.0 * n) * aa - pump)
        out[3, 3] = gm * n1 * aa + gp * n1 * ss - 2.0 * n * gg - g * pump
        out[0, 3] = m * (gp * ss - gm * aa - g * (ee + gg)) + k_eg * eg
        out[3, 0] = mc * (gp * ss - gm * aa - g * (ee + gg)) + np.conj(k_eg) * ge
        # symmetric one-excitation coherences
        out[0, 1] = k_es * es + m * gp * se + n * gp * sg - g * m * gs
        out[1, 0] = np.conj(k_es) * se + mc * gp * es - g * mc * sg + n * gp * gs
        out[1, 3] = k_sg * sg + n1 * gp * es - g * m * se + m * gp * gs
        out[3, 1] = np.conj(k_sg) * gs + n1 * gp * se - g * mc * es + mc * gp * sg
        # antisymmetric one-excitation coherences
        out[0, 2] = k_ea * ea + m * gm * ae - n * gm * ag - g * m * ga
        out[2, 0] = np.conj(k_ea) * ae + mc * gm * ea - g * mc * ag - n * gm * ga
        out[2, 3] = k_ag * ag - n1 * gm * ea - g * m * ae + m * gm * ga
        out[3, 2] = np.conj(k_ag) * ga - n1 * gm * ae - g * mc * ea + mc * gm * ag
        # isolated s-a coherence
        out[1, 2] = np.conj(k_as) * sa
        out[2, 1] = k_as * as_
        return out

    return rhs


def rhs_collective(rho, bath: BathParams, atoms: AtomParams) -> np.ndarray:
    """d(rho)/dt for a collective-basis matrix, via the closed ODE blocks."""
    return make_collective_rhs(bath, atoms)(as_matrix(rho, COLLECTIVE))


@dataclass(frozen=True)
class NullspaceResult:
    """Stationary subspace of a generator.

    ``states`` holds the physical stationary states that could be
    extracted: the unique one when the kernel is one-dimensional, the
    fidelity-0 and fidelity-1 endpoints of the affine family when it is
    two-dimensional.  ``hermitian_basis`` spans the kernel regardless.
    """

    dimension: int
    states: list = field(default_factory=list)
    hermitian_basis: list = field(default_factory=list)
    singular_values: np.ndarray | None = None
    ill_conditioned: bool = False
    basis: str = CANONICAL


def stationary_space(gen: Superoperator, rtol: float = 1e-10) -> NullspaceResult:
    """Kernel of the generator via SVD, with physical state extraction.

    Singular values below ``rtol`` times the largest one count as zero.
    ``ill_conditioned`` is set (not fatal) when the smallest retained
    singular value comes within a factor 1e3 of the cut.
    """
    _, svals, vh = np.linalg.svd(gen.matrix)
    cut = rtol * svals[0]
    null_mask = svals < cut
    dim = int(null_mask.sum())
    retained = svals[~null_mask]
    ill = bool(retained.size and retained[-1] < 1e3 * cut)

    herm = _hermitian_kernel_basis(vh[len(svals) - dim:].conj())
    states = _physical_states(herm, gen.basis)
    return NullspaceResult(
        dimension=dim,
        states=states,
        hermitian_basis=herm,
        singular_values=svals,
        ill_conditioned=ill,
        basis=gen.basis,
    )


def _hermitian_kernel_basis(vecs: np.ndarray) -> list:
    """Orthonormal Hermitian basis of the span of vectorized kernel vectors.

    The kernel of a Lindblad generator is closed under the adjoint, so the
    Hermitian/anti-Hermitian parts of its elements span it over the reals.
    """
    if vecs.size == 0:
        return []
    candidates = []
    for v in vecs:
        x = v.reshape(4, 4)
        candidates.append((x + x.conj().T) / 2.0)
        candidates.append((x - x.conj().T) / 2j)
    target = vecs.shape[0]
    basis: list[np.ndarray] = []
    for c in candidates:
        w = c.copy()
        for b in basis:
            w -= np.trace(b.conj().T @ w) * b
        nrm = np.linalg.norm(w)
        if nrm > 1e-8:
            basis.append(w / nrm)
        if len(basis) == target:
            break
    return basis


def _physical_states(herm: list, basis_tag: str) -> list:
    """Unit-trace PSD representatives of the kernel, when extractable."""
    if not herm:
        return []
    a_vec = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    if basis_tag == CANONICAL:
        a_vec = COLLECTIVE_BASIS_MAP.conj().T @ a_vec

    def cleanup(x):
        x = (x + x.conj().T) / 2.0
        return DensityMatrix(x / x.trace().real, basis_tag)

    if len(herm) == 1:
        x = herm[0]
        if abs(x.trace()) < 1e-12:
            return []
        return [cleanup(x)]
    if len(herm) == 2:
        h1, h2 = herm
        if abs(h2.trace()) > abs(h1.trace()):
            h1, h2 = h2, h1
        if abs(h1.trace()) < 1e-12:
            return []
        g1 = h1 / h1.trace().real
        g2 = h2 - h2.trace().real * g1
        f1 = float((a_vec.conj() @ g1 @ a_vec).real)
        f2 = float((a_vec.conj() @ g2 @ a_vec).real)
        if abs(f2) < 1e-12:
            return []
        out = []
        for target in (0.0, 1.0):
            t = (target - f1) / f2
            out.append(cleanup(g1 + t * g2))
        return out
    return []
