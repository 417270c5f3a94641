"""Composite Hilbert space of one qubit and truncated oscillator modes.

Truncation sizes, single-mode operator matrices and quadrature
eigenbases, the 2x2 Pauli matrices, and coherent and Fock states.
Operators on the full space are never built here: the propagators take
them as sums of products A (x) B (A on qubit (x) mode x, B on mode y).

Conventions, fixed once and used everywhere:

* spin basis ordering is (|+z>, |-z>), so sigma_z = diag(+1, -1);
* tensor order is qubit (x) mode-x (x) mode-y;
* quadratures are x = (a + a^dag)/sqrt(2) and p = i(a^dag - a)/sqrt(2),
  so a coherent state |alpha> has <x> = sqrt(2) Re(alpha) and
  <p> = sqrt(2) Im(alpha).

All values are immutable after construction; matrices and states can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, TruncationError

SPIN_LABELS = ("plus_z", "minus_z", "plus_x", "minus_x")

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_SPIN_VECS = {
    "plus_z": np.array([1, 0], dtype=complex),
    "minus_z": np.array([0, 1], dtype=complex),
    "plus_x": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "minus_x": np.array([1, -1], dtype=complex) / np.sqrt(2),
}


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Read-only view; copies first unless the array is already frozen."""
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpaceSpec:
    """Truncation sizes of the two oscillator modes.

    The composite dimension is 2 * (n_max_x + 1) * (n_max_y + 1).  With
    n_max_y = 0 mode y keeps one level, and the space is the qubit plus the
    single mode x of the cyclotron frame (`model.cyclotron_frame_state`):
    basis index s (n_max_x + 1) + n_x.
    """

    n_max_x: int = 15
    n_max_y: int = 15

    def __post_init__(self):
        if self.n_max_x < 1 or self.n_max_y < 0:
            raise DomainError("truncations must satisfy n_max_x >= 1 and n_max_y >= 0")

    @property
    def modes(self) -> tuple[str, ...]:
        return ("x", "y")

    @property
    def mode_dims(self) -> tuple[int, ...]:
        return (self.n_max_x + 1, self.n_max_y + 1)

    @property
    def dim(self) -> int:
        return 2 * (self.n_max_x + 1) * (self.n_max_y + 1)


@dataclass(frozen=True, eq=False)
class QState:
    """Pure state vector or density matrix on a composite space."""

    kind: str  # "pure" | "mixed"
    data: np.ndarray
    space: SpaceSpec

    def __post_init__(self):
        d = self.space.dim
        arr = np.asarray(self.data, dtype=complex)
        if self.kind == "pure":
            if arr.shape != (d,):
                raise DomainError(f"pure state must be a vector of length {d}")
            norm = np.linalg.norm(arr)
            if not abs(norm - 1.0) <= 1e-9:
                raise DomainError(f"pure state norm {norm} deviates from 1")
        elif self.kind == "mixed":
            if arr.shape != (d, d):
                raise DomainError(f"density matrix must be {d}x{d}")
            tr = np.trace(arr)
            if not abs(tr - 1.0) <= 1e-9:
                raise DomainError(f"density matrix trace {tr} deviates from 1")
            if not np.abs(arr - arr.conj().T).max() <= 1e-9:
                raise DomainError("density matrix is not Hermitian")
            if not np.linalg.eigvalsh(arr).min() >= -1e-8:
                raise DomainError("density matrix has a negative eigenvalue")
        else:
            raise DomainError(f"unknown state kind {self.kind!r}")
        object.__setattr__(self, "data", _frozen(arr))

    def to_density(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.array(self.data)


# ---------------------------------------------------------------------------
# single-mode operators
# ---------------------------------------------------------------------------


def mode_matrix(dim: int, which: str) -> np.ndarray:
    """Lowering, number, position or momentum operator of one mode on dim levels."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1) + 0j  # <n-1|a|n> = sqrt(n)
    if which == "lower":
        m = a
    elif which == "number":
        m = a.conj().T @ a
    elif which == "position":
        m = (a + a.conj().T) / np.sqrt(2)
    elif which == "momentum":
        m = 1j * (a.conj().T - a) / np.sqrt(2)
    else:
        raise DomainError(f"unknown operator kind {which!r}")
    return _frozen(m)


@lru_cache(maxsize=32)
def quadrature_eigenbasis(dim: int, which: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors (columns) of one mode's quadrature on dim levels.

    A Hamiltonian that conserves a quadrature is diagonal in this basis, so
    a readout under it is a weighted sum over the eigenvalues.
    """
    if which not in ("position", "momentum"):
        raise DomainError(f"unknown quadrature {which!r}")
    values, vectors = np.linalg.eigh(mode_matrix(dim, which))
    return _frozen(values), _frozen(vectors)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def spin_vector(spin: str) -> np.ndarray:
    if spin not in _SPIN_VECS:
        raise DomainError(f"unknown spin label {spin!r}")
    return np.array(_SPIN_VECS[spin])


def _coherent_fock(alpha: complex, dim: int) -> np.ndarray:
    """Exact coherent-state amplitudes on Fock levels 0 .. dim - 1."""
    c = np.zeros(dim, dtype=complex)
    c[0] = np.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    return c


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Truncated, renormalized coherent-state Fock amplitudes."""
    c = _coherent_fock(alpha, dim)
    return c / np.linalg.norm(c)


def coherent_leakage(alpha: complex, n_max: int) -> float:
    """Squared-norm weight of a coherent state beyond Fock level n_max."""
    c = _coherent_fock(alpha, n_max + 1)
    return float(max(0.0, 1.0 - np.sum(np.abs(c) ** 2)))


def guard_alpha(alpha: complex, n_max: int, mode: str):
    weight = abs(alpha) * abs(alpha)  # inf for a huge alpha, where ** overflows
    if weight > n_max / 4:
        raise TruncationError(
            f"|alpha|^2 = {weight:.3f} exceeds n_max/4 = {n_max/4:.3f} "
            f"on mode {mode}; raise the truncation"
        )


def coherent_state(
    space: SpaceSpec, alpha_x: complex, alpha_y: complex, spin: str = "plus_z"
) -> QState:
    """Product state |spin>|alpha_x>|alpha_y> on the two-mode space."""
    guard_alpha(alpha_x, space.n_max_x, "x")
    guard_alpha(alpha_y, space.n_max_y, "y")
    vec = np.kron(
        spin_vector(spin),
        np.kron(
            coherent_amplitudes(alpha_x, space.n_max_x + 1),
            coherent_amplitudes(alpha_y, space.n_max_y + 1),
        ),
    )
    return QState("pure", vec, space)


def basis_state(space: SpaceSpec, spin: str, n_x: int, n_y: int) -> QState:
    """Fock product state |spin>|n_x>|n_y>."""
    amps = np.zeros(space.mode_dims, dtype=complex)
    for n, d in zip((n_x, n_y), space.mode_dims):
        if not 0 <= n < d:
            raise DomainError(f"occupation {n} outside truncation {d - 1}")
    amps[n_x, n_y] = 1.0
    return QState("pure", np.kron(spin_vector(spin), amps.ravel()), space)
