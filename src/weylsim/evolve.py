"""Time evolution: exact unitary propagation and dephasing master equation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fockspace as fs
from .analyze import TimeSeries
from .errors import ConvergenceError, DomainError, NonHermitianError, PositivityError
from .fockspace import LinOp, QState

DT_MAX_DEFAULT = 2e-4  # ms; keeps 4th-order step error below the 1e-7 gates


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid with an integrator substep cap."""

    t_start: float  # ms
    t_end: float  # ms
    n_samples: int
    dt_max: float = DT_MAX_DEFAULT  # ms

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise DomainError("t_start and t_end must be finite")
        if self.t_end <= self.t_start:
            raise DomainError("t_end must exceed t_start")
        if self.n_samples < 2:
            raise DomainError("need at least two samples")
        if not self.dt_max > 0:
            raise DomainError("dt_max must be positive")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


@dataclass(frozen=True)
class NoiseSpec:
    """Mode dephasing times in ms; math.inf switches a channel off."""

    tau_d_x: float = math.inf
    tau_d_y: float = math.inf

    def __post_init__(self):
        if not (self.tau_d_x > 0 and self.tau_d_y > 0):
            raise DomainError("dephasing times must be positive (inf for none)")

    @classmethod
    def from_params(cls, params) -> "NoiseSpec":
        return cls(tau_d_x=params.tau_d_x, tau_d_y=params.tau_d_y)


# series the propagators add to their results; no observable may reuse one
MONITORS = ("norm_drift", "trace_drift", "hermiticity", "min_eig")


def _check_inputs(h: LinOp, state: QState, observables: dict[str, LinOp]):
    if h.hermiticity_defect() > 1e-9:
        raise NonHermitianError("Hamiltonian is not Hermitian within 1e-9")
    if state.space != h.space:
        raise DomainError("state and Hamiltonian live on different spaces")
    for label, obs in observables.items():
        if label in MONITORS:
            raise DomainError(f"observable label {label!r} is a monitor name")
        if obs.space != h.space:
            raise DomainError(f"observable {label!r} lives on another space")
        if obs.hermiticity_defect() > 1e-9:
            raise NonHermitianError(f"observable {label!r} is not Hermitian")


def _series(grid: TimeGrid, label: str, values: np.ndarray) -> TimeSeries:
    """Real series of one expectation; refuses an imaginary residual."""
    residual = np.abs(np.imag(values)).max()
    if residual > 1e-9:
        raise NonHermitianError(f"<{label}> has imaginary residual {residual:.2e}")
    return TimeSeries(grid.times, np.real(values), label)


def evolve_unitary(
    h: LinOp, state: QState, grid: TimeGrid, observables: dict[str, LinOp]
) -> dict[str, TimeSeries]:
    """Expectation series of each observable under exp(-i H t).

    H is time independent, so it is diagonalized once and the exact
    exponential is applied at every sample; there is no step error.  A
    pure state is propagated as one d x n_samples block of normalized
    sample vectors.  A mixed state is expanded in the eigenbasis,
    <O>(t) = sum_jk O_kj rho_jk e^{-i (E_j - E_k) t}, so no propagated
    density matrix is formed.  Besides one series per observable label,
    the result holds `norm_drift`: |norm - 1| of each sample vector, or
    |trace - 1| of a mixed state; above 1e-6 it raises ConvergenceError.
    """
    _check_inputs(h, state, observables)
    evals, evecs = h.eigh()
    times = grid.times - grid.t_start
    values = {}
    if state.kind == "pure":
        coeffs = evecs.conj().T @ state.data
        block = evecs @ (np.exp(-1j * np.outer(evals, times)) * coeffs[:, None])
        norms = np.linalg.norm(block, axis=0)
        drift = np.abs(norms - 1.0)
        block /= norms
        for label, obs in observables.items():
            values[label] = np.einsum("ik,ik->k", block.conj(), obs.matrix @ block)
    else:
        rho_eig = evecs.conj().T @ state.data @ evecs
        drift = np.full(grid.n_samples, abs(np.trace(rho_eig).real - 1.0))
        gaps = np.subtract.outer(evals, evals).ravel()
        for label, obs in observables.items():
            obs_eig = evecs.conj().T @ obs.matrix @ evecs
            weights = (rho_eig * obs_eig.T).ravel()
            keep = np.abs(weights) > 1e-16
            values[label] = weights[keep] @ np.exp(-1j * np.outer(gaps[keep], times))
    bad = np.flatnonzero(drift > 1e-6)
    if bad.size:
        raise ConvergenceError(f"norm drift {drift[bad[0]]:.2e} at sample {bad[0]}")
    values["norm_drift"] = drift
    return {label: _series(grid, label, v) for label, v in values.items()}


def _dephasing_mask(space, noise: NoiseSpec) -> np.ndarray:
    """Elementwise rate matrix of the number-operator dephasing channels.

    The jump operators a^dag a are diagonal in the Fock basis, so the full
    dissipator acts on rho elementwise:
    drho[a,b] = -sum_j (n_j[a] - n_j[b])^2 / tau_j * rho[a,b];
    a channel with tau_j = inf contributes zero.
    """
    mask = np.zeros((space.dim, space.dim))
    for mode, tau in zip(space.modes, (noise.tau_d_x, noise.tau_d_y)):
        nvec = np.diag(fs.number_operator(space, mode).matrix).real
        mask -= np.subtract.outer(nvec, nvec) ** 2 / tau
    return mask


def evolve_lindblad(
    h: LinOp,
    noise: NoiseSpec,
    state: QState,
    grid: TimeGrid,
    observables: dict[str, LinOp],
) -> dict[str, TimeSeries]:
    """Expectation series of each observable under dephasing dynamics.

    drho/dt = -i[H, rho] + sum_j (2/tau_j)(N_j rho N_j - {N_j^2, rho}/2)
    with N_j = a_j^dag a_j, integrated by a classic fixed-step 4th-order
    rule on the density matrix; only the current rho is held.  A pure
    input is promoted to a rank-1 density matrix.  At every sample the
    observables are evaluated on the Hermitian, trace-normalized part of
    rho, and the result also holds the monitor margins of the raw rho:
    `trace_drift` |Tr rho - 1| (above 1e-6 raises ConvergenceError),
    `hermiticity` max |rho - rho^dag|, and `min_eig`, the least eigenvalue
    of its Hermitian part (below -1e-6 raises PositivityError; positivity
    is never silently repaired).
    """
    _check_inputs(h, state, observables)
    hm = h.matrix
    mask = _dephasing_mask(h.space, noise)

    def rhs(r):
        return -1j * (hm @ r - r @ hm) + mask * r

    rho = state.to_density()
    times = grid.times
    seg = times[1] - times[0]
    n_sub = max(1, math.ceil(seg / grid.dt_max))
    dt = seg / n_sub

    values = {label: np.empty(grid.n_samples, dtype=complex) for label in observables}
    values |= {m: np.empty(grid.n_samples) for m in MONITORS if m != "norm_drift"}
    for k in range(grid.n_samples):
        if k:
            for _ in range(n_sub):
                k1 = rhs(rho)
                k2 = rhs(rho + 0.5 * dt * k1)
                k3 = rhs(rho + 0.5 * dt * k2)
                k4 = rhs(rho + dt * k3)
                rho = rho + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(np.trace(rho).real - 1.0)
        if drift > 1e-6:
            raise ConvergenceError(f"trace drift {drift:.2e} at sample {k}")
        rho_h = (rho + rho.conj().T) / 2
        min_eig = np.linalg.eigvalsh(rho_h).min()
        if min_eig < -1e-6:
            raise PositivityError(f"eigenvalue {min_eig:.2e} at sample {k}")
        values["trace_drift"][k] = drift
        values["hermiticity"][k] = np.abs(rho - rho.conj().T).max()
        values["min_eig"][k] = min_eig
        rho_h /= np.trace(rho_h).real
        for label, obs in observables.items():
            values[label][k] = np.einsum("ij,ji->", obs.matrix, rho_h)
    return {label: _series(grid, label, v) for label, v in values.items()}
