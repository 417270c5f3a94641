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
        if self.t_end <= self.t_start:
            raise DomainError("t_end must exceed t_start")
        if self.n_samples < 2:
            raise DomainError("need at least two samples")
        if self.dt_max <= 0:
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
        if self.tau_d_x <= 0 or self.tau_d_y <= 0:
            raise DomainError("dephasing times must be positive (inf for none)")

    @classmethod
    def from_params(cls, params) -> "NoiseSpec":
        return cls(tau_d_x=params.tau_d_x, tau_d_y=params.tau_d_y)


def _check_hamiltonian(h: LinOp):
    if h.hermiticity_defect() > 1e-9:
        raise NonHermitianError("Hamiltonian is not Hermitian within 1e-9")


def evolve_unitary(h: LinOp, psi0: QState, grid: TimeGrid) -> list[QState]:
    """Propagate a pure state through exp(-i H t) at the grid samples.

    H is time independent, so it is diagonalized once and the exact
    exponential is applied at every sample; there is no step error.
    """
    _check_hamiltonian(h)
    if psi0.kind != "pure":
        raise DomainError("evolve_unitary requires a pure state")
    if psi0.space != h.space:
        raise DomainError("state and Hamiltonian live on different spaces")
    evals, evecs = h.eigh()
    coeffs = evecs.conj().T @ psi0.data
    times = grid.times - grid.t_start
    block = evecs @ (np.exp(-1j * np.outer(evals, times)) * coeffs[:, None])
    out = []
    for k in range(grid.n_samples):
        vec = block[:, k]
        drift = abs(np.linalg.norm(vec) - 1.0)
        if drift > 1e-6:
            raise ConvergenceError(f"norm drift {drift:.2e} at sample {k}")
        out.append(QState("pure", vec / np.linalg.norm(vec), psi0.space))
    return out


def expectation_series_density(
    h: LinOp, rho0: QState, obs: LinOp, grid: TimeGrid, label: str = ""
) -> TimeSeries:
    """<obs>(t) under unitary evolution, evaluated in the eigenbasis.

    Avoids materializing the propagated density matrices:
    <obs>(t) = sum_jk obs_eig[k, j] rho_eig[j, k] e^{-i (E_j - E_k) t}.
    """
    _check_hamiltonian(h)
    if rho0.space != h.space or obs.space != h.space:
        raise DomainError("state, observable and Hamiltonian must share a space")
    evals, evecs = h.eigh()
    rho_eig = evecs.conj().T @ rho0.to_density() @ evecs
    obs_eig = evecs.conj().T @ obs.matrix @ evecs
    weights = (rho_eig * obs_eig.T).ravel()
    gaps = np.subtract.outer(evals, evals).ravel()
    keep = np.abs(weights) > 1e-16
    times = grid.times - grid.t_start
    phases = np.exp(-1j * np.outer(gaps[keep], times))
    values = np.real(weights[keep] @ phases)
    return TimeSeries(times=grid.times, values=values, label=label)


def _dephasing_mask(space, noise: NoiseSpec) -> np.ndarray | None:
    """Elementwise rate matrix of the number-operator dephasing channels.

    The jump operators a^dag a are diagonal in the Fock basis, so the full
    dissipator acts on rho elementwise:
    drho[a,b] = -sum_j (n_j[a] - n_j[b])^2 / tau_j * rho[a,b].
    """
    rates = []
    for mode, tau in zip(space.modes, (noise.tau_d_x, noise.tau_d_y)):
        if math.isinf(tau):
            continue
        nvec = np.diag(fs.number_operator(space, mode).matrix).real
        rates.append(np.subtract.outer(nvec, nvec) ** 2 / tau)
    if not rates:
        return None
    return -sum(rates)


def evolve_lindblad(
    h: LinOp, noise: NoiseSpec, rho0: QState, grid: TimeGrid
) -> list[QState]:
    """Master equation with number-operator dephasing on each mode.

    drho/dt = -i[H, rho] + sum_j (2/tau_j)(N_j rho N_j - {N_j^2, rho}/2)
    with N_j = a_j^dag a_j, integrated by a classic fixed-step 4th-order
    rule on the density matrix.  Pure inputs are promoted to rank-1
    density matrices.  Trace, Hermiticity and positivity are monitored at
    every output sample; positivity is never silently repaired.
    """
    _check_hamiltonian(h)
    if rho0.space != h.space:
        raise DomainError("state and Hamiltonian live on different spaces")
    hm = h.matrix
    mask = _dephasing_mask(h.space, noise)

    if mask is None:

        def rhs(r):
            return -1j * (hm @ r - r @ hm)

    else:

        def rhs(r):
            return -1j * (hm @ r - r @ hm) + mask * r

    rho = rho0.to_density()
    times = grid.times
    seg = times[1] - times[0]
    n_sub = max(1, math.ceil(seg / grid.dt_max))
    dt = seg / n_sub

    out = [_monitored(rho, rho0.space, 0)]
    for k in range(grid.n_samples - 1):
        for _ in range(n_sub):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(_monitored(rho, rho0.space, k + 1))
    return out


def _monitored(rho: np.ndarray, space, sample: int) -> QState:
    drift = abs(np.trace(rho).real - 1.0)
    if drift > 1e-6:
        raise ConvergenceError(f"trace drift {drift:.2e} at sample {sample}")
    min_eig = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if min_eig < -1e-6:
        raise PositivityError(f"eigenvalue {min_eig:.2e} at sample {sample}")
    rho_h = (rho + rho.conj().T) / 2
    return QState("mixed", rho_h / np.trace(rho_h).real, space)


def observable_series(
    states: list[QState], obs: LinOp, grid: TimeGrid, label: str = ""
) -> TimeSeries:
    """Expectation of one observable at every grid sample."""
    if len(states) != grid.n_samples:
        raise DomainError("state count does not match the grid")
    values = np.array([fs.expectation(obs, s) for s in states])
    return TimeSeries(times=grid.times, values=values, label=label)
