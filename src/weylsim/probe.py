"""Indirect measurement protocols built from spin readout.

Quadratures are read out by resetting the qubit, rotating it onto +x,
driving a spin-dependent force conditioned on the target quadrature, and
cubic-fitting the early spin-z response; the slope at zero is
-sqrt(2) omega_probe <Q>, so the estimator divides the fitted slope by
-sqrt(2) omega_probe.  The average energy of a free wavepacket comes from
the early slope of the spin component perpendicular to the momentum
direction, which falls as -2 E(p) t.
"""

from __future__ import annotations

import math

from . import analyze as an
from . import evolve as ev
from . import fockspace as fs
from . import model as md
from .analyze import SlopeFit
from .errors import DomainError, FitError, RegimeError
from .fockspace import LinOp, QState, SpaceSpec

__all__ = [
    "SlopeFit",
    "measure_quadrature",
    "measure_energy_slope",
    "sigma_theta_perp",
]

PROBE_SAMPLES = 12
PROBE_PHASE_BUDGET = 0.25  # max sqrt(2) omega_probe t |<Q>| over the window
FIT_RESIDUAL_LIMIT = 0.01


def _default_probe_grid(params, q_estimate: float) -> ev.TimeGrid:
    t_end = PROBE_PHASE_BUDGET / (
        math.sqrt(2) * params.omega_probe * max(1.0, abs(q_estimate))
    )
    return ev.TimeGrid(0.0, t_end, PROBE_SAMPLES)


def measure_quadrature(
    state: QState,
    target: str,
    params,
    probe_grid: ev.TimeGrid | None = None,
    noise: ev.NoiseSpec | None = None,
) -> float:
    """Estimate one motional quadrature through the spin-readout protocol.

    The qubit of the input state is discarded (reset), so the estimate
    refers to the motional reduced state.  The default probe window is
    sized from a direct estimate of <Q> to stay in the small-angle regime;
    an explicit probe_grid overrides it, and must satisfy
    sqrt(2) omega_probe t_end |<Q>| < 0.5.  Pass a NoiseSpec to apply the
    dephasing channel during probing.
    """
    space = state.space
    q_op = md.quadrature_target(space, target)
    q_direct = fs.expectation(q_op, state)  # window sizing only
    if probe_grid is None:
        probe_grid = _default_probe_grid(params, q_direct)
    angle = math.sqrt(2) * params.omega_probe * probe_grid.t_end * abs(q_direct)
    if angle >= 0.5:
        raise RegimeError(
            f"probe window leaves the small-angle regime (phase {angle:.3f})"
        )
    prepared = fs.spin_rotation(fs.spin_reset(state), "y", -math.pi / 2)
    h_probe = md.probe_hamiltonian(space, params, target)
    sz = {"sigma_z": fs.pauli(space, "z")}
    if noise is None:
        series = ev.evolve_unitary(h_probe, prepared, probe_grid, sz)
    else:
        series = ev.evolve_lindblad(h_probe, noise, prepared, probe_grid, sz)
    fit = an.fit_polynomial(series["sigma_z"], 3)
    if fit.residual_rms > FIT_RESIDUAL_LIMIT:
        raise FitError(f"probe fit residual {fit.residual_rms:.2e} too large")
    return -fit.slope_at_zero / (math.sqrt(2) * params.omega_probe)


def sigma_theta_perp(space, theta: float) -> LinOp:
    """Spin component perpendicular to the in-plane direction theta."""
    return -math.sin(theta) * fs.pauli(space, "x") + math.cos(theta) * fs.pauli(
        space, "y"
    )


def measure_energy_slope(
    p: float,
    theta: float,
    params,
    grid: ev.TimeGrid | None = None,
    space: SpaceSpec | None = None,
) -> float:
    """Average energy of a free wavepacket with momentum p along theta.

    Prepares |+z> with the matching coherent modes, evolves under the free
    Hamiltonian, cubic-fits the early perpendicular spin component and
    returns -slope/2, which equals (omega/sqrt(2)) p.
    """
    if params.r != 0:
        raise DomainError("the free-particle protocol requires r = 0")
    if p < 0:
        raise DomainError("momentum magnitude must be non-negative")
    if space is None:
        space = SpaceSpec(18, 18)
    alpha_x = 1j * p * math.cos(theta) / math.sqrt(2)
    alpha_y = 1j * p * math.sin(theta) / math.sqrt(2)
    psi0 = fs.coherent_state(space, alpha_x, alpha_y, "plus_z")
    if grid is None:
        e_est = params.omega / math.sqrt(2) * max(p, 0.5)
        grid = ev.TimeGrid(0.0, PROBE_PHASE_BUDGET / (2 * e_est), PROBE_SAMPLES)
    h_free = md.weyl_hamiltonian(space, params)
    series = ev.evolve_unitary(
        h_free, psi0, grid, {"sigma_theta_perp": sigma_theta_perp(space, theta)}
    )["sigma_theta_perp"]
    fit = an.fit_polynomial(series, 3)
    if fit.residual_rms > FIT_RESIDUAL_LIMIT:
        raise FitError(f"energy fit residual {fit.residual_rms:.2e} too large")
    return -fit.slope_at_zero / 2
