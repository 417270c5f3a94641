import math

import numpy as np
import pytest

from weylsim import analyze as an
from weylsim import evolve as ev
from weylsim import fockspace as fs
from weylsim import model as md
from weylsim import probe as pr
from weylsim.errors import DomainError, RegimeError
from weylsim.evolve import TimeGrid
from weylsim.fockspace import SpaceSpec
from weylsim.model import SimParams

TARGETS = ("x", "px", "y", "py")


@pytest.fixture(scope="module")
def params():
    return SimParams.from_khz(4.75, r=0.0)


def direct_quadratures(state):
    """Direct expectation oracle for all four quadrature targets."""
    space = state.space
    return {
        "x": fs.expectation(fs.quadrature(space, "x", "position"), state),
        "px": fs.expectation(fs.quadrature(space, "x", "momentum"), state),
        "y": fs.expectation(fs.quadrature(space, "y", "position"), state),
        "py": fs.expectation(fs.quadrature(space, "y", "momentum"), state),
    }


# --- quadrature protocol ---------------------------------------------------------


def test_vacuum_quadratures_vanish(space, params):
    vac = fs.coherent_state(space, 0, 0, "plus_z")
    for target in TARGETS:
        assert abs(pr.measure_quadrature(vac, target, params)) < 1e-3


def test_position_of_real_coherent_state(space, params):
    st = fs.coherent_state(space, 1 / math.sqrt(2), 0, "plus_z")
    got = pr.measure_quadrature(st, "x", params)
    assert abs(got - 1.0) <= 0.02


def test_momentum_of_imaginary_coherent_state(space, params):
    st = fs.coherent_state(space, 1j, 0, "plus_z")
    got = pr.measure_quadrature(st, "px", params)
    assert abs(got - math.sqrt(2)) <= 0.02 * math.sqrt(2)


def test_estimator_consistency_random_states(space, params, rng):
    # twenty random coherent preparations, all four targets within 2%
    for _ in range(20):
        amp = rng.uniform(0, 1.5)
        phase = rng.uniform(0, 2 * math.pi)
        amp2 = rng.uniform(0, 1.5)
        phase2 = rng.uniform(0, 2 * math.pi)
        st = fs.coherent_state(
            space,
            amp * np.exp(1j * phase),
            amp2 * np.exp(1j * phase2),
            "plus_z",
        )
        direct = direct_quadratures(st)
        for target in TARGETS:
            got = pr.measure_quadrature(st, target, params)
            err = abs(got - direct[target]) / max(1.0, abs(direct[target]))
            assert err < 0.02


def test_protocol_on_entangled_state_matches_reduced(space, params):
    # the qubit is discarded by the protocol, so the estimate must match
    # the motional reduced state of a spin-motion entangled input
    a = fs.coherent_state(space, 0.9, 0, "plus_z").data
    b = fs.coherent_state(space, -0.4, 0.3j, "minus_z").data
    vec = (a + b) / np.linalg.norm(a + b)
    st = fs.QState("pure", vec, space)
    direct = direct_quadratures(st)  # spin-traced by construction
    for target in ("x", "px"):
        got = pr.measure_quadrature(st, target, params)
        assert abs(got - direct[target]) / max(1.0, abs(direct[target])) < 0.02


def test_probe_regime_guard(space, params):
    st = fs.coherent_state(space, 1.5, 0, "plus_z")
    long_grid = TimeGrid(0.0, 1.0, 12)
    with pytest.raises(RegimeError):
        pr.measure_quadrature(st, "x", params, probe_grid=long_grid)


def test_probe_with_dephasing_stays_close(space):
    params = SimParams.from_khz(4.75, r=0.0, tau_d_x=4.0, tau_d_y=3.5)
    st = fs.coherent_state(SpaceSpec(10, 10), 0.8, 0, "plus_z")
    got = pr.measure_quadrature(
        st, "x", params, noise=ev.NoiseSpec.from_params(params)
    )
    want = math.sqrt(2) * 0.8
    assert abs(got - want) / want < 0.02


# --- energy protocol ---------------------------------------------------------------


def test_zero_momentum_zero_energy(params):
    got = pr.measure_energy_slope(0.0, 0.0, params)
    assert abs(got) < 1e-3 * params.omega


def test_unit_momentum_energy(params):
    got = pr.measure_energy_slope(1.0, 0.0, params)
    want = params.omega / math.sqrt(2)
    assert abs(got - want) / want < 0.02
    assert abs(want / (2 * math.pi) - 3.3588) < 1e-3


def test_dispersion_sweep_linear(params):
    ps = [0.5, 1.0, 1.5, 2.0]
    energies = [pr.measure_energy_slope(p, 0.0, params) for p in ps]
    slope = an.linear_fit_through_origin(ps, energies)
    want = params.omega / math.sqrt(2)
    assert abs(slope - want) / want < 0.02


def test_energy_protocol_off_axis(params):
    got = pr.measure_energy_slope(1.2, 0.9, params)
    want = params.omega / math.sqrt(2) * 1.2
    assert abs(got - want) / want < 0.02


def test_energy_window_halving_converges(params):
    # shrinking the fit window drives the estimate to the exact value
    p = 1.0
    want = params.omega / math.sqrt(2)
    errs = []
    for scale in (1.0, 0.5, 0.25):
        w = 0.25 / (2 * want) * scale
        grid = TimeGrid(0.0, w, 12)
        got = pr.measure_energy_slope(p, 0.0, params, grid=grid)
        errs.append(abs(got - want) / want)
    assert errs[2] < errs[0]
    assert errs[2] < 1e-4


def test_energy_requires_free_model():
    with pytest.raises(DomainError):
        pr.measure_energy_slope(1.0, 0.0, SimParams.from_khz(4.75, r=1.0))


# --- derived series ------------------------------------------------------------------


def test_kinetic_momentum_reduces_to_momentum_at_zero_field(space):
    params = SimParams.from_khz(4.2, r=0.0)
    h = md.weyl_hamiltonian(space, params)
    psi0 = fs.coherent_state(space, 0.6j, 0.3, "plus_x")
    grid = TimeGrid(0.0, 0.1, 11)
    _, pi_y = md.kinetic_momentum(space, params)
    py = fs.quadrature(space, "y", "momentum")
    series = ev.evolve_unitary(h, psi0, grid, {"pi_y": pi_y, "p_y": py})
    assert np.abs(series["pi_y"].values - series["p_y"].values).max() == 0.0


def test_kinetic_momentum_initial_values(space):
    # the initial coherent preparation carries <pi_x> = sqrt(2), <pi_y> = 0,
    # so the squared magnitude starts at 2 (direct expectation oracle)
    params = SimParams.from_khz(4.2, r=1.0)
    h = md.weyl_hamiltonian(space, params)
    psi0 = fs.coherent_state(space, 1j, 0, "plus_x")
    grid = TimeGrid(0.0, 0.05, 6)
    pi_x, pi_y = md.kinetic_momentum(space, params)
    series = ev.evolve_unitary(h, psi0, grid, {"pi_x": pi_x, "pi_y": pi_y})
    pix, piy = series["pi_x"], series["pi_y"]
    assert abs(pix.values[0] - math.sqrt(2)) < 1e-6
    assert abs(piy.values[0]) < 1e-9
    assert abs(pix.values[0] ** 2 + piy.values[0] ** 2 - 2.0) < 1e-6


def test_spin_expectations_initial_values(space):
    params = SimParams.from_khz(4.2, r=1.0)
    h = md.weyl_hamiltonian(space, params)
    psi0 = fs.coherent_state(space, 1j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.05, 6)
    spins = {f"sigma_{axis}": fs.pauli(space, axis) for axis in ("y", "z")}
    series = ev.evolve_unitary(h, psi0, grid, spins)
    assert abs(series["sigma_z"].values[0] - 1.0) < 1e-12
    assert abs(series["sigma_y"].values[0]) < 1e-12


def test_sigma_theta_perp_algebra(space):
    for theta in np.linspace(0, 2 * math.pi, 8, endpoint=False):
        perp = pr.sigma_theta_perp(space, theta)
        par = math.cos(theta) * fs.pauli(space, "x") + math.sin(theta) * fs.pauli(
            space, "y"
        )
        anti = (perp @ par + par @ perp).matrix
        assert np.abs(anti).max() < 1e-12
        sq = (perp @ perp).matrix
        assert np.abs(sq - np.eye(space.dim)).max() < 1e-12
