import math

import numpy as np
import pytest

from weylsim import evolve as ev
from weylsim import fockspace as fs
from weylsim import model as md
from weylsim.errors import ConvergenceError, DomainError
from weylsim.evolve import NoiseSpec, TimeGrid
from weylsim.fockspace import SpaceSpec
from weylsim.model import SimParams


def oracle_propagate(h_matrix, psi, t):
    """Independent spectral propagator used as the reference in this file."""
    evals, evecs = np.linalg.eigh(h_matrix)
    return evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi))


# --- unitary ------------------------------------------------------------------


def test_zero_hamiltonian_is_constant(small_space):
    h = 0.0 * fs.identity(small_space)
    psi0 = fs.coherent_state(small_space, 0.5j, 0.2, "plus_x")
    states = ev.evolve_unitary(h, psi0, TimeGrid(0.0, 1.0, 7))
    for st in states:
        assert np.abs(st.data - psi0.data).max() < 1e-12


def test_zero_mode_is_stationary(sm_space):
    params = SimParams.from_khz(4.2, r=1.0)
    h = md.transformed_hamiltonian(sm_space, params)
    psi0 = md.landau_eigenstate(sm_space, 0, "zero")
    grid = TimeGrid(0.0, 0.6, 31)
    states = ev.evolve_unitary(h, psi0, grid)
    sz = ev.observable_series(states, fs.pauli(sm_space, "z"), grid)
    assert np.abs(sz.values - 1.0).max() < 1e-12


def test_early_slope_matches_finite_difference_oracle(space):
    # d<sy>/dt at 0 equals -2 (omega/sqrt(2)) p for the free model at p = 1
    omega = md.khz(4.75)
    params = SimParams(omega=omega, r=0.0)
    h = md.weyl_hamiltonian(space, params)
    psi0 = fs.coherent_state(space, 1j / math.sqrt(2), 0, "plus_z")
    sy = fs.pauli(space, "y").matrix

    eps = 1e-5
    plus = oracle_propagate(h.matrix, psi0.data, eps)
    minus = oracle_propagate(h.matrix, psi0.data, -eps)
    fd = (
        np.vdot(plus, sy @ plus).real - np.vdot(minus, sy @ minus).real
    ) / (2 * eps)
    want = -2 * (omega / math.sqrt(2)) * 1.0
    assert abs(fd - want) < 1e-5 * abs(want)

    # the library propagator reproduces the oracle states sample by sample
    grid = TimeGrid(0.0, 2 * eps, 3)
    states = ev.evolve_unitary(h, psi0, grid)
    for t, st in zip(grid.times, states):
        assert np.abs(st.data - oracle_propagate(h.matrix, psi0.data, t)).max() < 1e-12


def test_unitary_norm_and_energy_conserved(space):
    params = SimParams.from_khz(4.2, r=1.0)
    h = md.weyl_hamiltonian(space, params)
    psi0 = fs.coherent_state(space, 1j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.6, 61)
    states = ev.evolve_unitary(h, psi0, grid)
    e0 = fs.expectation(h, states[0])
    scale = max(abs(e0), params.omega)
    for st in states:
        assert abs(np.linalg.norm(st.data) - 1.0) < 1e-9
        assert abs(fs.expectation(h, st) - e0) < 1e-8 * scale


def test_unitary_requires_hermitian_and_pure(small_space):
    a = fs.mode_lowering(small_space, "x")
    psi0 = fs.coherent_state(small_space, 0.5, 0)
    from weylsim.errors import NonHermitianError

    with pytest.raises(NonHermitianError):
        ev.evolve_unitary(a, psi0, TimeGrid(0.0, 1.0, 3))
    mixed = fs.spin_reset(psi0)
    with pytest.raises(DomainError):
        ev.evolve_unitary(fs.identity(small_space), mixed, TimeGrid(0.0, 1.0, 3))


# --- dephasing master equation ---------------------------------------------------


@pytest.fixture(scope="module")
def tiny():
    return SpaceSpec(6, 6)


def test_lindblad_matches_unitary_without_noise(tiny):
    params = SimParams.from_khz(4.2, r=1.0)
    h = md.weyl_hamiltonian(tiny, params)
    psi0 = fs.coherent_state(tiny, 0.8j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.3, 31)
    sz = fs.pauli(tiny, "z")
    unit = ev.observable_series(ev.evolve_unitary(h, psi0, grid), sz, grid)
    noiseless = ev.observable_series(
        ev.evolve_lindblad(h, NoiseSpec(), psi0, grid), sz, grid
    )
    assert np.abs(unit.values - noiseless.values).max() < 1e-8
    # huge but finite dephasing time behaves the same way
    weak = ev.observable_series(
        ev.evolve_lindblad(h, NoiseSpec(1e6, 1e6), psi0, grid), sz, grid
    )
    assert np.abs(unit.values - weak.values).max() < 1e-5


def test_pure_dephasing_analytic_decay(tiny):
    # with H = 0 the mode average obeys <a>(t) = alpha e^{-t/tau} exactly,
    # while the occupation stays constant
    tau = 2.0
    alpha = 0.9j
    h = 0.0 * fs.identity(tiny)
    psi0 = fs.coherent_state(tiny, alpha, 0)
    grid = TimeGrid(0.0, 1.0, 21)
    states = ev.evolve_lindblad(h, NoiseSpec(tau_d_x=tau), psi0, grid)
    a_op = fs.mode_lowering(tiny, "x").matrix
    n_op = fs.number_operator(tiny, "x")
    n0 = fs.expectation(n_op, psi0)
    mean_a0 = np.trace(psi0.to_density() @ a_op)  # truncation shifts it off alpha
    mags = []
    for t, st in zip(grid.times, states):
        mean_a = np.trace(st.data @ a_op)
        assert abs(mean_a - mean_a0 * math.exp(-t / tau)) < 1e-9
        mags.append(abs(mean_a))
        assert abs(fs.expectation(n_op, st) - n0) < 1e-8
    assert all(b - a < 1e-10 for a, b in zip(mags, mags[1:]))


def test_fock_state_invariant_under_dephasing(tiny):
    h = 0.0 * fs.identity(tiny)
    psi0 = fs.basis_state(tiny, "minus_z", 3, 1)
    grid = TimeGrid(0.0, 0.5, 6)
    states = ev.evolve_lindblad(h, NoiseSpec(1.5, 2.5), psi0, grid)
    rho0 = psi0.to_density()
    assert np.abs(states[-1].data - rho0).max() < 1e-12


def test_lindblad_invariants_at_every_sample(tiny):
    params = SimParams.from_khz(4.2, r=1.0, tau_d_x=4.0, tau_d_y=3.5)
    h = md.weyl_hamiltonian(tiny, params)
    psi0 = fs.coherent_state(tiny, 1j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.3, 16)
    states = ev.evolve_lindblad(h, NoiseSpec.from_params(params), psi0, grid)
    for st in states:
        assert abs(np.trace(st.data).real - 1.0) < 1e-8
        assert np.abs(st.data - st.data.conj().T).max() < 1e-8
        assert np.linalg.eigvalsh(st.data).min() >= -1e-8


def test_step_halving_convergence(tiny):
    params = SimParams.from_khz(4.2, r=1.0, tau_d_x=4.0, tau_d_y=3.5)
    h = md.weyl_hamiltonian(tiny, params)
    psi0 = fs.coherent_state(tiny, 1j, 0, "plus_z")
    sz = fs.pauli(tiny, "z")
    coarse = TimeGrid(0.0, 0.3, 16, dt_max=2e-4)
    fine = TimeGrid(0.0, 0.3, 16, dt_max=1e-4)
    noise = NoiseSpec.from_params(params)
    a = ev.observable_series(ev.evolve_lindblad(h, noise, psi0, coarse), sz, coarse)
    b = ev.observable_series(ev.evolve_lindblad(h, noise, psi0, fine), sz, fine)
    assert np.abs(a.values - b.values).max() < 1e-7


def test_integrator_blowup_raises(tiny):
    # a wildly oversized step breaks the conservation monitors
    from weylsim.errors import PositivityError

    params = SimParams.from_khz(40.0, r=1.0)
    h = md.weyl_hamiltonian(tiny, params)
    psi0 = fs.coherent_state(tiny, 1j, 0, "plus_z")
    grid = TimeGrid(0.0, 1.0, 3, dt_max=0.5)
    with pytest.raises((ConvergenceError, PositivityError)):
        ev.evolve_lindblad(h, NoiseSpec(0.001, 0.001), psi0, grid)


def test_grid_validation():
    with pytest.raises(DomainError):
        TimeGrid(0.0, 0.0, 5)
    with pytest.raises(DomainError):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(DomainError):
        TimeGrid(0.0, 1.0, 5, dt_max=0.0)
    with pytest.raises(DomainError):
        NoiseSpec(tau_d_x=-1.0)
