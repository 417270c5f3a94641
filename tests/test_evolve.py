import math
import tracemalloc

import numpy as np
import pytest

from weylsim import evolve as ev
from weylsim import fockspace as fs
from weylsim import model as md
from weylsim.errors import (
    ConvergenceError,
    DomainError,
    NonHermitianError,
    PositivityError,
)
from weylsim.evolve import NoiseSpec, TimeGrid
from weylsim.fockspace import LinOp, QState, SpaceSpec
from weylsim.model import SimParams


def oracle_propagate(h_matrix, psi, t):
    """Independent spectral propagator used as the reference in this file."""
    evals, evecs = np.linalg.eigh(h_matrix)
    return evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi))


# --- unitary ------------------------------------------------------------------


def oracle_series(h_matrix, psi, ops, times):
    """Per-sample expectations of each operator on oracle-propagated states."""
    states = [oracle_propagate(h_matrix, psi, t) for t in times]
    return {
        label: np.array([np.vdot(st, op.matrix @ st).real for st in states])
        for label, op in ops.items()
    }


def observables(space):
    return {
        "x": fs.quadrature(space, "x", "position"),
        "p_x": fs.quadrature(space, "x", "momentum"),
        "y": fs.quadrature(space, "y", "position"),
        "p_y": fs.quadrature(space, "y", "momentum"),
        "sigma_x": fs.pauli(space, "x"),
        "sigma_z": fs.pauli(space, "z"),
    }


def test_zero_hamiltonian_is_constant(small_space):
    h = 0.0 * fs.identity(small_space)
    psi0 = fs.coherent_state(small_space, 0.5j, 0.2, "plus_x")
    ops = observables(small_space)
    series = ev.evolve_unitary(h, psi0, TimeGrid(0.0, 1.0, 7), ops)
    for label, op in ops.items():
        assert np.abs(series[label].values - fs.expectation(op, psi0)).max() < 1e-12
    assert series["norm_drift"].values.max() < 1e-12


def test_zero_mode_is_stationary(sm_space):
    params = SimParams.from_khz(4.2, r=1.0)
    h = md.transformed_hamiltonian(sm_space, params)
    psi0 = md.landau_eigenstate(sm_space, 0, "zero")
    grid = TimeGrid(0.0, 0.6, 31)
    sz = ev.evolve_unitary(h, psi0, grid, {"sigma_z": fs.pauli(sm_space, "z")})
    assert np.abs(sz["sigma_z"].values - 1.0).max() < 1e-12


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

    # the library propagator reproduces the oracle series sample by sample
    grid = TimeGrid(0.0, 2 * eps, 3)
    ops = observables(space) | {"sigma_y": fs.pauli(space, "y")}
    series = ev.evolve_unitary(h, psi0, grid, ops)
    want = oracle_series(h.matrix, psi0.data, ops, grid.times)
    for label in ops:
        assert np.abs(series[label].values - want[label]).max() < 1e-12


def test_unitary_norm_and_energy_conserved(space):
    params = SimParams.from_khz(4.2, r=1.0)
    h = md.weyl_hamiltonian(space, params)
    psi0 = fs.coherent_state(space, 1j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.6, 61)
    series = ev.evolve_unitary(h, psi0, grid, {"energy": h})
    energy = series["energy"].values
    scale = max(abs(energy[0]), params.omega)
    assert series["norm_drift"].values.max() < 1e-9
    assert np.abs(energy - energy[0]).max() < 1e-8 * scale


def test_unitary_rejects_invalid_inputs(small_space):
    a = fs.mode_lowering(small_space, "x")
    psi0 = fs.coherent_state(small_space, 0.5, 0)
    grid = TimeGrid(0.0, 1.0, 3)
    with pytest.raises(NonHermitianError):
        ev.evolve_unitary(a, psi0, grid, {})
    h = fs.identity(small_space)
    with pytest.raises(NonHermitianError):
        ev.evolve_unitary(h, psi0, grid, {"a": a})
    with pytest.raises(DomainError):
        ev.evolve_unitary(h, fs.coherent_state(SpaceSpec(4, 4), 0.5, 0), grid, {})
    for monitor in ev.MONITORS:
        with pytest.raises(DomainError):
            ev.evolve_unitary(h, psi0, grid, {monitor: h})
        with pytest.raises(DomainError):
            ev.evolve_lindblad(h, NoiseSpec(), psi0, grid, {monitor: h})


def _random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / (2 * math.sqrt(d))  # spectrum within about +-2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unitary_series_match_per_sample_oracle(small_space, seed):
    # random H, random pure inputs, several observables (most not conserved):
    # the block path against per-sample oracles; a mixed input is refused
    rng = np.random.default_rng(seed)
    d = small_space.dim
    h = LinOp(_random_hermitian(rng, d), small_space)
    ops = observables(small_space) | {
        "random": LinOp(_random_hermitian(rng, d), small_space),
        "energy": h,
    }
    grid = TimeGrid(rng.uniform(0, 0.5), rng.uniform(1.0, 2.0), 9)
    times = grid.times - grid.t_start

    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi0 = QState("pure", vec / np.linalg.norm(vec), small_space)
    series = ev.evolve_unitary(h, psi0, grid, ops)
    want = oracle_series(h.matrix, psi0.data, ops, times)
    for label in ops:
        assert np.abs(series[label].values - want[label]).max() < 1e-12
    assert series["norm_drift"].values.max() < 1e-12

    vecs = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    q = np.linalg.qr(vecs)[0]
    rho = q @ np.diag([0.5, 0.3, 0.2]) @ q.conj().T
    with pytest.raises(DomainError):
        ev.evolve_unitary(h, QState("mixed", rho, small_space), grid, ops)


# --- dephasing master equation ---------------------------------------------------


@pytest.fixture(scope="module")
def tiny():
    return SpaceSpec(6, 6)


def _rk4_oracle(h, noise, state, grid, observables):
    """The classic 4th-order Runge-Kutta master equation on the full rho.

    The reference for the split-step propagator: always stepped at
    dt_max = 0.2 us, with the same monitors and the same evaluation of the
    observables on the Hermitian, trace-normalized rho.
    """
    hm = h.matrix
    mask = ev._dephasing_mask(h.space, noise)

    def rhs(r):
        return -1j * (hm @ r - r @ hm) + mask * r

    rho = state.to_density()
    times = grid.times
    seg = times[1] - times[0]
    n_sub = max(1, math.ceil(seg / 2e-4))
    dt = seg / n_sub

    values = {label: np.empty(grid.n_samples, dtype=complex) for label in observables}
    values |= {m: np.empty(grid.n_samples) for m in ev.MONITORS if m != "norm_drift"}
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
    return values


def _random_density(rng, space, rank):
    vecs = rng.normal(size=(space.dim, rank)) + 1j * rng.normal(size=(space.dim, rank))
    rho = vecs @ np.diag(rng.uniform(0.2, 1.0, rank)) @ vecs.conj().T
    return QState("mixed", rho / np.trace(rho).real, space)


@pytest.mark.parametrize(
    "seed, r, kind",
    [(0, 0.5, "pure"), (1, 1.0, "mixed"), (2, 2.0, "pure"), (3, 1.0, "parity-mixing")],
)
def test_lindblad_matches_rk4_oracle(seed, r, kind):
    # the split step at the default substep cap against RK4 at 0.2 us, on a
    # P-even (sigma_z) and a P-odd (x) observable; the last case adds a
    # random Hermitian term that couples the P-sectors, so H is one block
    rng = np.random.default_rng(seed)
    space = SpaceSpec(4, 4)
    params = SimParams.from_khz(4.2, r=r)
    h = md.weyl_hamiltonian(space, params)
    alpha = 0.7 * np.exp(2j * np.pi * rng.uniform())
    if kind == "pure":
        state = fs.coherent_state(space, alpha, 0.3 * alpha, "plus_x")
    else:
        state = _random_density(rng, space, 3)
    if kind == "parity-mixing":
        h = h + LinOp(params.omega * _random_hermitian(rng, space.dim), space)
    noise = NoiseSpec(*rng.uniform(1.0, 4.0, 2))
    ops = {"sigma_z": fs.pauli(space, "z"), "x": fs.quadrature(space, "x", "position")}
    grid = TimeGrid(0.0, 0.1, 11)
    series = ev.evolve_lindblad(h, noise, state, grid, ops)
    want = _rk4_oracle(h, noise, state, grid, ops)
    assert set(series) == set(want)
    for label, values in want.items():
        assert np.abs(series[label].values - values).max() < 1e-8, label


def test_lindblad_evolves_parity_blocks(monkeypatch):
    # a Weyl H commutes with P = sigma_z (-1)^(n_x + n_y): with a P-even
    # observable only the two d/2 sectors are diagonalized and monitored;
    # a P-odd one also needs the coherences, so min_eig is taken on full d
    space = SpaceSpec(4, 4)
    params = SimParams.from_khz(4.2, r=1.0, tau_d_x=4.0, tau_d_y=3.5)
    h = md.weyl_hamiltonian(space, params)
    psi0 = fs.coherent_state(space, 0.8j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.05, 6)
    dims = {"eigh": [], "eigvalsh": []}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            dims[name].append(len(a))
            return original(a, *args, **kwargs)

        return wrapper

    for name in dims:
        monkeypatch.setattr(np.linalg, name, counting(name))
    noise = NoiseSpec.from_params(params)
    ev.evolve_lindblad(h, noise, psi0, grid, {"sigma_z": fs.pauli(space, "z")})
    assert set(dims["eigh"]) == set(dims["eigvalsh"]) == {space.dim // 2}
    for seen in dims.values():
        seen.clear()
    ev.evolve_lindblad(h, noise, psi0, grid, {"x": fs.quadrature(space, "x")})
    assert set(dims["eigh"]) == {space.dim // 2}
    assert set(dims["eigvalsh"]) == {space.dim}


def test_lindblad_matches_unitary_without_noise(tiny):
    params = SimParams.from_khz(4.2, r=1.0)
    h = md.weyl_hamiltonian(tiny, params)
    psi0 = fs.coherent_state(tiny, 0.8j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.3, 31)
    sz = {"sigma_z": fs.pauli(tiny, "z")}
    unit = ev.evolve_unitary(h, psi0, grid, sz)["sigma_z"]
    noiseless = ev.evolve_lindblad(h, NoiseSpec(), psi0, grid, sz)["sigma_z"]
    assert np.abs(unit.values - noiseless.values).max() < 1e-8
    # huge but finite dephasing time behaves the same way
    weak = ev.evolve_lindblad(h, NoiseSpec(1e6, 1e6), psi0, grid, sz)["sigma_z"]
    assert np.abs(unit.values - weak.values).max() < 1e-5


def test_pure_dephasing_analytic_decay(tiny):
    # with H = 0 the mode average obeys <a>(t) = alpha e^{-t/tau} exactly,
    # while the occupation stays constant; <a> = (<x> + i <p>) / sqrt(2)
    tau = 2.0
    alpha = 0.9j
    h = 0.0 * fs.identity(tiny)
    psi0 = fs.coherent_state(tiny, alpha, 0)
    grid = TimeGrid(0.0, 1.0, 21)
    n_op = fs.number_operator(tiny, "x")
    ops = {
        "x": fs.quadrature(tiny, "x", "position"),
        "p": fs.quadrature(tiny, "x", "momentum"),
        "n": n_op,
    }
    series = ev.evolve_lindblad(h, NoiseSpec(tau_d_x=tau), psi0, grid, ops)
    a_op = fs.mode_lowering(tiny, "x").matrix
    n0 = fs.expectation(n_op, psi0)
    mean_a0 = np.trace(psi0.to_density() @ a_op)  # truncation shifts it off alpha
    mean_a = (series["x"].values + 1j * series["p"].values) / math.sqrt(2)
    for t, value in zip(grid.times, mean_a):
        assert abs(value - mean_a0 * math.exp(-t / tau)) < 1e-9
    assert np.abs(series["n"].values - n0).max() < 1e-8
    mags = np.abs(mean_a)
    assert all(b - a < 1e-10 for a, b in zip(mags, mags[1:]))


def test_fock_state_invariant_under_dephasing(tiny):
    h = 0.0 * fs.identity(tiny)
    psi0 = fs.basis_state(tiny, "minus_z", 3, 1)
    grid = TimeGrid(0.0, 0.5, 6)
    projector = LinOp(psi0.to_density(), tiny)
    series = ev.evolve_lindblad(
        h, NoiseSpec(1.5, 2.5), psi0, grid, {"projector": projector}
    )
    assert np.abs(series["projector"].values - 1.0).max() < 1e-12
    assert series["trace_drift"].values.max() < 1e-12


def test_lindblad_invariants_at_every_sample(tiny):
    params = SimParams.from_khz(4.2, r=1.0, tau_d_x=4.0, tau_d_y=3.5)
    h = md.weyl_hamiltonian(tiny, params)
    psi0 = fs.coherent_state(tiny, 1j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.3, 16)
    series = ev.evolve_lindblad(h, NoiseSpec.from_params(params), psi0, grid, {})
    assert set(series) == {"trace_drift", "hermiticity", "min_eig"}
    assert series["trace_drift"].values.max() < 1e-8
    assert series["hermiticity"].values.max() < 1e-8
    assert series["min_eig"].values.min() >= -1e-8


def test_lindblad_memory_does_not_grow_with_samples(tiny):
    # only the current density matrix is held, so 201 output samples cost
    # no more than 21 beyond the series themselves (far below one rho)
    params = SimParams.from_khz(4.2, r=1.0, tau_d_x=4.0, tau_d_y=3.5)
    h = md.weyl_hamiltonian(tiny, params)
    psi0 = fs.coherent_state(tiny, 1j, 0, "plus_z")
    sz = {"sigma_z": fs.pauli(tiny, "z")}
    noise = NoiseSpec.from_params(params)
    peaks = {}
    for n_samples in (21, 201):
        grid = TimeGrid(0.0, 0.3, n_samples)
        tracemalloc.start()
        try:
            ev.evolve_lindblad(h, noise, psi0, grid, sz)
            peaks[n_samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    rho_bytes = tiny.dim**2 * 16
    assert peaks[201] - peaks[21] < rho_bytes


def test_step_halving_convergence(tiny):
    params = SimParams.from_khz(4.2, r=1.0, tau_d_x=4.0, tau_d_y=3.5)
    h = md.weyl_hamiltonian(tiny, params)
    psi0 = fs.coherent_state(tiny, 1j, 0, "plus_z")
    sz = {"sigma_z": fs.pauli(tiny, "z")}
    coarse = TimeGrid(0.0, 0.3, 16, dt_max=2e-4)
    fine = TimeGrid(0.0, 0.3, 16, dt_max=1e-4)
    noise = NoiseSpec.from_params(params)
    a = ev.evolve_lindblad(h, noise, psi0, coarse, sz)["sigma_z"]
    b = ev.evolve_lindblad(h, noise, psi0, fine, sz)["sigma_z"]
    assert np.abs(a.values - b.values).max() < 1e-7


def test_integrator_blowup_raises(tiny):
    # a wildly oversized step breaks the conservation monitors
    params = SimParams.from_khz(40.0, r=1.0)
    h = md.weyl_hamiltonian(tiny, params)
    psi0 = fs.coherent_state(tiny, 1j, 0, "plus_z")
    grid = TimeGrid(0.0, 1.0, 3, dt_max=0.5)
    with pytest.raises((ConvergenceError, PositivityError)):
        ev.evolve_lindblad(h, NoiseSpec(0.001, 0.001), psi0, grid, {})


def test_nan_inputs_are_rejected(tiny):
    # a NaN compares false against every tolerance, so the checks are
    # written to fail on it
    h = md.weyl_hamiltonian(tiny, SimParams.from_khz(4.2, r=1.0))
    psi0 = fs.coherent_state(tiny, 0.5j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.01, 3)
    nan_matrix = np.array(h.matrix)
    nan_matrix[3, 5] = np.nan
    nan_op = LinOp(nan_matrix, tiny)
    sz = {"sigma_z": fs.pauli(tiny, "z")}

    def noisy(h, state, grid, observables):
        return ev.evolve_lindblad(h, NoiseSpec(4.0, 3.5), state, grid, observables)

    for propagate in (ev.evolve_unitary, noisy):
        with pytest.raises(NonHermitianError):
            propagate(nan_op, psi0, grid, sz)
        with pytest.raises(NonHermitianError):
            propagate(h, psi0, grid, {"nan": nan_op})


def test_grid_validation():
    nan, inf = math.nan, math.inf
    for args in [
        (0.0, 0.0, 5),
        (0.0, 1.0, 1),
        (0.0, 1.0, 5, 0.0),
        (0.0, 1.0, 5, nan),
        (nan, 1.0, 5),
        (0.0, nan, 5),
        (-inf, 1.0, 5),
        (0.0, inf, 5),
    ]:
        with pytest.raises(DomainError):
            TimeGrid(*args)
    for taus in [(-1.0, inf), (inf, nan)]:
        with pytest.raises(DomainError):
            NoiseSpec(*taus)
