import math
import tracemalloc

import numpy as np
import pytest

from weylsim import evolve as ev
from weylsim import fockspace as fs
from weylsim import model as md
from weylsim import scenarios as sc
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


def test_zero_hamiltonian_is_constant(small_space, dense_unitary):
    # the dense oracle the sector propagator is checked against
    h = LinOp(np.zeros((small_space.dim,) * 2), small_space)
    psi0 = fs.coherent_state(small_space, 0.5j, 0.2, "plus_x")
    ops = observables(small_space)
    series = dense_unitary(h, psi0, TimeGrid(0.0, 1.0, 7), ops)
    for label, op in ops.items():
        assert np.abs(series[label].values - fs.expectation(op, psi0)).max() < 1e-12
    assert series["norm_drift"].values.max() < 1e-12


def test_zero_mode_is_stationary(sm_space, dense_unitary):
    params = SimParams.from_khz(4.2, r=1.0)
    h = md.transformed_hamiltonian(sm_space, params)
    psi0 = md.landau_eigenstate(sm_space, 0, "zero")
    grid = TimeGrid(0.0, 0.6, 31)
    sz = dense_unitary(h, psi0, grid, {"sigma_z": fs.pauli(sm_space, "z")})
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
    obs = md.field_observables(space, params)
    labels = ("x", "y", "p_y", "sigma_x", "sigma_y", "sigma_z")
    terms = {k: obs[k] for k in labels} | {"p_x": obs["pi_x"]}  # r = 0
    series = ev.evolve_unitary(params, psi0, grid, terms)
    ops = observables(space) | {"sigma_y": fs.pauli(space, "y")}
    want = oracle_series(h.matrix, psi0.data, ops, grid.times)
    for label in ops:
        assert np.abs(series[label].values - want[label]).max() < 1e-12


def test_unitary_norm_and_energy_conserved(space):
    params = SimParams.from_khz(4.2, r=1.0)
    psi0 = fs.coherent_state(space, 1j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.6, 61)
    energy_terms = md.weyl_terms(space, params)
    series = ev.evolve_unitary(params, psi0, grid, {"energy": energy_terms})
    energy = series["energy"].values
    scale = max(abs(energy[0]), params.omega)
    assert series["norm_drift"].values.max() < 1e-9
    assert np.abs(energy - energy[0]).max() < 1e-8 * scale


def test_unitary_rejects_invalid_inputs(small_space):
    params = SimParams.from_khz(4.2, r=1.0)
    psi0 = fs.coherent_state(small_space, 0.5, 0)
    grid = TimeGrid(0.0, 1.0, 3)
    sz = md.field_observables(small_space, params)["sigma_z"]
    lower = fs.mode_lowering(fs.SingleModeSpec(small_space.n_max_x), "x").matrix
    with pytest.raises(NonHermitianError):
        ev.evolve_unitary(params, psi0, grid, {"a": [(lower, sz[0][1])]})
    with pytest.raises(DomainError):  # observable on another space
        other = md.field_observables(SpaceSpec(4, 4), params)["sigma_z"]
        ev.evolve_unitary(params, psi0, grid, {"sigma_z": other})
    with pytest.raises(DomainError):  # single-mode state
        sm = fs.SingleModeSpec(4)
        ev.evolve_unitary(params, md.landau_eigenstate(sm, 0), grid, {})
    rho = QState("mixed", psi0.to_density(), small_space)
    with pytest.raises(DomainError):
        ev.evolve_unitary(params, rho, grid, {"sigma_z": sz})
    h = LinOp(np.eye(small_space.dim), small_space)
    for monitor in ev.MONITORS:
        with pytest.raises(DomainError):
            ev.evolve_unitary(params, psi0, grid, {monitor: sz})
        with pytest.raises(DomainError):
            ev.evolve_lindblad(h, NoiseSpec(), psi0, grid, {monitor: h})


def _random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / (2 * math.sqrt(d))  # spectrum within about +-2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unitary_series_match_per_sample_oracle(small_space, seed, dense_unitary):
    # the dense oracle, diagonalized once, against per-sample propagation:
    # random H, random pure input, several observables (most not conserved)
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
    series = dense_unitary(h, psi0, grid, ops)
    want = oracle_series(h.matrix, psi0.data, ops, times)
    for label in ops:
        assert np.abs(series[label].values - want[label]).max() < 1e-12
    assert series["norm_drift"].values.max() < 1e-12


def _random_pure(rng, space, entangled):
    """Random product |spin>|alpha_x>|alpha_y>, or a random superposition
    of two of them with opposite spins (spin-motion entangled)."""

    def product(spin_vec):
        alphas = [
            rng.uniform(0, 0.5 * math.sqrt(n)) * np.exp(2j * math.pi * rng.uniform())
            for n in (space.n_max_x, space.n_max_y)
        ]
        motion = np.kron(
            fs.coherent_amplitudes(alphas[0], space.n_max_x + 1),
            fs.coherent_amplitudes(alphas[1], space.n_max_y + 1),
        )
        return np.kron(spin_vec, motion)

    spin = rng.normal(size=2) + 1j * rng.normal(size=2)
    spin /= np.linalg.norm(spin)
    vec = product(spin)
    if entangled:
        flipped = np.array([-spin[1].conj(), spin[0].conj()])  # orthogonal spin
        vec = vec + rng.uniform(0.5, 2) * product(flipped)
    return QState("pure", vec / np.linalg.norm(vec), space)


@pytest.mark.parametrize("seed", range(4))
def test_sector_propagator_matches_dense_oracle(seed, dense_unitary):
    # the p_y-sector propagator against the dense H on the full space, built
    # here from the embedded operators (not from the product terms)
    rng = np.random.default_rng(seed)
    n_x, n_y = rng.choice(np.arange(4, 13), size=2, replace=False)
    space = SpaceSpec(int(n_x), int(n_y))
    params = SimParams.from_khz(rng.uniform(3, 6), r=rng.uniform(0.3, 3))
    sx, sy = fs.pauli(space, "x"), fs.pauli(space, "y")
    x, y = fs.quadrature(space, "x", "position"), fs.quadrature(space, "y", "position")
    px = fs.quadrature(space, "x", "momentum")
    py = fs.quadrature(space, "y", "momentum")
    pi_y = py - params.r * x
    h = (params.omega / math.sqrt(2)) * (sx @ px + sy @ pi_y)
    dense = {
        "sigma_x": sx,
        "sigma_y": sy,
        "sigma_z": fs.pauli(space, "z"),
        "x": x,
        "y": y,
        "pi_x": px,
        "pi_y": pi_y,
        "p_y": py,
    }
    terms = md.field_observables(space, params)
    assert set(terms) == set(dense)
    t_start = rng.uniform(0, 0.1)
    n_samples = int(rng.integers(20, 60))
    grid = TimeGrid(t_start, t_start + rng.uniform(0.2, 0.6), n_samples)
    for entangled in (False, True):
        psi0 = _random_pure(rng, space, entangled)
        got = ev.evolve_unitary(params, psi0, grid, terms)
        want = dense_unitary(h, psi0, grid, dense)
        for label in dense:
            assert np.abs(got[label].values - want[label].values).max() < 1e-10, label
        assert got["norm_drift"].values.max() < 1e-12


def test_unitary_memory_does_not_grow_with_samples():
    # samples are propagated in bounded chunks: 2001 samples of noiseless
    # Landau cost no more than 201 beyond the output series themselves
    # (one sector block at most)
    cfg = sc.default_config("landau", n_max=12, noise_on=False)
    psi0 = fs.coherent_state(cfg.space, cfg.alpha_x, cfg.alpha_y, cfg.initial_spin)
    sz = {"sigma_z": md.field_observables(cfg.space, cfg.params)["sigma_z"]}
    peaks = {}
    for n_samples in (201, 2001):
        grid = TimeGrid(0.0, 0.6, n_samples)
        tracemalloc.start()
        try:
            ev.evolve_unitary(cfg.params, psi0, grid, sz)
            peaks[n_samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    m = 2 * (cfg.space.n_max_x + 1)
    block = m * m * 16
    series = (2001 - 201) * 8 * 8  # grid, values, drift and their copies
    assert peaks[2001] - peaks[201] < block + series


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


@pytest.mark.parametrize("r", [0.37, 1.0, 2.0])
@pytest.mark.parametrize("n_max_x, n_max_y", [(5, 7), (7, 4)])
def test_weyl_hamiltonian_is_imaginary_in_the_gauge(r, n_max_x, n_max_y):
    # G^dag H G = iB exactly, so every split-step unitary factor is real
    # orthogonal; a spin +z input with imaginary alpha_x and real alpha_y
    # is real in the gauge, so its density matrix has no imaginary part
    space = SpaceSpec(n_max_x, n_max_y)
    phase = ev._gauge(space)
    h = md.weyl_hamiltonian(space, SimParams.from_khz(4.2, r=r)).matrix
    h_g = phase.conj()[:, None] * h * phase
    assert not np.any(h_g.real)
    assert np.abs(h_g + h_g.T).max() == 0  # B is antisymmetric
    psi = phase.conj() * fs.coherent_state(space, 0.7j, 0.3, "plus_z").data
    assert not np.any(psi.imag)


@pytest.mark.parametrize(
    "seed, r, kind",
    [
        (0, 0.5, "pure"),
        (1, 1.0, "mixed"),
        (2, 2.0, "pure"),
        (3, 1.0, "parity-mixing"),
        (4, 1.0, "real"),
    ],
)
def test_lindblad_matches_rk4_oracle(seed, r, kind):
    # the split step at the default substep cap against RK4 at 0.2 us, on a
    # P-even (sigma_z) and a P-odd (x) observable. The pure and mixed
    # inputs have real and imaginary parts in the gauge, the "real" one
    # only a real part; "parity-mixing" adds a random Hermitian term that
    # couples the P-sectors and is not imaginary in the gauge, so H is one
    # complex block
    rng = np.random.default_rng(seed)
    space = SpaceSpec(4, 4)
    params = SimParams.from_khz(4.2, r=r)
    h = md.weyl_hamiltonian(space, params)
    alpha = 0.7 * np.exp(2j * np.pi * rng.uniform())
    if kind == "pure":
        state = fs.coherent_state(space, alpha, 0.3 * alpha, "plus_x")
    elif kind == "real":
        state = fs.coherent_state(space, 0.7j, 0.3, "plus_z")
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
    # a P-odd one also needs the coherences, so min_eig is taken on full d.
    # The landau default input is real in the gauge, so the monitor gets
    # real blocks; a plus_x input has an imaginary part and complex ones
    space = SpaceSpec(4, 4)
    params = SimParams.from_khz(4.2, r=1.0, tau_d_x=4.0, tau_d_y=3.5)
    h = md.weyl_hamiltonian(space, params)
    cfg = sc.default_config("landau")
    psi0 = fs.coherent_state(space, cfg.alpha_x, cfg.alpha_y, cfg.initial_spin)
    grid = TimeGrid(0.0, 0.05, 6)
    dims = {"eigh": [], "eigvalsh": []}
    kinds = {"eigh": set(), "eigvalsh": set()}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            dims[name].append(len(a))
            kinds[name].add(a.dtype.kind)
            return original(a, *args, **kwargs)

        return wrapper

    for name in dims:
        monkeypatch.setattr(np.linalg, name, counting(name))

    def run(state, obs):
        for seen in (*dims.values(), *kinds.values()):
            seen.clear()
        ev.evolve_lindblad(h, NoiseSpec.from_params(params), state, grid, obs)

    sz = {"sigma_z": fs.pauli(space, "z")}
    run(psi0, sz)
    assert set(dims["eigh"]) == set(dims["eigvalsh"]) == {space.dim // 2}
    assert kinds["eigvalsh"] == {"f"}
    run(psi0, {"x": fs.quadrature(space, "x")})
    assert set(dims["eigh"]) == {space.dim // 2}
    assert set(dims["eigvalsh"]) == {space.dim}
    assert kinds["eigvalsh"] == {"f"}
    run(fs.coherent_state(space, cfg.alpha_x, cfg.alpha_y, "plus_x"), sz)
    assert set(dims["eigvalsh"]) == {space.dim // 2}
    assert kinds["eigvalsh"] == {"c"}


def test_lindblad_matches_unitary_without_noise(tiny):
    params = SimParams.from_khz(4.2, r=1.0)
    h = md.weyl_hamiltonian(tiny, params)
    psi0 = fs.coherent_state(tiny, 0.8j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.3, 31)
    sz = {"sigma_z": fs.pauli(tiny, "z")}
    sz_terms = {"sigma_z": md.field_observables(tiny, params)["sigma_z"]}
    unit = ev.evolve_unitary(params, psi0, grid, sz_terms)["sigma_z"]
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
    h = LinOp(np.zeros((tiny.dim,) * 2), tiny)
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
    h = LinOp(np.zeros((tiny.dim,) * 2), tiny)
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
    params = SimParams.from_khz(4.2, r=1.0)
    h = md.weyl_hamiltonian(tiny, params)
    psi0 = fs.coherent_state(tiny, 0.5j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.01, 3)
    nan_matrix = np.array(h.matrix)
    nan_matrix[3, 5] = np.nan
    nan_op = LinOp(nan_matrix, tiny)
    sz = {"sigma_z": fs.pauli(tiny, "z")}
    noise = NoiseSpec(4.0, 3.5)
    with pytest.raises(NonHermitianError):
        ev.evolve_lindblad(nan_op, noise, psi0, grid, sz)
    with pytest.raises(NonHermitianError):
        ev.evolve_lindblad(h, noise, psi0, grid, {"nan": nan_op})
    (a, b), = md.field_observables(tiny, params)["sigma_z"]
    for nan_factor in ((a * np.nan, b), (a, b * np.nan)):
        with pytest.raises(NonHermitianError):
            ev.evolve_unitary(params, psi0, grid, {"nan": [nan_factor]})


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
