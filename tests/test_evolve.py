import math
import tracemalloc
from dataclasses import replace

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
from weylsim.evolve import TimeGrid
from weylsim.fockspace import QState, SpaceSpec
from weylsim.model import SimParams

from conftest import (
    dense_unitary,
    expectation,
    full_operator,
    mode_operator,
    pauli,
    sector_hamiltonian,
    transformed_hamiltonian,
    weyl_hamiltonian,
)


def oracle_propagate(h_matrix, psi, t):
    """Independent spectral propagator used as the reference in this file."""
    evals, evecs = np.linalg.eigh(h_matrix)
    return evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi))


# --- unitary ------------------------------------------------------------------


def oracle_series(h_matrix, psi, ops, times):
    """Per-sample expectations of each operator on oracle-propagated states."""
    states = [oracle_propagate(h_matrix, psi, t) for t in times]
    return {
        label: np.array([np.vdot(st, op @ st).real for st in states])
        for label, op in ops.items()
    }


def observables(space):
    return {
        "x": mode_operator(space, "x", "position"),
        "p_x": mode_operator(space, "x", "momentum"),
        "y": mode_operator(space, "y", "position"),
        "p_y": mode_operator(space, "y", "momentum"),
        "sigma_x": pauli(space, "x"),
        "sigma_z": pauli(space, "z"),
    }


def test_zero_hamiltonian_is_constant(small_space):
    # the dense oracle the sector propagator is checked against
    h = np.zeros((small_space.dim,) * 2)
    psi0 = fs.coherent_state(small_space, 0.5j, 0.2, "plus_x")
    ops = observables(small_space)
    series = dense_unitary(h, psi0, TimeGrid(0.0, 1.0, 7), ops)
    for label, op in ops.items():
        assert np.abs(series[label].values - expectation(op, psi0)).max() < 1e-12
    assert series["norm_drift"].values.max() < 1e-12


def test_zero_mode_is_stationary(sm_space):
    params = SimParams.from_khz(4.2, r=1.0)
    h = transformed_hamiltonian(sm_space, params)
    psi0 = md.landau_eigenstate(sm_space, 0, "zero")
    grid = TimeGrid(0.0, 0.6, 31)
    sz = dense_unitary(h, psi0, grid, {"sigma_z": pauli(sm_space, "z")})
    assert np.abs(sz["sigma_z"].values - 1.0).max() < 1e-12


def test_early_slope_matches_finite_difference_oracle(space):
    # d<sy>/dt at 0 equals -2 (omega/sqrt(2)) p for the free model at p = 1
    omega = md.khz(4.75)
    params = SimParams(omega=omega, r=0.0)
    h = weyl_hamiltonian(space, params)
    psi0 = fs.coherent_state(space, 1j / math.sqrt(2), 0, "plus_z")
    sy = pauli(space, "y")

    eps = 1e-5
    plus = oracle_propagate(h, psi0.data, eps)
    minus = oracle_propagate(h, psi0.data, -eps)
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
    series = ev.evolve_unitary(ev.weyl_sectors(params, space), psi0, grid, terms)
    ops = observables(space) | {"sigma_y": sy}
    want = oracle_series(h, psi0.data, ops, grid.times)
    for label in ops:
        assert np.abs(series[label].values - want[label]).max() < 1e-12


def test_unitary_norm_and_energy_conserved(space):
    params = SimParams.from_khz(4.2, r=1.0)
    psi0 = fs.coherent_state(space, 1j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.6, 61)
    # H as products (A, B) of the field observables: sigma_x pi_x + sigma_y pi_y
    obs = md.field_observables(space, params)
    energy_terms = [
        (params.omega / math.sqrt(2) * obs[spin][0][0] @ a, b)
        for spin, pi in (("sigma_x", "pi_x"), ("sigma_y", "pi_y"))
        for a, b in obs[pi]
    ]
    sectors = ev.weyl_sectors(params, space)
    series = ev.evolve_unitary(sectors, psi0, grid, {"energy": energy_terms})
    energy = series["energy"].values
    scale = max(abs(energy[0]), params.omega)
    assert series["norm_drift"].values.max() < 1e-9
    assert np.abs(energy - energy[0]).max() < 1e-8 * scale


@pytest.mark.parametrize(
    "propagate", [ev.evolve_unitary, ev.evolve_lindblad], ids=["unitary", "lindblad"]
)
def test_propagators_reject_invalid_inputs(small_space, propagate):
    # both propagators take the same product observables and refuse the
    # same malformed ones before any propagation; a single-mode space has
    # no p_y sectors, and its state is not on the sectors' space
    params = SimParams.from_khz(4.2, r=1.0)
    sectors = ev.weyl_sectors(params, small_space)
    psi0 = fs.coherent_state(small_space, 0.5, 0)
    grid = TimeGrid(0.0, 1.0, 3)
    sz = md.field_observables(small_space, params)["sigma_z"]
    lower = fs.mode_matrix(small_space.n_max_x + 1, "lower")
    with pytest.raises(NonHermitianError):
        propagate(sectors, psi0, grid, {"a": [(np.kron(np.eye(2), lower), sz[0][1])]})
    with pytest.raises(DomainError):  # observable on another space
        other = md.field_observables(SpaceSpec(4, 4), params)["sigma_z"]
        propagate(sectors, psi0, grid, {"sigma_z": other})
    sm = fs.SpaceSpec(4, 0)
    with pytest.raises(DomainError):
        ev.weyl_sectors(params, sm)
    with pytest.raises(DomainError):  # single-mode state
        propagate(sectors, md.landau_eigenstate(sm, 0), grid, {})
    for monitor in ev.MONITORS:
        with pytest.raises(DomainError):
            propagate(sectors, psi0, grid, {monitor: sz})
    if propagate is ev.evolve_unitary:
        rho = QState("mixed", psi0.to_density(), small_space)
        with pytest.raises(DomainError):
            propagate(sectors, rho, grid, {"sigma_z": sz})


@pytest.mark.parametrize(
    "bad",
    [
        complex(math.nan, 0),
        complex(0, math.nan),
        math.inf,
        -math.inf,
        complex(0, math.inf),
    ],
    ids=["nan_real", "nan_imag", "inf", "-inf", "inf_imag"],
)
def test_series_refuses_non_finite_values(bad):
    # a NaN compares False with any bound, so it is refused as such
    grid = TimeGrid(0.0, 1.0, 5)
    with pytest.raises(ConvergenceError, match="not finite"):
        ev._series(grid, "x", np.array([bad, 1, 2, 3, 4], dtype=complex))
    with pytest.raises(NonHermitianError, match="imaginary residual"):
        ev._series(grid, "x", np.array([1e-8j, 1, 2, 3, 4]))
    within = ev._series(grid, "x", np.arange(5) + 1e-10j)
    assert np.array_equal(within.values, np.arange(5))


def _random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / (2 * math.sqrt(d))  # spectrum within about +-2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unitary_series_match_per_sample_oracle(small_space, seed):
    # the dense oracle, diagonalized once, against per-sample propagation:
    # random H, random pure input, several observables (most not conserved)
    rng = np.random.default_rng(seed)
    d = small_space.dim
    h = _random_hermitian(rng, d)
    ops = observables(small_space) | {"random": _random_hermitian(rng, d), "energy": h}
    grid = TimeGrid(rng.uniform(0, 0.5), rng.uniform(1.0, 2.0), 9)
    times = grid.times - grid.t_start

    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi0 = QState("pure", vec / np.linalg.norm(vec), small_space)
    series = dense_unitary(h, psi0, grid, ops)
    want = oracle_series(h, psi0.data, ops, times)
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


def _assert_matches_dense(params, grid, inputs):
    """evolve_unitary of each input against the dense H on the full space,
    built here from the embedded operators (not from the product terms)."""
    space = inputs[0].space
    sx, sy = pauli(space, "x"), pauli(space, "y")
    x, y = mode_operator(space, "x", "position"), mode_operator(space, "y", "position")
    px = mode_operator(space, "x", "momentum")
    py = mode_operator(space, "y", "momentum")
    pi_y = py - params.r * x
    h = (params.omega / math.sqrt(2)) * (sx @ px + sy @ pi_y)
    dense = {
        "sigma_x": sx,
        "sigma_y": sy,
        "sigma_z": pauli(space, "z"),
        "x": x,
        "y": y,
        "pi_x": px,
        "pi_y": pi_y,
        "p_y": py,
    }
    terms = md.field_observables(space, params)
    assert set(terms) == set(dense)
    sectors = ev.weyl_sectors(params, space)
    for psi0 in inputs:
        got = ev.evolve_unitary(sectors, psi0, grid, terms)
        want = dense_unitary(h, psi0, grid, dense)
        for label in dense:
            assert np.abs(got[label].values - want[label].values).max() < 1e-10, label
        assert got["norm_drift"].values.max() < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_sector_propagator_matches_dense_oracle(seed):
    # the p_y-sector propagator against the dense H, on random spaces,
    # parameters and product and entangled inputs
    rng = np.random.default_rng(seed)
    n_x, n_y = rng.choice(np.arange(4, 13), size=2, replace=False)
    space = SpaceSpec(int(n_x), int(n_y))
    params = SimParams.from_khz(rng.uniform(3, 6), r=rng.uniform(0.3, 3))
    t_start = rng.uniform(0, 0.1)
    n_samples = int(rng.integers(20, 60))
    grid = TimeGrid(t_start, t_start + rng.uniform(0.2, 0.6), n_samples)
    inputs = [_random_pure(rng, space, entangled) for entangled in (False, True)]
    _assert_matches_dense(params, grid, inputs)


def test_sector_propagator_matches_dense_oracle_on_far_sectors():
    # |alpha_y = 1.5i> has amplitude below 1e-16 on the four p_y sectors
    # farthest from its mean, whose partners at -p it occupies: all
    # n_max_y + 1 sectors are decomposed, and the series match the dense H
    space = SpaceSpec(4, 40)
    params = SimParams.from_khz(4.2, r=0.8)
    psi0 = fs.coherent_state(space, 0.5 - 0.3j, 1.5j, "plus_x")
    basis = fs.quadrature_eigenbasis(space.n_max_y + 1, "momentum")[1]
    amplitudes = fs.coherent_amplitudes(1.5j, space.n_max_y + 1) @ basis.conj()
    assert np.flatnonzero(np.abs(amplitudes) < 1e-16).tolist() == [0, 1, 2, 3]
    assert len(ev.weyl_sectors(params, space).evals) == space.n_max_y + 1
    _assert_matches_dense(params, TimeGrid(0.02, 0.5, 41), [psi0])


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "n_max_x, n_max_y", [(8, 8), (5, 9), (10, 6)], ids=["square", "dy10", "dy7"]
)
def test_sectors_rebuild_the_dense_hamiltonian(r, n_max_x, n_max_y):
    # the closed-form spin-flip blocks, decomposed and summed back over
    # p_y's projectors, give the oracle H built from the embedded operators
    space = SpaceSpec(n_max_x, n_max_y)
    params = SimParams.from_khz(4.2, r=r)
    h = weyl_hamiltonian(space, params)
    rebuilt = sector_hamiltonian(ev.weyl_sectors(params, space))
    assert np.abs(rebuilt - h).max() <= 1e-14 * np.abs(h).max()


@pytest.mark.parametrize("n_max", [17, 19, 23, 40])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_sector_basis_is_orthogonal(r, n_max):
    # each sector's eigenbasis, built from the SVD of its spin-flip block,
    # is orthogonal by construction and diagonalizes H_k, rebuilt here from
    # the product terms in the qubit basis (|+z>, i|-z>)
    space = SpaceSpec(n_max, n_max)
    params = SimParams.from_khz(4.2, r=r)
    _assert_sector_basis(params, ev.weyl_sectors(params, space))


def _sector_hamiltonians(params, sectors) -> np.ndarray:
    """H_k of each sector in the qubit basis (|+z>, i|-z>): conftest's
    `weyl_hamiltonian` projected onto p_y's k-th eigenvector phi_k.

    Its only mode-y factors are 1 and p_y, so the projection is the same
    formula on qubit (x) mode x with p_y replaced by phi_k^dag p_y phi_k;
    no full-space matrix is formed (d = 3362 at n_max 40).
    """
    sm = fs.SpaceSpec(sectors.space.n_max_x, 0)
    p_y, phi = sectors.basis
    p_k = np.einsum("nk,nl,lk->k", phi.conj(), p_y, phi)
    sx, sy = pauli(sm, "x"), pauli(sm, "y")
    base = sx @ mode_operator(sm, "x", "momentum") - params.r * sy @ mode_operator(sm)
    h = (params.omega / math.sqrt(2)) * (base + np.multiply.outer(p_k, sy))
    phase = np.repeat([1, 1j], sectors.space.n_max_x + 1)
    return phase.conj()[:, None] * h * phase


def _sector_basis(sectors) -> np.ndarray:
    """W_k = [[U_k, U_k], [V_k, -V_k]] / sqrt(2) of each sector."""
    u, v = sectors.u, sectors.v
    return np.block([[u, u], [v, -v]]) / math.sqrt(2)


def _assert_sector_basis(params, sectors):
    """Every W_k is orthogonal within 1e-13 and diagonalizes H_k within
    1e-12 ||H_k||."""
    h = _sector_hamiltonians(params, sectors)
    w, evals = _sector_basis(sectors), sectors.evals
    eye = np.eye(w.shape[1])
    assert np.abs(np.swapaxes(w, 1, 2) @ w - eye).max() <= 1e-13
    rotated = np.swapaxes(w, 1, 2) @ h @ w
    scale = np.linalg.norm(h, ord=2, axis=(1, 2))
    defect = np.abs(rotated - evals[:, :, None] * eye).max(axis=(1, 2))
    assert np.all(defect <= 1e-12 * scale)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "n_max_x, n_max_y", [(9, 12), (12, 9)], ids=["dy13", "dy10"]
)
def test_paired_sectors_match_one_svd_per_sector(r, n_max_x, n_max_y):
    # weyl_sectors decomposes one sector of each +-p_y pair and mirrors the
    # other; against one SVD per sector of its own spin-flip block, with an
    # odd (p = 0 unpaired) and an even number of sectors
    space = SpaceSpec(n_max_x, n_max_y)
    params = SimParams.from_khz(4.2, r=r)
    dy, half = n_max_y + 1, n_max_x + 1
    sectors = ev.weyl_sectors(params, space)
    assert len(sectors.evals) == dy
    flip_blocks = _sector_hamiltonians(params, sectors)[:, :half, half:]
    for c, evals in zip(flip_blocks, sectors.evals):
        want = np.linalg.svd(c, compute_uv=False)
        assert np.abs(np.sort(evals[:half])[::-1] - want).max() <= 1e-12 * want[0]
        assert np.array_equal(evals[half:], -evals[:half])
    _assert_sector_basis(params, sectors)


def _forced_products(sectors, state, grid, observables):
    """evolve_unitary with every observable on the W_k x_k product path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ev, "_spin_weights", lambda terms: None)
        return ev.evolve_unitary(sectors, state, grid, observables)


@pytest.mark.parametrize("seed", range(4))
def test_population_path_matches_product_path(seed):
    # observables whose every A is diag(a+ 1, a- 1) on qubit (x) mode x and
    # whose every B commutes with p_y are read from the sector amplitudes;
    # the product path, forced here, is the reference.  A diagonal A that
    # varies over mode x keeps the product path, checked on the dense H
    rng = np.random.default_rng(seed)
    n_x, n_y = rng.choice(np.arange(4, 13), size=2, replace=False)
    space = SpaceSpec(int(n_x), int(n_y))
    params = SimParams.from_khz(rng.uniform(3, 6), r=rng.uniform(0.3, 3))
    obs = md.field_observables(space, params)
    half, dy = space.n_max_x + 1, space.n_max_y + 1
    p_y = fs.mode_matrix(dy, "momentum")
    spins = [np.diag(np.repeat(rng.normal(size=2), half)) for _ in range(2)]
    varying = np.diag(rng.normal(size=2 * half))
    terms = {
        "sigma_z": obs["sigma_z"],
        "p_y": obs["p_y"],
        "spins": [(spins[0], rng.normal() * np.eye(dy)), (spins[1], p_y)],
        "varying": [(varying, rng.normal() * np.eye(dy)), (spins[1], p_y)],
    }
    h = weyl_hamiltonian(space, params)
    grid = TimeGrid(0.0, rng.uniform(0.2, 0.6), int(rng.integers(20, 60)))
    sectors = ev.weyl_sectors(params, space)
    for entangled in (False, True):
        psi0 = _random_pure(rng, space, entangled)
        for label, t in terms.items():
            in_sectors = ev._in_sectors(t, sectors.basis)
            assert (ev._spin_weights(in_sectors) is None) == (label == "varying")
        got = ev.evolve_unitary(sectors, psi0, grid, terms)
        want = _forced_products(sectors, psi0, grid, terms)
        for label in (*terms, "norm_drift"):
            assert np.abs(got[label].values - want[label].values).max() <= 1e-13, label
        varying = {"varying": full_operator(terms["varying"])}
        dense = dense_unitary(h, psi0, grid, varying)["varying"].values
        assert np.abs(got["varying"].values - dense).max() <= 1e-10


@pytest.mark.parametrize("n_samples", [2, 15, 16, 17, 255, 256, 257, 1001])
def test_frequency_sum_matches_product_path_on_any_grid(n_samples):
    # grids shorter than one chunk, one chunk off either side of a full
    # chunk and of a full group of chunks, and a long one, all starting
    # after 0; norm_drift is |||c|| - 1| at every sample
    rng = np.random.default_rng(n_samples)
    space = SpaceSpec(7, 10)
    params = SimParams.from_khz(rng.uniform(3, 6), r=rng.uniform(0.3, 3))
    obs = md.field_observables(space, params)
    spins = [np.diag(np.repeat(rng.normal(size=2), 8)) for _ in range(2)]
    terms = {  # every one is read as a sum over transition frequencies
        "sigma_z": obs["sigma_z"],
        "p_y": obs["p_y"],
        "spins": [
            (spins[0], rng.normal() * np.eye(11)),
            (spins[1], fs.mode_matrix(11, "momentum")),
        ],
    }
    t_start = rng.uniform(0.05, 0.5)
    grid = TimeGrid(t_start, t_start + rng.uniform(0.2, 0.6), n_samples)
    psi0 = _random_pure(rng, space, entangled=True)
    sectors = ev.weyl_sectors(params, space)
    for label, t in terms.items():
        in_sectors = ev._in_sectors(t, sectors.basis)
        assert ev._spin_weights(in_sectors) is not None, label
    got = ev.evolve_unitary(sectors, psi0, grid, terms)
    want = _forced_products(sectors, psi0, grid, terms)
    for label in terms:
        assert len(got[label].values) == n_samples
        assert np.abs(got[label].values - want[label].values).max() <= 1e-13, label
    drift = abs(np.linalg.norm(ev._coefficients(sectors, psi0)) - 1.0)
    assert np.abs(got["norm_drift"].values - drift).max() <= 1e-15
    assert np.all(got["norm_drift"].values == got["norm_drift"].values[0])


@pytest.mark.parametrize("field", ["evals", "coeffs"])
def test_non_finite_sectors_are_refused(field):
    # one NaN eigenvalue or coefficient raises before any sample is read,
    # for the population and the product path alike; a NaN row of U gives
    # sector 1 NaN coefficients
    space = SpaceSpec(5, 6)
    params = SimParams.from_khz(4.2, r=1.0)
    rng = np.random.default_rng(3)
    psi0 = _random_pure(rng, space, entangled=True)
    sectors = ev.weyl_sectors(params, space)
    name = {"evals": "evals", "coeffs": "u"}[field]
    bad = getattr(sectors, name).copy()
    bad[1, 2] = math.nan
    grid = TimeGrid(0.0, 0.3, 20)
    obs = md.field_observables(space, params)
    for terms in ({"sigma_z": obs["sigma_z"]}, {"x": obs["x"]}):
        with pytest.raises(ConvergenceError, match="eigenvalues or coefficients"):
            ev.evolve_unitary(replace(sectors, **{name: bad}), psi0, grid, terms)


def test_sigma_z_does_no_eigenvector_product():
    # sigma_z is read from the sector amplitudes alone: with W's halves U
    # and V all NaN, except where the input's coefficients are formed, the
    # noiseless landau record and its norm drift are unchanged
    cfg = sc.default_config("landau", n_max=12, noise_on=False)
    psi0 = fs.coherent_state(cfg.space, cfg.alpha_x, cfg.alpha_y, cfg.initial_spin)
    sz = {"sigma_z": md.field_observables(cfg.space, cfg.params)["sigma_z"]}
    sectors = ev.weyl_sectors(cfg.params, cfg.space)
    nan = np.full_like(sectors.u, np.nan)
    blind = replace(sectors, u=nan, v=nan)
    coefficients = ev._coefficients
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ev, "_coefficients", lambda _, state: coefficients(sectors, state))
        got = ev.evolve_unitary(blind, psi0, cfg.grid, sz)
    want = ev.evolve_unitary(sectors, psi0, cfg.grid, sz)
    for label in ("sigma_z", "norm_drift"):
        assert np.array_equal(got[label].values, want[label].values), label


@pytest.mark.parametrize("n_max", [17, 40, 80])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_landau_sigma_z_matches_product_path(r, n_max):
    # the landau record and its 5 ms inset, read from the sector amplitudes,
    # against the forced W_k x_k product path
    cfg = sc.build_config("landau", {"noise": False, "r": r, "n_max_x": n_max})
    psi0 = fs.coherent_state(cfg.space, cfg.alpha_x, cfg.alpha_y, cfg.initial_spin)
    sz = {"sigma_z": md.field_observables(cfg.space, cfg.params)["sigma_z"]}
    sectors = ev.weyl_sectors(cfg.params, cfg.space)
    inset_grid = TimeGrid(0.0, sc.INSET_SPAN_MS, sc.INSET_SAMPLES)
    for grid in (cfg.grid, inset_grid):
        got = ev.evolve_unitary(sectors, psi0, grid, sz)
        want = _forced_products(sectors, psi0, grid, sz)
        for label in ("sigma_z", "norm_drift"):
            assert np.abs(got[label].values - want[label].values).max() <= 1e-13


@pytest.mark.parametrize("r, n_max", [(1.0, 40), (2.0, 80)])
def test_predictor_check_unmoved_by_population_path(monkeypatch, r, n_max):
    # the analytic predictor's cross-check reads the same record either way
    cfg = sc.build_config("landau", {"noise": False, "r": r, "n_max_x": n_max})
    got = {c.name: c.actual for c in sc.run_landau(cfg).checks}
    monkeypatch.setattr(ev, "_spin_weights", lambda terms: None)
    want = {c.name: c.actual for c in sc.run_landau(cfg).checks}
    assert abs(got["predictor_max_dev"] - want["predictor_max_dev"]) < 1e-14


def _decompositions(monkeypatch, run, cfg):
    """run(cfg) and the shapes of its np.linalg.svd and eigh calls, with
    p_y's eigenbasis cached beforehand."""
    fs.quadrature_eigenbasis(cfg.space.n_max_y + 1, "momentum")  # fill the cache
    calls = {"svd": [], "eigh": []}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return original(a, *args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        for name in calls:
            patch.setattr(np.linalg, name, counting(name))
        return run(cfg), calls


def _separate_tables(name, cfg) -> dict:
    """The table columns of a field run from separate propagations of its
    inputs, one decomposition each: {(table, column): values}."""
    obs = md.field_observables(cfg.space, cfg.params)
    record = ev.evolve_lindblad if cfg.noise_on else ev.evolve_unitary

    def series(spin, labels, grid=cfg.grid, propagate=record):
        psi0 = fs.coherent_state(cfg.space, cfg.alpha_x, cfg.alpha_y, spin)
        sectors = ev.weyl_sectors(cfg.params, cfg.space)
        return propagate(sectors, psi0, grid, {k: obs[k] for k in labels})

    if name == "landau":
        inset_grid = TimeGrid(0.0, sc.INSET_SPAN_MS, sc.INSET_SAMPLES)
        main = series(cfg.initial_spin, ["sigma_z"])
        inset = series(cfg.initial_spin, ["sigma_z"], inset_grid, ev.evolve_unitary)
        return {
            ("sigma_z", "sigma_z"): main["sigma_z"].values,
            ("sigma_z_ideal", "sigma_z"): inset["sigma_z"].values,
        }
    if name == "helicity":
        got = series(cfg.initial_spin, ("sigma_x", "sigma_y", "pi_x", "pi_y", "p_y"))
        tables = {"spin": ("sigma_x", "sigma_y"), "kinetic_momentum": ("pi_x", "pi_y")}
        return {(t, k): got[k].values for t, labels in tables.items() for k in labels}
    out = {}
    for spin in ("plus", "minus"):
        got = series(f"{spin}_x", ("x", "y"))
        out |= {("trajectory", f"{k}_{spin}"): got[k].values for k in ("x", "y")}
    return out


@pytest.mark.parametrize("noise", [False, True], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("name", ["landau", "helicity", "trajectory"])
def test_field_runner_decomposes_once(monkeypatch, name, noise):
    # every record of a field run (landau's 600 us record and 5 ms inset,
    # helicity's series, both trajectory spins), under either propagator,
    # is sampled from one batched SVD of the spin-flip blocks of one sector
    # of each +-p_y pair, with no eigendecomposition, and equals separate
    # propagations of the same inputs
    n_max = (7 if name == "landau" else 8) if noise else 12
    cfg = sc.default_config(name, n_max=n_max, noise_on=noise)
    res, calls = _decompositions(monkeypatch, sc.RUNNERS[name], cfg)
    k = cfg.space.n_max_x + 1
    pairs = math.ceil((cfg.space.n_max_y + 1) / 2)
    assert calls == {"svd": [(pairs, k, k)], "eigh": []}
    assert all(c.passed for c in res.checks)
    for (table, column), want in _separate_tables(name, cfg).items():
        got = res.tables[table][column]
        assert np.abs(got - want).max() <= 1e-15, (table, column)


def test_lindblad_series_refuses_another_space():
    # evolve_lindblad, as evolve_unitary does, for a pure and a mixed
    # input; the taus come from the decomposition's own params
    params = SimParams.from_khz(4.2, r=1.0, tau_d_x=4.0, tau_d_y=3.5)
    sectors = ev.weyl_sectors(params, SpaceSpec(4, 4))
    assert sectors.params is params
    grid = TimeGrid(0.0, 0.01, 3)
    other = fs.coherent_state(SpaceSpec(4, 5), 0.5j, 0, "plus_z")
    for state in (other, QState("mixed", other.to_density(), other.space)):
        with pytest.raises(DomainError, match="sectors' space"):
            ev.evolve_lindblad(sectors, state, grid, {})


def test_projection_matches_own_decomposition():
    # both spin inputs read, from one decomposition, exactly the series of
    # their own propagations; a mixed state and another space are refused
    space = SpaceSpec(6, 9)
    params = SimParams.from_khz(4.2, r=1.0)
    plus, minus = (
        fs.coherent_state(space, 0.8j, 0.5 - 0.3j, spin)
        for spin in ("plus_x", "minus_x")
    )
    sectors = ev.weyl_sectors(params, space)
    grid = TimeGrid(0.0, 0.3, 20)
    xy = {k: md.field_observables(space, params)[k] for k in ("x", "y")}
    for state in (plus, minus):
        got = ev.evolve_unitary(sectors, state, grid, xy)
        own = ev.evolve_unitary(ev.weyl_sectors(params, space), state, grid, xy)
        for label in (*xy, "norm_drift"):
            assert np.array_equal(got[label].values, own[label].values), label
    refused = (
        QState("mixed", plus.to_density(), space),
        fs.coherent_state(SpaceSpec(6, 8), 0.8j, 0.5, "plus_x"),
    )
    for state in refused:
        with pytest.raises(DomainError):
            ev.evolve_unitary(sectors, state, grid, xy)


FACTOR_KINDS = ["identity", "real", "imaginary", "complex", "zero"]


def _random_factor(rng, kind, d) -> np.ndarray:
    """A random Hermitian d x d factor: the identity, real, imaginary,
    complex or zero."""
    if kind == "identity":
        return np.eye(d)
    m = _random_hermitian(rng, d)
    return {"real": m.real, "imaginary": 1j * m.imag, "complex": m, "zero": 0 * m}[kind]


@pytest.mark.parametrize("kind", FACTOR_KINDS)
def test_product_path_matches_dense_oracle(kind):
    # each kind of A on qubit (x) mode x with B = c 1, the sector-diagonal
    # p_y and the sector coupling y, alone and summed, all forced onto the
    # product path, against the dense H on the full space
    rng = np.random.default_rng(FACTOR_KINDS.index(kind))
    space = SpaceSpec(5, 8)
    params = SimParams.from_khz(rng.uniform(3, 6), r=rng.uniform(0.3, 3))
    m, dy = 2 * (space.n_max_x + 1), space.n_max_y + 1
    a = _random_factor(rng, kind, m)
    terms = {
        "one": [(a, rng.normal() * np.eye(dy))],
        "p_y": [(a, fs.mode_matrix(dy, "momentum"))],
        "y": [(a, fs.mode_matrix(dy, "position"))],
    }
    terms["sum"] = [t for label in ("one", "p_y", "y") for t in terms[label]]
    h = weyl_hamiltonian(space, params)
    t_start = rng.uniform(0, 0.1)
    grid = TimeGrid(t_start, t_start + rng.uniform(0.2, 0.6), 37)
    dense = {label: full_operator(t) for label, t in terms.items()}
    for entangled in (False, True):
        psi0 = _random_pure(rng, space, entangled)
        got = _forced_products(ev.weyl_sectors(params, space), psi0, grid, terms)
        want = dense_unitary(h, psi0, grid, dense)
        for label in terms:
            assert np.abs(got[label].values - want[label].values).max() <= 1e-12, label


def test_unitary_memory_does_not_grow_with_samples():
    # samples are propagated in bounded chunks: 2001 samples of noiseless
    # Landau cost no more than 201 beyond the output series themselves
    # (one sector block at most), also when one decomposition is sampled
    # over two grids, for sigma_z on the population path and for x and y
    # on the product path
    cfg = sc.default_config("landau", n_max=12, noise_on=False)
    psi0 = fs.coherent_state(cfg.space, cfg.alpha_x, cfg.alpha_y, cfg.initial_spin)
    obs = md.field_observables(cfg.space, cfg.params)
    sectors = ev.weyl_sectors(cfg.params, cfg.space)
    m = 2 * (cfg.space.n_max_x + 1)
    block = m * m * 16
    series = (2001 - 201) * 8 * 8  # grid, values, drift and their copies
    for label in ("sigma_z", "x", "y"):
        observables = {label: obs[label]}
        for propagate in (
            lambda grid: ev.evolve_unitary(
                ev.weyl_sectors(cfg.params, cfg.space), psi0, grid, observables
            ),
            lambda grid: ev.evolve_unitary(sectors, psi0, grid, observables),
        ):
            peaks = {}
            for n_samples in (201, 2001):
                grid = TimeGrid(0.0, 0.6, n_samples)
                tracemalloc.start()
                try:
                    propagate(grid)
                    peaks[n_samples] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peaks[2001] - peaks[201] < block + series, label


# --- dephasing master equation ---------------------------------------------------


@pytest.fixture(scope="module")
def tiny():
    return SpaceSpec(6, 6)


def _rk4_oracle(h, params, state, grid, observables):
    """The classic 4th-order Runge-Kutta master equation on the full rho.

    The reference for the split-step propagator: a dense H and dense
    observables, always stepped at dt_max = 0.2 us, with the same monitors
    (min_eig is the least eigenvalue clipped at 0) and the same evaluation
    of the observables on the Hermitian, trace-normalized rho.
    """
    mask = ev._dephasing_mask(state.space, params)

    def rhs(r):
        return -1j * (h @ r - r @ h) + mask * r

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
        min_eig = min(np.linalg.eigvalsh(rho_h).min(), 0.0)
        if min_eig < -1e-6:
            raise PositivityError(f"eigenvalue {min_eig:.2e} at sample {k}")
        values["trace_drift"][k] = drift
        values["hermiticity"][k] = np.abs(rho - rho.conj().T).max()
        values["min_eig"][k] = min_eig
        rho_h /= np.trace(rho_h).real
        for label, obs in observables.items():
            values[label][k] = np.einsum("ij,ji->", obs, rho_h)
    return values


def _random_density(rng, space, rank):
    vecs = rng.normal(size=(space.dim, rank)) + 1j * rng.normal(size=(space.dim, rank))
    rho = vecs @ np.diag(rng.uniform(0.2, 1.0, rank)) @ vecs.conj().T
    return QState("mixed", rho / np.trace(rho).real, space)


def _landau(space, **taus):
    """Landau parameters, the landau default input and its sigma_z product."""
    params = SimParams.from_khz(4.2, r=1.0, **taus)
    psi0 = fs.coherent_state(space, 1j, 0, "plus_z")
    sz = {"sigma_z": md.field_observables(space, params)["sigma_z"]}
    return params, psi0, sz


@pytest.mark.parametrize("r", [0.37, 1.0, 2.0])
@pytest.mark.parametrize("n_max_x, n_max_y", [(5, 7), (7, 4), (12, 9)])
def test_weyl_hamiltonian_is_imaginary_in_the_gauge(r, n_max_x, n_max_y):
    # G^dag H G = iB exactly; a spin +z input with imaginary alpha_x and real
    # alpha_y is real in the gauge, so its density matrix has no imaginary
    # part.  B flips the spin, so each P-sector's split-step factor, summed
    # from the p_y sectors' eigenbases, is the exact exp(B b dt) for every
    # distinct U weight b
    space = SpaceSpec(n_max_x, n_max_y)
    params = SimParams.from_khz(4.2, r=r)
    phase = np.repeat(ev._gauge(space), n_max_y + 1)
    h = weyl_hamiltonian(space, params)
    h_g = phase.conj()[:, None] * h * phase
    assert not np.any(h_g.real)
    assert np.abs(h_g + h_g.T).max() == 0  # B is antisymmetric
    psi = phase.conj() * fs.coherent_state(space, 0.7j, 0.3, "plus_z").data
    assert not np.any(psi.imag)
    dt = ev.DT_MAX_DEFAULT
    factors = ev._split_factors(ev.weyl_sectors(params, space), dt)
    for rows, pair in zip(ev._blocks(space), factors.swapaxes(0, 1), strict=True):
        h_block = h_g[np.ix_(rows, rows)]
        spin = rows >= space.dim // 2
        assert not np.any(h_block[np.equal.outer(spin, spin)])  # H flips the spin
        evals, evecs = np.linalg.eigh(h_block)
        assert len(pair) == len(set(ev.U_WEIGHTS)) == 3
        for w, u in zip(ev.U_WEIGHTS, pair, strict=True):
            exact = (evecs * np.exp(-1j * w * dt * evals)) @ evecs.conj().T
            assert np.abs(u - exact).max() < 1e-12


@pytest.mark.parametrize("n_max", [16, 17, 19, 23])
def test_split_factors_are_orthogonal(n_max):
    # at r = 1 these truncations are where an eigendecomposition of the
    # P-sectors loses orthogonality (|V^T V - 1| up to 5e-9); each sector's
    # factor is orthogonal by construction, and so is their sum over the
    # orthogonal projectors of p_y
    space = SpaceSpec(n_max, n_max)
    params = SimParams.from_khz(4.2, r=1.0)
    factors = ev._split_factors(ev.weyl_sectors(params, space), ev.DT_MAX_DEFAULT)
    assert factors.shape[:2] == (len(ev.U_WEIGHTS), 2)
    for u in factors.reshape(-1, *factors.shape[2:]):
        assert np.abs(u @ u.T - np.eye(len(u))).max() <= 1e-13


# the RK4-oracle inputs: the pure and mixed ones have real and imaginary
# parts in the gauge, the "real" one only a real part
ORACLE_CASES = [(0, 0.5, "pure"), (1, 1.0, "mixed"), (2, 2.0, "pure"), (4, 1.0, "real")]


def _oracle_case(seed, r, kind):
    """Parameters, input and the sigma_z (P-even) and x (P-odd) products."""
    rng = np.random.default_rng(seed)
    space = SpaceSpec(4, 4)
    alpha = 0.7 * np.exp(2j * np.pi * rng.uniform())
    if kind == "pure":
        state = fs.coherent_state(space, alpha, 0.3 * alpha, "plus_x")
    elif kind == "real":
        state = fs.coherent_state(space, 0.7j, 0.3, "plus_z")
    else:
        state = _random_density(rng, space, 3)
    tau_x, tau_y = rng.uniform(1.0, 4.0, 2)
    params = SimParams.from_khz(4.2, r=r, tau_d_x=tau_x, tau_d_y=tau_y)
    obs = md.field_observables(space, params)
    return params, state, {"sigma_z": obs["sigma_z"], "x": obs["x"]}


@pytest.mark.parametrize("seed, r, kind", ORACLE_CASES)
def test_lindblad_matches_rk4_oracle(seed, r, kind):
    # the split step at the default substep cap against RK4 at 0.2 us
    params, state, ops = _oracle_case(seed, r, kind)
    space = state.space
    dense = {"sigma_z": pauli(space, "z"), "x": mode_operator(space, "x")}
    grid = TimeGrid(0.0, 0.1, 11)
    series = ev.evolve_lindblad(ev.weyl_sectors(params, space), state, grid, ops)
    want = _rk4_oracle(weyl_hamiltonian(space, params), params, state, grid, dense)
    assert set(series) == set(want)
    for label, values in want.items():
        assert np.abs(series[label].values - values).max() < 1e-8, label


def _run_landau_n7(dt_max=ev.DT_MAX_DEFAULT):
    """Noisy landau at n_max 7 on the scenario's default grid."""
    params, psi0, sz = _landau(SpaceSpec(7, 7), tau_d_x=4.0, tau_d_y=3.5)
    sectors = ev.weyl_sectors(params, psi0.space)
    return ev.evolve_lindblad(sectors, psi0, TimeGrid(0.0, 0.6, 201, dt_max), sz)


@pytest.mark.parametrize("case", ["landau_n7", *ORACLE_CASES])
def test_min_eig_is_the_clipped_least_eigenvalue(monkeypatch, case):
    # the Cholesky-first monitor against eigvalsh on every block of every
    # sample; its worst value over the run is eigvalsh's, clipped at 0
    monitor, seen = ev._min_eig, []

    def checked(parts, sample):
        value = monitor(parts, sample)
        want = [min(np.linalg.eigvalsh(p).min(), 0.0) for p in parts]
        for p, w in zip(parts, want):
            assert abs(monitor(p[None], sample) - w) <= 1e-13
        assert abs(value - min(want)) <= 1e-13
        seen.append(min(want))
        return value

    monkeypatch.setattr(ev, "_min_eig", checked)
    if case == "landau_n7":
        series = _run_landau_n7()
    else:
        params, state, ops = _oracle_case(*case)
        sectors = ev.weyl_sectors(params, state.space)
        series = ev.evolve_lindblad(sectors, state, TimeGrid(0.0, 0.1, 11), ops)
    assert len(seen) == len(series["min_eig"].values)
    assert abs(series["min_eig"].values.min() - min(seen)) <= 1e-13


def test_min_eig_gate():
    # a block below -1e-6 raises the message the eigvalsh-only monitor
    # raised; one just above it passes with its clipped value, and a
    # positive definite stack reads 0.  A NaN raises too, on the diagonal
    # or off it, where the trace check cannot see it and a Cholesky
    # factorization completes through it
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.normal(size=(6, 6)))[0]

    def stack(least):
        evals = np.array([least, 0.1, 0.2, 0.3, 0.15, 0.25])
        return np.stack([(q * evals) @ q.T, np.eye(6) / 6])

    with pytest.raises(PositivityError, match=r"^eigenvalue -1\.00e-03 at sample 7$"):
        ev._min_eig(stack(-1e-3), 7)
    assert abs(ev._min_eig(stack(-9e-7), 7) + 9e-7) < 1e-15
    assert ev._min_eig(stack(1e-3), 7) == 0.0
    for where in [(0, 1, 2), (1, 0, 0)]:
        nan = stack(1e-3)
        nan[where] = nan[where[0], where[2], where[1]] = np.nan
        with pytest.raises(PositivityError, match="eigenvalue nan at sample 2"):
            ev._min_eig(nan, 2)


@pytest.fixture(scope="module")
def landau_n7_reference():
    return _run_landau_n7(dt_max=2e-4)["sigma_z"].values


def test_default_step_error_at_n_max_7(landau_n7_reference):
    # one 3 us step per sample of the 600 us noisy landau record is within
    # 2e-9 of a 0.2 us reference (9.2e-10 when written)
    error = np.abs(_run_landau_n7()["sigma_z"].values - landau_n7_reference).max()
    assert error <= 2e-9


def test_split_step_is_4th_order(landau_n7_reference):
    # halving the step divides the error by about 2^4
    errors = [
        np.abs(_run_landau_n7(dt)["sigma_z"].values - landau_n7_reference).max()
        for dt in (3e-3, 1.5e-3)
    ]
    assert 12 <= errors[0] / errors[1] <= 20


@pytest.mark.parametrize(
    "t_end_us, n_samples", [(600, 201), (100, 11), (99, 34), (5000, 501), (0.3, 4)]
)
def test_substeps_tolerate_rounding(t_end_us, n_samples):
    # an output spacing equal to dt_max up to rounding takes one step (a
    # plain ceil takes two when dt_max is one ulp short); a spacing over a
    # whole number of dt_max by more than rounding takes one more
    grid = TimeGrid(0.0, t_end_us / 1e3, n_samples)
    seg = grid.times[1] - grid.times[0]
    short = np.nextafter(seg, 0)
    assert math.ceil(seg / short) == 2
    config_us = t_end_us / (n_samples - 1)  # dt_max_us as a config gives it
    for dt_max in (seg, short, np.nextafter(seg, 1), config_us / 1e3):
        assert ev._substeps(replace(grid, dt_max=dt_max)) == 1
        assert ev._substeps(replace(grid, dt_max=dt_max / 3)) == 3
    assert ev._substeps(replace(grid, dt_max=seg / (1 + 1e-6))) == 2
    assert ev._substeps(replace(grid, dt_max=seg * 10)) == 1


def test_default_grids_take_one_step_per_sample():
    for name in ("landau", "trajectory"):
        assert ev._substeps(sc.default_config(name, noise_on=True).grid) == 1


def test_lindblad_evolves_parity_blocks(monkeypatch):
    # a Weyl H commutes with P = sigma_z (-1)^(n_x + n_y): with a P-even
    # observable only the two d/2 sectors are factorized, summed from the
    # one batched SVD of `weyl_sectors` (one spin-flip block per +-p_y
    # pair), and monitored by one Cholesky factorization of the two
    # stacked blocks per sample (eigvalsh on the same stack only where it
    # breaks down, as it does on the pure input); a P-odd one also needs the
    # coherences, so min_eig is taken on full d.  The landau default input
    # is real in the gauge, so the monitor gets real blocks; a plus_x input
    # has an imaginary part and complex ones
    space = SpaceSpec(4, 4)
    params, psi0, sz = _landau(space, tau_d_x=4.0, tau_d_y=3.5)
    grid = TimeGrid(0.0, 0.05, 6)
    shapes = {"svd": [], "cholesky": [], "eigvalsh": []}
    kinds = {"svd": set(), "cholesky": set(), "eigvalsh": set()}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            shapes[name].append(a.shape)
            kinds[name].add(a.dtype.kind)
            return original(a, *args, **kwargs)

        return wrapper

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, counting(name))

    def run(state, obs):
        for seen in (*shapes.values(), *kinds.values()):
            seen.clear()
        ev.evolve_lindblad(ev.weyl_sectors(params, space), state, grid, obs)
        assert len(shapes["cholesky"]) == grid.n_samples
        assert 1 <= len(shapes["eigvalsh"]) <= grid.n_samples

    pairs = math.ceil((space.n_max_y + 1) / 2)  # d = 50: 3 blocks of 5 x 5
    c_shapes = [(pairs, space.n_max_x + 1, space.n_max_x + 1)]
    halves = (2, space.dim // 2, space.dim // 2)
    run(psi0, sz)
    assert shapes["svd"] == c_shapes and kinds["svd"] == {"f"}
    for name in ("cholesky", "eigvalsh"):
        assert set(shapes[name]) == {halves}
        assert kinds[name] == {"f"}
    run(psi0, {"x": md.field_observables(space, params)["x"]})
    assert shapes["svd"] == c_shapes
    for name in ("cholesky", "eigvalsh"):
        assert set(shapes[name]) == {(1, space.dim, space.dim)}
        assert kinds[name] == {"f"}
    run(fs.coherent_state(space, 1j, 0, "plus_x"), sz)
    for name in ("cholesky", "eigvalsh"):
        assert set(shapes[name]) == {halves}
        assert kinds[name] == {"c"}


@pytest.mark.parametrize("spin", ["plus_z", "plus_x"])
def test_pinched_and_coherent_layouts_agree(spin):
    # a P-odd observable adds rho_+- to the evolved pieces and switches the
    # evaluation to the full state in block order; neither may move a P-even
    # series.  The plus_z input has only a real part in the gauge, plus_x
    # an imaginary one too
    space = SpaceSpec(5, 7)
    params, _, sz = _landau(space, tau_d_x=4.0, tau_d_y=3.5)
    psi0 = fs.coherent_state(space, 1j, 0, spin)
    grid = TimeGrid(0.0, 0.05, 11)
    x = md.field_observables(space, params)["x"]
    sectors = ev.weyl_sectors(params, space)
    pinched = ev.evolve_lindblad(sectors, psi0, grid, sz)
    coherent = ev.evolve_lindblad(sectors, psi0, grid, sz | {"x": x})
    for label in ("sigma_z", "trace_drift", "hermiticity"):
        diff = np.abs(pinched[label].values - coherent[label].values).max()
        assert diff < 1e-12, label


def test_lindblad_matches_unitary_without_noise(tiny):
    params, _, sz = _landau(tiny)
    psi0 = fs.coherent_state(tiny, 0.8j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.3, 31)
    sectors = ev.weyl_sectors(params, tiny)
    unit = ev.evolve_unitary(sectors, psi0, grid, sz)["sigma_z"]
    noiseless = ev.evolve_lindblad(sectors, psi0, grid, sz)["sigma_z"]
    assert np.abs(unit.values - noiseless.values).max() < 1e-8
    # huge but finite dephasing time behaves the same way
    weak = ev.weyl_sectors(replace(params, tau_d_x=1e6, tau_d_y=1e6), tiny)
    weak_sz = ev.evolve_lindblad(weak, psi0, grid, sz)["sigma_z"]
    assert np.abs(unit.values - weak_sz.values).max() < 1e-5


def test_lindblad_no_noise_limit_at_n_max_19():
    # n_max 19 at r = 1 is where eigendecomposed factors lost the trace
    # (1.4e-9 over this 20 us record); orthogonal factors keep it to rounding
    space = SpaceSpec(19, 19)
    params, psi0, sz = _landau(space)
    grid = TimeGrid(0.0, 0.02, 5)
    sectors = ev.weyl_sectors(params, space)
    unit = ev.evolve_unitary(sectors, psi0, grid, sz)["sigma_z"]
    series = ev.evolve_lindblad(sectors, psi0, grid, sz)
    assert np.abs(series["sigma_z"].values - unit.values).max() <= 1e-11
    assert series["trace_drift"].values.max() <= 1e-12


def test_pure_dephasing_analytic_decay(tiny):
    # the exact dephasing factor exp(mask t) alone: the mode average obeys
    # <a>(t) = <a>(0) e^{-t/tau}, while the occupation stays constant
    tau = 2.0
    mask = ev._dephasing_mask(tiny, SimParams.from_khz(4.2, tau_d_x=tau))
    rho0 = fs.coherent_state(tiny, 0.9j, 0).to_density()
    a_op = mode_operator(tiny, "x", "lower")
    n_op = mode_operator(tiny, "x", "number")
    mean_a0 = np.trace(rho0 @ a_op)  # truncation shifts it off alpha
    n0 = np.trace(rho0 @ n_op)
    mags = []
    for t in np.linspace(0.0, 1.0, 21):
        rho = np.exp(mask * t) * rho0
        mean_a = np.trace(rho @ a_op)
        assert abs(mean_a - mean_a0 * math.exp(-t / tau)) < 1e-9
        assert abs(np.trace(rho @ n_op) - n0) < 1e-8
        mags.append(abs(mean_a))
    assert all(b - a < 1e-10 for a, b in zip(mags, mags[1:]))


def test_fock_state_invariant_under_dephasing(tiny):
    # the rates are those of the dense number operators, and they leave the
    # Fock diagonal untouched
    params = SimParams.from_khz(4.2, tau_d_x=1.5, tau_d_y=2.5)
    mask = ev._dephasing_mask(tiny, params)
    want = 0
    for mode, tau in (("x", 1.5), ("y", 2.5)):
        n = np.diagonal(mode_operator(tiny, mode, "number")).real
        want = want - np.subtract.outer(n, n) ** 2 / tau
    assert np.abs(mask - want).max() < 1e-12
    rho0 = fs.basis_state(tiny, "minus_z", 3, 1).to_density()
    for t in np.linspace(0.0, 0.5, 6):
        rho = np.exp(mask * t) * rho0
        assert np.abs(np.diagonal(rho) - np.diagonal(rho0)).max() < 1e-12


def test_lindblad_invariants_at_every_sample(tiny):
    params, psi0, _ = _landau(tiny, tau_d_x=4.0, tau_d_y=3.5)
    grid = TimeGrid(0.0, 0.3, 16)
    series = ev.evolve_lindblad(ev.weyl_sectors(params, tiny), psi0, grid, {})
    assert set(series) == {"trace_drift", "hermiticity", "min_eig"}
    assert series["trace_drift"].values.max() < 1e-8
    assert series["hermiticity"].values.max() < 1e-8
    assert series["min_eig"].values.min() >= -1e-8


def test_lindblad_memory_does_not_grow_with_samples(tiny):
    # only the current density matrix is held, so 201 output samples cost
    # no more than 21 beyond the series themselves (far below one rho)
    params, psi0, sz = _landau(tiny, tau_d_x=4.0, tau_d_y=3.5)
    sectors = ev.weyl_sectors(params, tiny)
    peaks = {}
    for n_samples in (21, 201):
        grid = TimeGrid(0.0, 0.3, n_samples)
        tracemalloc.start()
        try:
            ev.evolve_lindblad(sectors, psi0, grid, sz)
            peaks[n_samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    rho_bytes = tiny.dim**2 * 16
    assert peaks[201] - peaks[21] < rho_bytes


def test_step_halving_convergence(tiny):
    params, psi0, sz = _landau(tiny, tau_d_x=4.0, tau_d_y=3.5)
    coarse = TimeGrid(0.0, 0.3, 16, dt_max=2e-4)
    fine = TimeGrid(0.0, 0.3, 16, dt_max=1e-4)
    sectors = ev.weyl_sectors(params, tiny)
    a = ev.evolve_lindblad(sectors, psi0, coarse, sz)["sigma_z"]
    b = ev.evolve_lindblad(sectors, psi0, fine, sz)["sigma_z"]
    assert np.abs(a.values - b.values).max() < 1e-7


def test_integrator_blowup_raises(tiny):
    # a wildly oversized step breaks the conservation monitors
    params = SimParams.from_khz(40.0, r=1.0, tau_d_x=0.001, tau_d_y=0.001)
    psi0 = fs.coherent_state(tiny, 1j, 0, "plus_z")
    grid = TimeGrid(0.0, 1.0, 3, dt_max=0.5)
    with pytest.raises((ConvergenceError, PositivityError)):
        ev.evolve_lindblad(ev.weyl_sectors(params, tiny), psi0, grid, {})


def test_nan_inputs_are_rejected(tiny):
    # a NaN compares false against every tolerance, so the checks are
    # written to fail on it, in both propagators
    params = SimParams.from_khz(4.2, r=1.0)
    psi0 = fs.coherent_state(tiny, 0.5j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.01, 3)
    (a, b), = md.field_observables(tiny, params)["sigma_z"]
    sectors = ev.weyl_sectors(params, tiny)
    for propagate in (ev.evolve_unitary, ev.evolve_lindblad):
        for nan_factor in ((a * np.nan, b), (a, b * np.nan)):
            with pytest.raises(NonHermitianError):
                propagate(sectors, psi0, grid, {"nan": [nan_factor]})


def test_grid_refuses_a_million_substeps():
    # a grid is refused where `_substeps` would exceed MAX_SUBSTEPS, a noisy
    # run that would not end; the runs' grids and the oracle's pass
    at_cap = TimeGrid(0.0, 1.0, 2, 1e-6)
    assert ev._substeps(at_cap) == ev.MAX_SUBSTEPS
    for args in [
        (0.0, 1.0, 2, 0.999e-6),
        (0.0, 1e305, 201),  # t_end_us = 1e308
        (0.0, 0.6, 201, 1e-303),  # dt_max_us = 1e-300
        (-1e308, 1e308, 2),  # an interval that overflows
    ]:
        with pytest.raises(DomainError, match="split steps"):
            TimeGrid(*args)
    for name in ("landau", "helicity", "trajectory"):
        for noise in (False, True):
            assert ev._substeps(sc.default_config(name, noise_on=noise).grid) <= 3
    assert ev._substeps(TimeGrid(0.0, sc.INSET_SPAN_MS, sc.INSET_SAMPLES)) == 4
    assert ev._substeps(TimeGrid(0.0, 0.6, 201, 2e-4)) == 15  # the 0.2 us oracle


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
