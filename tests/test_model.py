import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weylsim import analyze as an
from weylsim import evolve as ev
from weylsim import fockspace as fs
from weylsim import model as md
from weylsim import scenarios as sc
from weylsim.errors import DomainError, TruncationError
from weylsim.fockspace import SpaceSpec
from weylsim.model import SimParams

from conftest import (
    expectation,
    mode_operator,
    pauli,
    probe_hamiltonian,
    sector_hamiltonian,
    sideband_hamiltonian,
    transformed_hamiltonian,
    weyl_hamiltonian,
)


@pytest.fixture(scope="module")
def params():
    return SimParams.from_khz(4.2, r=1.0)


def weyl_matrix(space, params):
    """The library's Weyl Hamiltonian on the full space, rebuilt from its
    sector decomposition, `evolve.weyl_sectors`."""
    return sector_hamiltonian(ev.weyl_sectors(params, space))


@pytest.mark.parametrize("n_max_x, n_max_y", [(5, 4), (8, 8), (3, 0)])
@pytest.mark.parametrize("r", [0.0, 0.37, 2.0])
def test_kronecker_oracles_equal_embedded_products(n_max_x, n_max_y, r):
    # conftest builds its dense Hamiltonians as single Kronecker products; each
    # is bitwise the product of the embedded qubit and mode operators
    space = SpaceSpec(n_max_x, n_max_y)
    params = SimParams.from_khz(4.2, r=r)
    scale = params.omega / math.sqrt(2)
    sy, adag = pauli(space, "y"), mode_operator(space, "x", "lower").conj().T
    pi_y = mode_operator(space, "y", "momentum") - r * mode_operator(space, "x")
    px = mode_operator(space, "x", "momentum")
    weyl = scale * (pauli(space, "x") @ px + sy @ pi_y)
    assert np.array_equal(weyl_hamiltonian(space, params), weyl)
    half = params.omega * math.sqrt(r) * 1j * (pauli(space, "plus") @ adag)
    assert np.array_equal(transformed_hamiltonian(space, params), half + half.conj().T)
    half = 0.65 * np.exp(0.7j) * (pauli(space, "minus") @ adag)
    tone = sideband_hamiltonian(space, "x", "red", 1.3, 0.7)
    assert np.array_equal(tone, half + half.conj().T)
    q = mode_operator(space, "y", "momentum")
    assert np.array_equal(probe_hamiltonian(space, params, "py"), scale * (sy @ q))


# --- sideband tones -----------------------------------------------------------


def test_zero_rabi_is_zero_operator(space):
    h = sideband_hamiltonian(space, "x", "blue", 0.0, 0.0)
    assert np.abs(h).max() == 0.0


def test_blue_tone_matrix_element_oracle(space):
    # direct construction from the printed coupling: <+z, n+1|H|-z, n> = rabi sqrt(n+1)/2
    rabi = md.khz(3.0)
    h = sideband_hamiltonian(space, "x", "blue", rabi, 0.0)
    for n in (0, 2, 5):
        ket = fs.basis_state(space, "minus_z", n, 0).data
        bra = fs.basis_state(space, "plus_z", n + 1, 0).data
        want = rabi * math.sqrt(n + 1) / 2
        assert abs(np.vdot(bra, h @ ket) - want) < 1e-12 * rabi


def test_four_tone_identity(space):
    # the four drive tones sum to the library's Weyl H, rebuilt from its
    # sector decomposition, and to the oracle built from the embedded
    # quadratures
    omega = md.khz(4.2)
    for r in (0.0, 0.5, 1.0):
        p = SimParams(omega=omega, r=r)
        tones = [
            ("x", "red", (1 - r) * omega, math.pi / 2),
            ("x", "blue", (1 + r) * omega, math.pi / 2),
            ("y", "red", omega, math.pi),
            ("y", "blue", omega, 0.0),
        ]
        total = sum(sideband_hamiltonian(space, *tone) for tone in tones)
        assert np.abs(total - weyl_matrix(space, p)).max() < 1e-12
        assert np.abs(total - weyl_hamiltonian(space, p)).max() < 1e-12


# --- full Hamiltonian ----------------------------------------------------------


def test_hamiltonians_hermitian(space, params):
    for h in (
        weyl_matrix(space, params),
        probe_hamiltonian(space, params, "px"),
        sideband_hamiltonian(space, "y", "red", 1.0, 2.0),
    ):
        assert np.abs(h - h.conj().T).max() < 1e-14


def test_free_energy_expectation_linear(space):
    # H is linear in the quadratures, so <H> on |+sigma_theta>|psi_m> is exactly
    # (omega/sqrt(2)) p; oracle evaluates the matrix element directly
    omega = md.khz(4.75)
    p_free = SimParams(omega=omega, r=0.0)
    h = weyl_matrix(space, p_free)
    for p, theta in ((1.0, 0.0), (1.6, 1.1)):
        alpha_x = 1j * p * math.cos(theta) / math.sqrt(2)
        alpha_y = 1j * p * math.sin(theta) / math.sqrt(2)
        # spin along +sigma_theta: (|+z> + e^{i theta}|-z>)/sqrt(2)
        spin = np.array([1, np.exp(1j * theta)]) / math.sqrt(2)
        motion = np.kron(
            fs.coherent_amplitudes(alpha_x, space.n_max_x + 1),
            fs.coherent_amplitudes(alpha_y, space.n_max_y + 1),
        )
        st = fs.QState("pure", np.kron(spin, motion), space)
        got = expectation(h, st)
        assert abs(got - omega / math.sqrt(2) * p) < 1e-6 * omega


def test_vacuum_energy_zero(space):
    p_free = SimParams(omega=md.khz(4.75), r=0.0)
    h = weyl_matrix(space, p_free)
    st = fs.coherent_state(space, 0, 0, "plus_x")
    assert abs(expectation(h, st)) < 1e-12


def test_gauge_momentum_commutes_exactly(space):
    py = mode_operator(space, "y", "momentum")
    for r in (0.0, 0.5, 1.0, 2.0):
        h = weyl_matrix(space, SimParams(omega=md.khz(4.2), r=r))
        comm = h @ py - py @ h
        assert np.abs(comm).max() < 1e-12


# --- probe --------------------------------------------------------------------


def test_probe_heisenberg_identity(space, params):
    # e^{-i Hp tau} sigma_z e^{+i Hp tau} = cos(sqrt2 W tau x) sigma_z
    #                                     + sin(sqrt2 W tau x) sigma_x;
    # in each eigensector of x the qubit turns about y, the precession the
    # probe protocol sums in closed form
    tau = 0.01
    hp = probe_hamiltonian(space, params, "x")
    evals, evecs = np.linalg.eigh(hp)
    u = evecs @ np.diag(np.exp(-1j * evals * tau)) @ evecs.conj().T
    sz = pauli(space, "z")
    sx = pauli(space, "x")
    lhs = u @ sz @ u.conj().T

    x = mode_operator(space, "x", "position")
    xe, xv = np.linalg.eigh(x)
    arg = math.sqrt(2) * params.omega * tau * xe
    cos_x = xv @ np.diag(np.cos(arg)) @ xv.conj().T
    sin_x = xv @ np.diag(np.sin(arg)) @ xv.conj().T
    rhs = cos_x @ sz + sin_x @ sx
    assert np.abs(lhs - rhs).max() < 1e-8


def test_probe_vacuum_momentum_slope_vanishes(space, params):
    # d<sz>/dtau at 0 = i<[Hp, sz]> = 0 for vacuum and target px
    hp = probe_hamiltonian(space, params, "px")
    sz = pauli(space, "z")
    st = fs.coherent_state(space, 0, 0, "plus_x")
    comm = 1j * (hp @ sz - sz @ hp)
    assert abs(expectation(comm, st)) < 1e-12


# --- transformed single-mode form ----------------------------------------------


def test_transformed_zero_mode(sm_space, params):
    h = transformed_hamiltonian(sm_space, params)
    e0 = md.landau_eigenstate(sm_space, 0, "zero")
    assert np.linalg.norm(h @ e0.data) < 1e-12


def test_transformed_eigenvalues_oracle(sm_space):
    # dense diagonalization against the analytic ladder omega sqrt(n r)
    params = SimParams.from_khz(4.2, r=1.0)
    h = transformed_hamiltonian(sm_space, params)
    evals = np.linalg.eigvalsh(h)
    target = md.khz(4.2)
    assert np.abs(evals - target).min() < 1e-9 * target
    assert np.abs(evals + target).min() < 1e-9 * target
    # positive branch reproduces omega sqrt(n r) for n <= n_max / 2
    pos = np.sort(evals[evals > 0.5 * target])
    for n in range(1, sm_space.n_max_x // 2):
        want = md.landau_level(n, params)
        assert abs(pos[n - 1] - want) < 1e-9 * want
    # exactly two zero modes: the physical one and the truncation artifact
    assert int(np.sum(np.abs(evals) < 1e-9 * target)) == 2


def test_transformed_small_r_limit(sm_space):
    h = transformed_hamiltonian(sm_space, SimParams(omega=1.0, r=1e-12))
    assert np.abs(h).max() < 1e-5


def test_landau_eigenstates(sm_space):
    params = SimParams.from_khz(4.2, r=1.0)
    h = transformed_hamiltonian(sm_space, params)
    for n, sign, s in ((1, "plus", 1), (1, "minus", -1), (3, "plus", 1)):
        st = md.landau_eigenstate(sm_space, n, sign)
        want = s * md.landau_level(n, params)
        rayleigh = np.vdot(st.data, h @ st.data).real
        assert abs(rayleigh - want) < 1e-10 * abs(want)
        assert np.linalg.norm(h @ st.data - want * st.data) < 1e-9
    sz = pauli(sm_space, "z")
    ep = md.landau_eigenstate(sm_space, 2, "plus").data
    em = md.landau_eigenstate(sm_space, 2, "minus").data
    assert abs(np.vdot(ep, sz @ ep)) < 1e-14
    assert abs(np.vdot(em, sz @ ep) + 1.0) < 1e-14
    with pytest.raises(DomainError):
        md.landau_eigenstate(sm_space, 0, "plus")
    with pytest.raises(DomainError):
        md.landau_eigenstate(sm_space, 2, "zero")
    with pytest.raises(DomainError):  # a two-mode space
        md.landau_eigenstate(SpaceSpec(4, 1), 0)


def test_two_mode_spectrum_contains_level_ladder():
    # the full two-mode operator carries the same ladder, with degeneracy
    # from the second register
    space = SpaceSpec(10, 10)
    params = SimParams.from_khz(4.2, r=1.0)
    evals = np.linalg.eigvalsh(weyl_matrix(space, params))
    for n in range(0, 6):
        want = md.landau_level(n, params)
        assert np.abs(evals - want).min() < 1e-9 * max(want, params.omega)
        assert np.abs(evals + want).min() < 1e-9 * max(want, params.omega)


# --- analytic levels and units --------------------------------------------------


def test_landau_level_values():
    params = SimParams.from_khz(4.2, r=1.0)
    assert md.landau_level(0, params) == 0.0
    # doubled splittings in kHz: 2 E1 = 8.4, 2 E2 = 11.879...
    assert abs(2 * md.landau_level(1, params) / (2 * math.pi) - 8.4) < 1e-12
    assert abs(
        2 * md.landau_level(2, params) / (2 * math.pi) - 2 * math.sqrt(2) * 4.2
    ) < 1e-12
    assert abs(2 * math.sqrt(2) * 4.2 - 11.879393923934) < 1e-9


def test_landau_level_errors():
    params = SimParams(omega=1.0, r=1.0)
    with pytest.raises(DomainError):
        md.landau_level(-1, params)


def test_unit_converters_roundtrip():
    params = SimParams.from_khz(4.2, r=1.0)
    e = 3.7
    sim = md.natural_to_simulator(e, params)
    assert abs(sim - e * params.omega / math.sqrt(2)) < 1e-12
    # the ladder is sqrt(2 n r) in natural units
    for n in (0, 1, 3):
        natural = md.landau_level(n, params) * math.sqrt(2) / params.omega
        assert abs(natural - math.sqrt(2 * n)) < 1e-12


def test_sim_params_validation():
    with pytest.raises(DomainError):
        SimParams(omega=-1.0)
    with pytest.raises(DomainError):
        SimParams(omega=1.0, r=-0.1)
    with pytest.raises(DomainError):
        SimParams(omega=1.0, tau_d_x=0.0)
    nan, inf = math.nan, math.inf
    for kwargs in [
        dict(omega=nan),
        dict(omega=inf),
        dict(omega=1.0, r=nan),
        dict(omega=1.0, r=inf),
        dict(omega=1.0, tau_d_y=nan),
    ]:
        with pytest.raises(DomainError):
            SimParams(**kwargs)


# --- single-mode frame reduction -------------------------------------------------


def test_frame_state_mean_and_trace():
    params = SimParams.from_khz(4.2, r=1.0)
    red = md.cyclotron_frame_state("plus_z", 1j, 0, params)
    assert red.kind == "mixed"
    sm = red.space
    a1 = mode_operator(sm, "x", "lower")
    mean_a = np.trace(red.data @ a1)
    assert abs(mean_a - 1j) < 1e-8


def test_frame_state_general_r():
    alpha_x = 1j
    for r in (0.8, 1.2):
        params = SimParams.from_khz(4.2, r=r)
        red = md.cyclotron_frame_state("plus_z", alpha_x, 0, params)
        a1 = mode_operator(red.space, "x", "lower")
        want = (-(1 - r) * np.conj(alpha_x) + (1 + r) * alpha_x) / (
            2 * math.sqrt(r)
        )
        assert abs(np.trace(red.data @ a1) - want) < 1e-8


@pytest.mark.parametrize("r, n_max", [(0.5, 80), (2.0, 60)])
def test_frame_state_predictor_far_from_unit_field(r, n_max):
    # away from r = 1 the cyclotron ladder is squeezed against the bare
    # mode x; the predictor on the reduced state must still match the
    # two-mode numerics, at a truncation where those are converged
    cfg = sc.build_config("landau", {"noise": False, "r": r, "n_max_x": n_max})
    red = md.cyclotron_frame_state(
        cfg.initial_spin, cfg.alpha_x, cfg.alpha_y, cfg.params
    )
    predicted = an.predict_sigma_z_series(red, cfg.params, cfg.grid)
    psi0 = fs.coherent_state(cfg.space, cfg.alpha_x, cfg.alpha_y, cfg.initial_spin)
    sz = {"sigma_z": md.field_observables(cfg.space, cfg.params)["sigma_z"]}
    sectors = ev.weyl_sectors(cfg.params, cfg.space)
    two_mode = ev.evolve_unitary(sectors, psi0, cfg.grid, sz)["sigma_z"].values
    assert np.abs(predicted.values - two_mode).max() < sc.PREDICTOR_TOL


@pytest.mark.parametrize("n", [1, 2, 7, md.FRAME_NODES])
def test_gauss_hermite_matches_numpy(n):
    # the frame's rule, the position quadrature's eigenvalues as nodes and
    # sqrt(pi) |v_0k|^2 as weights, against numpy's hermgauss, which refines
    # the roots of H_n by Newton steps
    nodes, vectors = fs.quadrature_eigenbasis(n, "position")
    weights = math.sqrt(math.pi) * np.abs(vectors[0]) ** 2
    want_nodes, want_weights = np.polynomial.hermite.hermgauss(n)
    assert np.abs(nodes - want_nodes).max() <= 1e-14
    assert np.abs(weights - want_weights).max() <= 1e-14


def test_noiseless_landau_leaves_numpy_polynomial_unloaded():
    # the predictor check's frame reduction (n_max >= 40) imports no
    # numpy.polynomial (nine modules at first use); a fresh interpreter shows it
    script = (
        "import sys\n"
        "from weylsim import scenarios as sc\n"
        "cfg = sc.build_config('landau', {'noise': False, 'n_max_x': 40})\n"
        "assert 'predictor_max_dev' in [c.name for c in sc.run_landau(cfg).checks]\n"
        "print([m for m in sys.modules if m.startswith('numpy.polynomial')])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(md.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_frame_state_keeps_spin(space):
    params = SimParams.from_khz(4.2, r=1.0)
    psi = fs.coherent_state(space, 1j, 0, "plus_x")
    red = md.cyclotron_frame_state("plus_x", 1j, 0, params)
    for axis in ("x", "y", "z"):
        before = expectation(pauli(space, axis), psi)
        after = expectation(pauli(red.space, axis), red)
        assert abs(before - after) < 1e-8


def test_frame_state_rejects_bad_input():
    with pytest.raises(DomainError):
        md.cyclotron_frame_state("plus_z", 1j, 0, SimParams.from_khz(4.2, r=0.0))
    params = SimParams.from_khz(4.2, r=1.0)
    with pytest.raises(DomainError):
        md.cyclotron_frame_state("up", 1j, 0, params)
    # |alpha_x|^2 = 30 puts about a fifth of the weight past the kept ladder
    with pytest.raises(TruncationError):
        md.cyclotron_frame_state("plus_z", math.sqrt(30), 0, params)
