import math

import numpy as np
import pytest

from weylsim import analyze as an
from weylsim import evolve as ev
from weylsim import fockspace as fs
from weylsim import model as md
from weylsim import probe as pr
from weylsim.errors import DomainError, TruncationError
from weylsim.evolve import TimeGrid
from weylsim.fockspace import SpaceSpec
from weylsim.model import SimParams

from conftest import (
    dense_unitary,
    expectation,
    mode_operator,
    pauli,
    probe_hamiltonian,
    weyl_hamiltonian,
)

TARGETS = ("x", "px", "y", "py")


@pytest.fixture(scope="module")
def params():
    return SimParams(md.khz(4.75), r=0.0)


def direct_quadratures(state):
    """Direct expectation oracle for all four quadrature targets."""
    space = state.space
    return {
        "x": expectation(mode_operator(space, "x", "position"), state),
        "px": expectation(mode_operator(space, "x", "momentum"), state),
        "y": expectation(mode_operator(space, "y", "position"), state),
        "py": expectation(mode_operator(space, "y", "momentum"), state),
    }


@pytest.fixture()
def fitted(monkeypatch):
    """The readout series each protocol call hands to its cubic fit."""
    seen = []
    fit = an.fit_polynomial

    def recording(series):
        seen.append(series)
        return fit(series)

    monkeypatch.setattr(an, "fit_polynomial", recording)
    return seen


def _grid_of(series):
    return TimeGrid(series.times[0], series.times[-1], len(series.times))


def assert_matches_dense_sine_table(fitted, got, per_slope, rates, weights):
    """The readout series a protocol fitted against -sum_k w_k sin(f_k t)
    as one dense sine table, relative to the bound sum_k |w_k| of both, and
    the protocol's estimate against per_slope times the slope at zero of
    the cubic fit to that table."""
    series = fitted[-1]
    dense = -np.sin(np.outer(series.times - series.times[0], rates)) @ weights
    assert np.abs(series.values - dense).max() <= 1e-13 * np.abs(weights).sum()
    slope = an.fit_polynomial(an.TimeSeries(series.times, dense)).slope_at_zero
    want = per_slope * slope
    assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


# --- quadrature protocol ---------------------------------------------------------


def probe_oracle_series(state, target, params, grid):
    """<sigma_z>(t) of the reset, rotated input under the dense probe Hamiltonian.

    The reset qubit is re-prepared on +x, so the probe starts from
    |+x><+x| (x) rho_m; that mixture is propagated as its pure components
    |+x>|phi_i>, the eigenvectors of the motional state rho_m.
    """
    space = state.space
    m = space.dim // 2
    rho_m = np.einsum("smsn->mn", state.to_density().reshape(2, m, 2, m))
    lam, phis = np.linalg.eigh(rho_m)
    h = probe_hamiltonian(space, params, target)
    sz = {"sigma_z": pauli(space, "z")}
    total = np.zeros(grid.n_samples)
    for weight, phi in zip(lam, phis.T):
        if weight > 1e-15:
            psi = fs.QState("pure", np.kron(fs.spin_vector("plus_x"), phi), space)
            total += weight * dense_unitary(h, psi, grid, sz)["sigma_z"].values
    return total


def test_probe_series_matches_dense_oracle(fitted):
    # the closed-form precession sum against dense propagation of the reset,
    # rotated state: random coherent inputs and spins, a spin-motion
    # entangled input and a mixed one, every target
    rng = np.random.default_rng(11)
    space = SpaceSpec(10, 7)  # unequal modes catch a swapped axis
    params = SimParams(md.khz(rng.uniform(2, 6)), r=0.0)

    def coherent(spin):
        alpha_x = rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        alpha_y = rng.uniform(0, 1.3) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        return fs.coherent_state(space, alpha_x, alpha_y, spin).data

    spins = rng.permutation(fs.SPIN_LABELS)
    states = [fs.QState("pure", coherent(s), space) for s in spins]
    a, b = coherent("plus_z"), coherent("minus_x")
    states.append(fs.QState("pure", (a + b) / np.linalg.norm(a + b), space))
    c, d = coherent("plus_x"), coherent("minus_z")
    w = rng.uniform(0.2, 0.8)
    rho = w * np.outer(c, c.conj()) + (1 - w) * np.outer(d, d.conj())
    states.append(fs.QState("mixed", rho, space))
    for state in states:
        for target in TARGETS:
            pr.measure_quadrature(state, target, params)
            got = fitted[-1]
            want = probe_oracle_series(state, target, params, _grid_of(got))
            assert np.abs(got.values - want).max() < 1e-12


@pytest.mark.parametrize("n_max", [18, 24])
def test_probe_series_matches_the_dense_sine_table(fitted, params, n_max):
    rng = np.random.default_rng(n_max)
    space = SpaceSpec(n_max, n_max)
    scale = math.sqrt(2) * params.omega
    for spin in ("plus_z", "minus_x", "minus_z"):
        alpha_x, alpha_y = rng.uniform(-1.2, 1.2, 2) + 1j * rng.uniform(-1.2, 1.2, 2)
        state = fs.coherent_state(space, alpha_x, alpha_y, spin)
        for target in TARGETS:
            got = pr.measure_quadrature(state, target, params)
            q, weights = pr._target_distribution(state, target)
            assert_matches_dense_sine_table(fitted, got, -1 / scale, scale * q, weights)


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


def test_probe_window_stays_within_the_phase_budget(fitted, space, params):
    # the window is sized from <Q>, so its largest phase sqrt(2) omega t |<Q>|
    # never exceeds the budget; a truncated |alpha = 1.5> reads <x> slightly
    # below sqrt(2) 1.5, so the protocol's own <Q> is the one to check
    for alpha in (0.0, 0.3, 0.7, 1.5):
        st = fs.coherent_state(space, alpha, 0, "plus_z")
        pr.measure_quadrature(st, "x", params)
        q, weights = pr._target_distribution(st, "x")
        span = fitted[-1].times[-1] - fitted[-1].times[0]
        phase = math.sqrt(2) * params.omega * span * abs(weights @ q)
        assert phase <= pr.PROBE_PHASE_BUDGET * (1 + 1e-12)


# --- energy protocol ---------------------------------------------------------------

FREE_SPACE = SpaceSpec(18, 18)  # the dispersion scenario's truncation


def test_zero_momentum_zero_energy(params):
    got = pr.measure_energy_slope(0.0, 0.0, params, FREE_SPACE)
    assert abs(got) < 1e-3 * params.omega


def test_unit_momentum_energy(params):
    got = pr.measure_energy_slope(1.0, 0.0, params, FREE_SPACE)
    want = params.omega / math.sqrt(2)
    assert abs(got - want) / want < 0.02
    assert abs(want / (2 * math.pi) - 3.3588) < 1e-3


def test_dispersion_sweep_linear(params):
    ps = [0.5, 1.0, 1.5, 2.0]
    energies = [pr.measure_energy_slope(p, 0.0, params, FREE_SPACE) for p in ps]
    slope = an.linear_fit_through_origin(ps, energies)
    want = params.omega / math.sqrt(2)
    assert abs(slope - want) / want < 0.02


def test_energy_protocol_off_axis(params):
    got = pr.measure_energy_slope(1.2, 0.9, params, FREE_SPACE)
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
        got = pr.measure_energy_slope(p, 0.0, params, FREE_SPACE, grid=grid)
        errs.append(abs(got - want) / want)
    assert errs[2] < errs[0]
    assert errs[2] < 1e-4


def sigma_theta_perp(space, theta):
    """Spin component perpendicular to the in-plane direction theta."""
    return -math.sin(theta) * pauli(space, "x") + math.cos(theta) * pauli(space, "y")


def test_energy_series_matches_dense_oracle(fitted, params):
    # the closed-form precession sum against dense propagation under the
    # free Hamiltonian, at random momenta, directions and windows
    rng = np.random.default_rng(7)
    space = SpaceSpec(12, 9)  # unequal modes catch a swapped axis
    h = weyl_hamiltonian(space, params)
    for p in (0.0, *rng.uniform(0.1, 2.1, 5)):
        theta = rng.uniform(0, 2 * math.pi)
        t_start = rng.uniform(0, 0.01)
        e_est = params.omega / math.sqrt(2) * max(p, 0.5)  # default window scale
        span = rng.uniform(1, 4) * 0.25 / (2 * e_est)
        grid = TimeGrid(t_start, t_start + span, 12)
        pr.measure_energy_slope(p, theta, params, grid=grid, space=space)
        alpha_x = 1j * p * math.cos(theta) / math.sqrt(2)
        alpha_y = 1j * p * math.sin(theta) / math.sqrt(2)
        psi0 = fs.coherent_state(space, alpha_x, alpha_y, "plus_z")
        perp = {"perp": sigma_theta_perp(space, theta)}
        want = dense_unitary(h, psi0, grid, perp)["perp"].values
        assert np.abs(fitted[-1].values - want).max() < 1e-12


def energy_readout_lines(p, theta, params, space):
    """Rates sqrt(2) omega |b| and weights P_j Q_k (b.n_theta/|b|) of the
    perpendicular-spin readout, over the sectors b = (p_j, p_k)."""
    alpha_x = 1j * p * math.cos(theta) / math.sqrt(2)
    alpha_y = 1j * p * math.sin(theta) / math.sqrt(2)
    state = fs.coherent_state(space, alpha_x, alpha_y)
    px, wx = pr._target_distribution(state, "px")
    py, wy = pr._target_distribution(state, "py")
    size = np.hypot.outer(px, py)
    along = np.add.outer(px * math.cos(theta), py * math.sin(theta))
    cosines = np.divide(along, size, out=np.zeros_like(size), where=size > 0)
    weights = np.outer(wx, wy) * cosines
    return math.sqrt(2) * params.omega * size.ravel(), weights.ravel()


@pytest.mark.parametrize("n_max", [18, 24])
def test_energy_series_matches_the_dense_sine_table(fitted, params, n_max):
    # the default sweep, jittered by up to 5% as the benchmark's seeds do it,
    # at several directions; the symmetric momentum grid repeats |b|, so the
    # merge of equal frequencies runs
    rng = np.random.default_rng(n_max)
    space = SpaceSpec(n_max, n_max)
    sweep = np.array([0.0, 0.59, 1.19, 1.78, 2.38]) * rng.uniform(0.95, 1.05, 5)
    for p in sweep:
        for theta in (0.0, 0.4, math.pi / 2, rng.uniform(0, 2 * math.pi)):
            got = pr.measure_energy_slope(p, theta, params, space=space)
            rates, weights = energy_readout_lines(p, theta, params, space)
            assert len(np.unique(rates)) < len(rates)
            assert_matches_dense_sine_table(fitted, got, -0.5, rates, weights)


def test_energy_protocol_truncation_guard(params):
    # the wavepacket |alpha|^2 = p^2/2 must stay within n_max/4 on each mode
    space = SpaceSpec(8, 8)
    for theta in (0.0, math.pi / 2):
        with pytest.raises(TruncationError):
            pr.measure_energy_slope(2.01, theta, params, space=space)
        pr.measure_energy_slope(1.99, theta, params, space=space)


def test_energy_requires_free_model():
    with pytest.raises(DomainError):
        pr.measure_energy_slope(1.0, 0.0, SimParams(md.khz(4.75), r=1.0), FREE_SPACE)


# --- derived series ------------------------------------------------------------------


def test_kinetic_momentum_reduces_to_momentum_at_zero_field(space):
    params = SimParams(md.khz(4.2), r=0.0)
    psi0 = fs.coherent_state(space, 0.6j, 0.3, "plus_x")
    grid = TimeGrid(0.0, 0.1, 11)
    obs = md.field_observables(space, params)
    pair = {k: obs[k] for k in ("pi_y", "p_y")}
    series = ev.evolve_unitary(ev.weyl_sectors(params, space), psi0, grid, pair)
    assert np.abs(series["pi_y"].values - series["p_y"].values).max() == 0.0


def test_kinetic_momentum_initial_values(space):
    # the initial coherent preparation carries <pi_x> = sqrt(2), <pi_y> = 0,
    # so the squared magnitude starts at 2 (direct expectation oracle)
    params = SimParams(md.khz(4.2), r=1.0)
    psi0 = fs.coherent_state(space, 1j, 0, "plus_x")
    grid = TimeGrid(0.0, 0.05, 6)
    obs = md.field_observables(space, params)
    pair = {k: obs[k] for k in ("pi_x", "pi_y")}
    series = ev.evolve_unitary(ev.weyl_sectors(params, space), psi0, grid, pair)
    pix, piy = series["pi_x"], series["pi_y"]
    assert abs(pix.values[0] - math.sqrt(2)) < 1e-6
    assert abs(piy.values[0]) < 1e-9
    assert abs(pix.values[0] ** 2 + piy.values[0] ** 2 - 2.0) < 1e-6


def test_spin_expectations_initial_values(space):
    params = SimParams(md.khz(4.2), r=1.0)
    psi0 = fs.coherent_state(space, 1j, 0, "plus_z")
    grid = TimeGrid(0.0, 0.05, 6)
    obs = md.field_observables(space, params)
    spins = {k: obs[k] for k in ("sigma_y", "sigma_z")}
    series = ev.evolve_unitary(ev.weyl_sectors(params, space), psi0, grid, spins)
    assert abs(series["sigma_z"].values[0] - 1.0) < 1e-12
    assert abs(series["sigma_y"].values[0]) < 1e-12
