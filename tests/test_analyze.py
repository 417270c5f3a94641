import math

import numpy as np
import pytest

from weylsim import analyze as an
from weylsim import fockspace as fs
from weylsim import model as md
from weylsim.analyze import Spectrum, TimeSeries
from weylsim.errors import (
    DegenerateError,
    DomainError,
    GridError,
    RankError,
    TruncationError,
)
from weylsim.evolve import TimeGrid
from weylsim.fockspace import SpaceSpec
from weylsim.model import SimParams

from conftest import dense_unitary, pauli, transformed_hamiltonian, weyl_hamiltonian


# --- spectra -------------------------------------------------------------------


def test_constant_series_has_flat_spectrum():
    t = np.linspace(0, 0.6, 201)
    spec = an.fourier_spectrum(TimeSeries(t, np.full(201, 0.7)), pad_factor=4)
    assert spec.amps.max() < 1e-12


def test_single_tone_peak_location():
    t = np.linspace(0, 0.6, 201)
    f0 = 8.4  # kHz
    series = TimeSeries(t, np.cos(2 * math.pi * f0 * t))
    spec = an.fourier_spectrum(series, pad_factor=8)
    assert abs(spec.resolution - 1 / 0.6) < 1e-12
    peaks = an.find_peaks(spec, 0.5)
    assert len(peaks) == 1
    assert abs(peaks[0][0] - f0) < spec.resolution


def test_parseval_at_unit_padding():
    rng = np.random.default_rng(7)
    t = np.linspace(0, 1.0, 128)
    x = rng.normal(size=128)
    spec = an.fourier_spectrum(TimeSeries(t, x), pad_factor=1)
    energy = np.sum((x - x.mean()) ** 2)
    assert abs(np.sum(spec.amps**2) - energy) < 1e-9 * energy


def test_two_tones_resolved():
    t = np.linspace(0, 1.0, 301)
    x = np.cos(2 * math.pi * 6.0 * t) + 0.8 * np.cos(2 * math.pi * 11.0 * t)
    spec = an.fourier_spectrum(TimeSeries(t, x), pad_factor=8)
    peaks = an.find_peaks(spec, 0.4)
    assert len(peaks) == 2
    assert abs(peaks[0][0] - 6.0) < spec.resolution
    assert abs(peaks[1][0] - 11.0) < spec.resolution


def test_peak_refinement_stays_within_a_bin():
    t = np.linspace(0, 0.6, 201)
    series = TimeSeries(t, np.cos(2 * math.pi * 7.3 * t) + 0.1)
    spec = an.fourier_spectrum(series, pad_factor=1)
    df = spec.freqs[1] - spec.freqs[0]
    for freq, _ in an.find_peaks(spec, 0.3):
        k = np.argmin(np.abs(spec.freqs - freq))
        assert abs(freq - spec.freqs[k]) <= df


def _peaks_per_bin(spec, min_amp_frac):
    """find_peaks as one test per bin, the reference for the vectorized pass."""
    a, df, out = spec.amps, spec.freqs[1] - spec.freqs[0], []
    for k in range(1, len(a) - 1):
        if a[k] > a[k - 1] and a[k] > a[k + 1] and a[k] >= min_amp_frac * a.max():
            denom = a[k - 1] - 2 * a[k] + a[k + 1]
            shift = 0.0 if denom == 0 else 0.5 * (a[k - 1] - a[k + 1]) / denom
            freq = spec.freqs[k] + shift * df
            amp = a[k] - 0.25 * (a[k - 1] - a[k + 1]) * shift
            out.append((float(freq), float(amp)))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_find_peaks_matches_per_bin_loop(seed):
    # same formulas in the same order, so the results are equal, not close:
    # on small integers (ties and plateaus), on noise, and on a spectrum
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 0.6, 201)
    series = TimeSeries(t, np.cos(2 * math.pi * 8.4 * t) + rng.normal(size=201))
    freqs = np.arange(300) * 0.37
    for amps in (rng.integers(0, 4, 300).astype(float), rng.uniform(size=300)):
        spec = Spectrum(freqs=freqs, amps=amps, resolution=0.37)
        for frac in (0.02, 0.5, 0.9):
            assert an.find_peaks(spec, frac) == _peaks_per_bin(spec, frac)
    spec = an.fourier_spectrum(series, pad_factor=8)
    assert an.find_peaks(spec, 0.05) == _peaks_per_bin(spec, 0.05)


def test_nonuniform_grid_rejected():
    t = np.array([0.0, 0.1, 0.25, 0.3])
    with pytest.raises(GridError):
        TimeSeries(t, np.zeros(4))


# --- analytic spin-z predictor ----------------------------------------------------


def _single_mode_coherent(space, alpha, spin):
    vec = np.kron(fs.spin_vector(spin), fs.coherent_amplitudes(alpha, space.n_max_x + 1))
    return fs.QState("pure", vec, space)


def test_predictor_stationary_states(sm_space):
    params = SimParams.from_khz(4.2, r=1.0)
    grid = TimeGrid(0.0, 0.6, 101)
    flat = an.predict_sigma_z_series(
        md.landau_eigenstate(sm_space, 0, "zero"), params, grid
    )
    assert np.abs(flat.values - 1.0).max() < 1e-12
    zero = an.predict_sigma_z_series(
        md.landau_eigenstate(sm_space, 1, "plus"), params, grid
    )
    assert np.abs(zero.values).max() < 1e-12


def _predicted_per_level(rho, params, t):
    """<sz(t)> from rho's overlaps with each analytic eigenstate in turn."""
    space = SpaceSpec(len(rho) // 2 - 1, 0)
    e0 = md.landau_eigenstate(space, 0, "zero").data
    values = np.full(len(t), np.real(e0.conj() @ rho @ e0))
    for n in range(1, space.n_max_x + 1):
        ep = md.landau_eigenstate(space, n, "plus").data
        em = md.landau_eigenstate(space, n, "minus").data
        cross = em.conj() @ rho @ ep
        values -= 2 * np.real(cross * np.exp(2j * md.landau_level(n, params) * t))
    return values


@pytest.mark.parametrize("seed", range(3))
def test_predictor_matches_per_level_oracle(seed):
    # random mixed states with no weight on |-z n_max>, the one direction
    # the eigenbasis misses
    rng = np.random.default_rng(seed)
    space = SpaceSpec(9, 0)
    vecs = rng.normal(size=(space.dim, 4)) + 1j * rng.normal(size=(space.dim, 4))
    vecs[-1] = 0
    rho = vecs @ np.diag(rng.uniform(0.2, 1.0, 4)) @ vecs.conj().T
    rho /= np.trace(rho).real
    params = SimParams.from_khz(4.2, r=0.7)
    grid = TimeGrid(0.0, 0.6, 101)
    series = an.predict_sigma_z_series(fs.QState("mixed", rho, space), params, grid)
    want = _predicted_per_level(rho, params, grid.times)
    assert np.abs(series.values - want).max() < 1e-14


def test_predictor_equals_numerical_propagation(sm_space):
    # the closed form against direct propagation of the same single-mode
    # Hamiltonian; this pins the level splittings 2 omega sqrt(n r)
    params = SimParams.from_khz(4.2, r=1.0)
    grid = TimeGrid(0.0, 0.6, 201)
    psi0 = _single_mode_coherent(sm_space, 1j, "plus_z")
    predicted = an.predict_sigma_z_series(psi0, params, grid)
    h = transformed_hamiltonian(sm_space, params)
    sz = {"sigma_z": pauli(sm_space, "z")}
    numeric = dense_unitary(h, psi0, grid, sz)["sigma_z"]
    assert np.abs(predicted.values - numeric.values).max() < 1e-8


def test_predictor_spectrum_sits_on_level_splittings(sm_space):
    # each splitting 2 omega sqrt(n) up to n = 4 is found by a nearby peak;
    # the rectangular window also produces sinc sidelobes between them, so
    # the assertion runs from the expected lines, not from the peak list
    params = SimParams.from_khz(4.2, r=1.0)
    grid = TimeGrid(0.0, 5.0, 501)
    psi0 = _single_mode_coherent(sm_space, 1j, "plus_z")
    series = an.predict_sigma_z_series(psi0, params, grid)
    spec = an.fourier_spectrum(series, pad_factor=8)
    peaks = an.find_peaks(spec, 0.02)
    for n in range(1, 5):
        want = 2 * md.landau_level(n, params) / (2 * math.pi)
        nearest = min(abs(f - want) for f, _ in peaks)
        assert nearest < spec.resolution


def test_predictor_mixed_state_and_phases():
    # spin +x input exercises the coherence terms; reference is a dense
    # two-mode propagation at moderate truncation
    space = SpaceSpec(20, 20)
    params = SimParams.from_khz(4.2, r=1.0)
    grid = TimeGrid(0.0, 0.6, 101)
    psi0 = fs.coherent_state(space, 1j, 0, "plus_x")
    red = md.cyclotron_frame_state("plus_x", 1j, 0, params)
    predicted = an.predict_sigma_z_series(red, params, grid)
    h = weyl_hamiltonian(space, params)
    numeric = dense_unitary(h, psi0, grid, {"sigma_z": pauli(space, "z")})[
        "sigma_z"
    ]
    # agreement is limited by the two-mode truncation, not the predictor
    assert np.abs(predicted.values - numeric.values).max() < 5e-4


def test_predictor_rejects_leaking_state():
    # the eigenbasis misses exactly one direction, spin-down at the edge
    # level, so a spin-down state with weight there must be refused
    space = SpaceSpec(3, 0)
    params = SimParams.from_khz(4.2, r=1.0)
    psi0 = _single_mode_coherent(space, 0.86, "minus_z")
    with pytest.raises(TruncationError):
        an.predict_sigma_z_series(psi0, params, TimeGrid(0.0, 0.1, 5))
    with pytest.raises(DomainError):  # a state on a two-mode space
        two_mode = fs.coherent_state(SpaceSpec(3, 3), 0.5, 0)
        an.predict_sigma_z_series(two_mode, params, TimeGrid(0.0, 0.1, 5))


# --- fits ---------------------------------------------------------------------


def test_cubic_fit_recovers_exact_coefficients():
    # the fit is of the polynomial in t - t0, t0 the first sample, so
    # slope_at_zero is the slope there, not at t = 0
    coeffs = [0.3, -1.7, 2.2, 0.9]
    for t0 in (0.0, 1.0):
        t = np.linspace(t0, t0 + 0.4, 25)
        u = t - t0
        y = coeffs[0] + coeffs[1] * u + coeffs[2] * u**2 + coeffs[3] * u**3
        fit = an.fit_polynomial(TimeSeries(t, y), 3)
        assert abs(fit.slope_at_zero - coeffs[1]) < 1e-10
        assert fit.residual_rms < 1e-12


def test_constant_fit_slope_zero():
    t = np.linspace(0, 1, 10)
    fit = an.fit_polynomial(TimeSeries(t, np.full(10, 2.5)), 3)
    assert abs(fit.slope_at_zero) < 1e-12


def test_sine_slope_extraction():
    t = np.linspace(0, 0.1, 12)
    fit = an.fit_polynomial(TimeSeries(t, np.sin(2 * t)), 3)
    assert abs(fit.slope_at_zero - 2.0) < 1e-3


def test_fit_rank_guard():
    t = np.linspace(0, 1, 4)
    with pytest.raises(RankError):
        an.fit_polynomial(TimeSeries(t, np.zeros(4)), 3)


def test_linear_fit_through_origin():
    xs = np.array([0.5, 1.0, 2.0])
    assert abs(an.linear_fit_through_origin(xs, 2 * xs) - 2.0) < 1e-14
    assert abs(an.linear_fit_through_origin([1.0], [3.0]) - 3.0) < 1e-14
    with pytest.raises(DegenerateError):
        an.linear_fit_through_origin([0.0, 0.0], [1.0, 2.0])


# --- geometry -------------------------------------------------------------------


def _series_pair(x, y, t=None):
    t = np.linspace(0, 1, len(x)) if t is None else t
    return TimeSeries(t, x), TimeSeries(t, y)


def test_azimuth_basics():
    t = np.linspace(0, 1, 3)
    sx = TimeSeries(t, np.array([1.0, 0.0, -1.0]))
    sy = TimeSeries(t, np.array([0.0, 1.0, 0.0]))
    pix = TimeSeries(t, np.array([1.0, 1.0, 1.0]))
    piy = TimeSeries(t, np.zeros(3))
    az = an.azimuth_pair_series(sx, sy, pix, piy)
    assert abs(az.phi_spin.values[0]) < 1e-14
    assert abs(az.phi_spin.values[1] - math.pi / 2) < 1e-14
    assert np.abs(az.phi_momentum.values).max() < 1e-14
    assert not az.poles_spin.any()


def test_azimuth_unwrap_continuity():
    t = np.linspace(0, 1, 400)
    ang = 3.0 * 2 * math.pi * t
    sx = TimeSeries(t, np.cos(ang))
    sy = TimeSeries(t, np.sin(ang))
    az = an.azimuth_pair_series(sx, sy, sx, sy)
    assert np.abs(np.diff(az.phi_spin.values)).max() < math.pi
    assert abs(az.phi_spin.values[-1] - ang[-1]) < 1e-9


def test_azimuth_pole_flags():
    t = np.linspace(0, 1, 3)
    sx = TimeSeries(t, np.array([1.0, 1e-9, 1.0]))
    sy = TimeSeries(t, np.array([0.0, 1e-9, 0.0]))
    az = an.azimuth_pair_series(sx, sy, sx, sy)
    assert az.poles_spin.tolist() == [False, True, False]


def test_azimuth_ratio_on_rounding_noise_is_the_y_to_zero_limit():
    # a y of 1e-16 against x = sqrt(2) is rounding noise: the ratio is
    # +-inf by the sign of x, whatever the sign of the noise, and no pole
    t = np.linspace(0, 1, 4)
    root2 = math.sqrt(2)
    sx = TimeSeries(t, np.array([root2, root2, -root2, 1.0]))
    sy = TimeSeries(t, np.array([1e-16, -1e-16, 1e-16, 2.0]))
    az = an.azimuth_pair_series(sx, sy, sx, sy)
    assert az.ratio_spin.tolist() == [math.inf, math.inf, -math.inf, 0.5]
    assert not az.poles_spin.any()


def test_chirality_circle_and_reverse():
    t = np.linspace(0, 1, 100)
    ang = 2 * math.pi * t
    x, y = np.cos(ang), np.sin(ang)
    xs, ys = _series_pair(x, y)
    assert an.trajectory_chirality(xs, ys) == "counterclockwise"
    xs_r, ys_r = _series_pair(x[::-1], y[::-1])
    assert an.trajectory_chirality(xs_r, ys_r) == "clockwise"


def test_chirality_rotation_invariance_reflection_flip(rng):
    t = np.linspace(0, 1, 150)
    for _ in range(5):
        # random smooth closed-ish curve with a net turning sense
        ang = 2 * math.pi * t
        radius = 1.0 + 0.3 * np.sin(2 * math.pi * rng.integers(1, 4) * t + rng.normal())
        x, y = radius * np.cos(ang), radius * np.sin(ang)
        base = an.trajectory_chirality(*_series_pair(x, y))
        theta = rng.uniform(0, 2 * math.pi)
        xr = math.cos(theta) * x - math.sin(theta) * y
        yr = math.sin(theta) * x + math.cos(theta) * y
        assert an.trajectory_chirality(*_series_pair(xr, yr)) == base
        flipped = an.trajectory_chirality(*_series_pair(x, -y))
        assert flipped != base


def test_chirality_degenerate_line():
    t = np.linspace(0, 1, 50)
    with pytest.raises(DegenerateError):
        an.trajectory_chirality(*_series_pair(t, 2 * t))


def test_spectrum_validation():
    with pytest.raises(DomainError):
        Spectrum(np.array([1.0, 0.5]), np.array([1.0, 1.0]), 0.1)
