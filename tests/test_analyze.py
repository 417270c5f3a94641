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


# --- line sums ---------------------------------------------------------------------


@pytest.mark.parametrize("n_samples", [2, 15, 17, 255, 300])
def test_line_values_match_the_direct_sum(n_samples):
    # repeated, negative and zero frequencies, two observables, a grid that
    # does not start at 0 and sample counts off the chunk size
    rng = np.random.default_rng(n_samples)
    freqs = rng.uniform(-60.0, 60.0, 9)
    freqs = np.concatenate([freqs, freqs[:3], -freqs[:2], [0.0]])
    amps = rng.normal(size=(2, len(freqs))) + 1j * rng.normal(size=(2, len(freqs)))
    steady = rng.normal(size=2)
    times = TimeGrid(0.37, 0.37 + rng.uniform(0.2, 5.0), n_samples).times
    got = an.line_values(steady, freqs, amps, times)
    want = steady[:, None] + np.real(amps @ np.exp(1j * np.outer(freqs, times)))
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-12
    none = an.line_values(steady, freqs[:0], amps[:, :0], times)
    assert np.array_equal(none, np.repeat(steady[:, None], n_samples, axis=1))


@pytest.mark.parametrize("n_samples", [7, 300])
def test_line_values_merge_equal_frequencies(n_samples):
    # each line split into one to four of its frequency, shuffled: the sum
    # equals that of the pre-merged lines within 1e-15 of its scale
    rng = np.random.default_rng(n_samples)
    freqs = np.concatenate([rng.uniform(-60.0, 60.0, 8), [0.0]])
    amps = rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))
    steady = rng.normal(size=2)
    times = TimeGrid(0.0, rng.uniform(0.2, 5.0), n_samples).times
    copies = rng.integers(1, 5, len(freqs))
    parts = []
    for a, n in zip(amps.T, copies):
        split = rng.normal(size=(2, n - 1)) + 1j * rng.normal(size=(2, n - 1))
        parts.append(np.column_stack([split, a - split.sum(axis=1)]))
    shuffle = rng.permutation(copies.sum())
    raw_freqs = np.repeat(freqs, copies)[shuffle]
    raw_amps = np.concatenate(parts, axis=1)[:, shuffle]
    got = an.line_values(steady, raw_freqs, raw_amps, times)
    want = an.line_values(steady, freqs, amps, times)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(raw_amps).sum()


def test_line_values_evaluate_a_merged_list_as_given():
    # a stable-sorted list of distinct frequencies passes the merge as it
    # is, so a raw list gives the same bits as its merge by a stable argsort
    # and np.add.reduceat, the population path's former inline merge, and
    # evolve_unitary's sigma_z stays bit for bit
    rng = np.random.default_rng(5)
    freqs = rng.choice(rng.uniform(-60.0, 60.0, 12), 40)
    amps = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
    steady = rng.normal(size=3)
    times = TimeGrid(0.0, 2.0, 201).times
    order = np.argsort(freqs, kind="stable")
    f = freqs[order]
    distinct = np.flatnonzero(np.concatenate([[True], f[1:] != f[:-1]]))
    merged = f[distinct], np.add.reduceat(amps[:, order], distinct, axis=1)
    assert len(distinct) == 12
    got = an.line_values(steady, freqs, amps, times)
    assert np.array_equal(got, an.line_values(steady, *merged, times))


# --- analytic spin-z predictor ----------------------------------------------------


def _single_mode_coherent(space, alpha, spin):
    vec = np.kron(fs.spin_vector(spin), fs.coherent_amplitudes(alpha, space.n_max_x + 1))
    return fs.QState("pure", vec, space)


def test_predictor_stationary_states(sm_space):
    params = SimParams(md.khz(4.2), r=1.0)
    grid = TimeGrid(0.0, 0.6, 101)
    _, vectors = md.landau_basis(sm_space, params)
    flat = an.predict_sigma_z_series(
        fs.basis_state(sm_space, "plus_z", 0, 0), params, grid
    )
    assert np.abs(flat.values - 1.0).max() < 1e-12
    zero = an.predict_sigma_z_series(
        fs.QState("pure", vectors[:, 1], sm_space), params, grid
    )
    assert np.abs(zero.values).max() < 1e-12


def _predicted_per_level(rho, params, t):
    """<sz(t)> from rho's overlaps with each analytic eigenstate in turn."""
    space = SpaceSpec(len(rho) // 2 - 1, 0)
    _, vectors = md.landau_basis(space, params)
    e0 = vectors[:, 0]
    values = np.full(len(t), np.real(e0.conj() @ rho @ e0))
    for n in range(1, space.n_max_x + 1):
        ep, em = vectors[:, n], vectors[:, space.n_max_x + n]
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
    params = SimParams(md.khz(4.2), r=0.7)
    grid = TimeGrid(0.0, 0.6, 101)
    series = an.predict_sigma_z_series(fs.QState("mixed", rho, space), params, grid)
    want = _predicted_per_level(rho, params, grid.times)
    assert np.abs(series.values - want).max() < 1e-14


def test_predictor_equals_numerical_propagation(sm_space):
    # the closed form against direct propagation of the same single-mode
    # Hamiltonian; this pins the level splittings 2 omega sqrt(n r)
    params = SimParams(md.khz(4.2), r=1.0)
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
    params = SimParams(md.khz(4.2), r=1.0)
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
    params = SimParams(md.khz(4.2), r=1.0)
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
    params = SimParams(md.khz(4.2), r=1.0)
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
        fit = an.fit_polynomial(TimeSeries(t, y))
        assert abs(fit.slope_at_zero - coeffs[1]) < 1e-10
        assert fit.residual_rms < 1e-12


def test_constant_fit_slope_zero():
    t = np.linspace(0, 1, 10)
    fit = an.fit_polynomial(TimeSeries(t, np.full(10, 2.5)))
    assert abs(fit.slope_at_zero) < 1e-12


def test_sine_slope_extraction():
    t = np.linspace(0, 0.1, 12)
    fit = an.fit_polynomial(TimeSeries(t, np.sin(2 * t)))
    assert abs(fit.slope_at_zero - 2.0) < 1e-3


def test_fit_rank_guard():
    t = np.linspace(0, 1, 4)
    with pytest.raises(RankError):
        an.fit_polynomial(TimeSeries(t, np.zeros(4)))


def test_linear_fit_through_origin():
    xs = np.array([0.5, 1.0, 2.0])
    assert abs(an.linear_fit_through_origin(xs, 2 * xs) - 2.0) < 1e-14
    assert abs(an.linear_fit_through_origin([1.0], [3.0]) - 3.0) < 1e-14
    with pytest.raises(DegenerateError):
        an.linear_fit_through_origin([0.0, 0.0], [1.0, 2.0])


def test_linear_fit_through_origin_is_scale_free():
    # sum x^2 underflows below |x| ~ 1.5e-154; the fit scales the abscissae
    # by a power of two, which leaves an ordinary sweep's slope bit for bit
    slope = an.linear_fit_through_origin([1e-300, 3e-300], [2.0, 6.0])
    assert abs(slope / 2e300 - 1) <= 1e-15
    rng = np.random.default_rng(5)
    for scale in (1e-3, 0.59, 1.0, 3.7, 1e4):
        xs = scale * rng.uniform(0.1, 1.2, 7)
        ys = 3.36 * xs + rng.normal(scale=1e-3, size=7)
        assert an.linear_fit_through_origin(xs, ys) == float(xs @ ys) / float(xs @ xs)


# --- geometry -------------------------------------------------------------------


def _series_pair(x, y, t=None):
    t = np.linspace(0, 1, len(x)) if t is None else t
    return TimeSeries(t, x), TimeSeries(t, y)


def test_azimuth_basics():
    x, y = np.array([1.0, 0.0, -1.0]), np.array([0.0, 1.0, 0.0])
    phi_spin, _, poles_spin = an.azimuth(x, y)
    phi_momentum, _, _ = an.azimuth(np.ones(3), np.zeros(3))
    assert abs(phi_spin[0]) < 1e-14
    assert abs(phi_spin[1] - math.pi / 2) < 1e-14
    assert np.abs(phi_momentum).max() < 1e-14
    assert not poles_spin.any()


def test_azimuth_unwrap_continuity():
    t = np.linspace(0, 1, 400)
    ang = 3.0 * 2 * math.pi * t
    phi, _, _ = an.azimuth(np.cos(ang), np.sin(ang))
    assert np.abs(np.diff(phi)).max() < math.pi
    assert abs(phi[-1] - ang[-1]) < 1e-9


def test_azimuth_pole_flags():
    _, _, poles = an.azimuth(np.array([1.0, 1e-9, 1.0]), np.array([0.0, 1e-9, 0.0]))
    assert poles.tolist() == [False, True, False]


def test_azimuth_ratio_on_rounding_noise_is_the_y_to_zero_limit():
    # a y of 1e-16 against x = sqrt(2) is rounding noise: the ratio is
    # +-inf by the sign of x, whatever the sign of the noise, and no pole
    root2 = math.sqrt(2)
    x = np.array([root2, root2, -root2, 1.0])
    y = np.array([1e-16, -1e-16, 1e-16, 2.0])
    _, ratio, poles = an.azimuth(x, y)
    assert ratio.tolist() == [math.inf, math.inf, -math.inf, 0.5]
    assert not poles.any()


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
