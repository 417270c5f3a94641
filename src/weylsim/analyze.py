"""Spectral and geometric post-processing of sampled observables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as md
from .errors import DegenerateError, DomainError, GridError, RankError, TruncationError
from .fockspace import QState, _frozen


@dataclass(frozen=True)
class TimeSeries:
    """Real observable sampled on a uniform time grid (times in ms)."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or len(t) < 2:
            raise GridError("times and values must be equal-length 1d arrays, >= 2")
        steps = np.diff(t)
        span = t[-1] - t[0]
        if steps.min() <= 0 or np.abs(steps - steps[0]).max() > 1e-12 * max(span, 1.0):
            raise GridError("time grid is not uniform")
        object.__setattr__(self, "times", _frozen(t))
        object.__setattr__(self, "values", _frozen(v))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class Spectrum:
    """One-sided amplitude spectrum; freqs in kHz (= cycles/ms)."""

    freqs: np.ndarray
    amps: np.ndarray
    resolution: float  # kHz, 1 / record length

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        a = np.asarray(self.amps, dtype=float)
        if f.shape != a.shape or f.ndim != 1:
            raise DomainError("freqs and amps must be equal-length 1d arrays")
        if f[0] < 0 or np.any(np.diff(f) <= 0):
            raise DomainError("freqs must be non-negative and ascending")
        object.__setattr__(self, "freqs", _frozen(f))
        object.__setattr__(self, "amps", _frozen(a))


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares polynomial fit of an early-time curve."""

    slope_at_zero: float  # the slope at the first sample t0
    residual_rms: float


def fourier_spectrum(series: TimeSeries, pad_factor: int = 8) -> Spectrum:
    """Amplitude spectrum of the mean-subtracted series.

    Zero padding by pad_factor only interpolates the spectrum; the stated
    resolution stays at one over the record length.  Amplitudes are scaled
    so that at pad_factor 1 the sum of squared amplitudes equals the
    mean-subtracted series energy (Parseval).
    """
    if pad_factor < 1:
        raise DomainError("pad_factor must be >= 1")
    x = series.values - series.values.mean()
    n = len(x)
    n_fft = n * pad_factor
    spec = np.fft.rfft(x, n=n_fft)
    freqs = np.fft.rfftfreq(n_fft, d=series.dt)
    weights = np.full(len(freqs), 2.0)
    weights[0] = 1.0
    if n_fft % 2 == 0:
        weights[-1] = 1.0
    amps = np.abs(spec) * np.sqrt(weights / n)
    return Spectrum(freqs=freqs, amps=amps, resolution=1.0 / series.span)


def find_peaks(spec: Spectrum, min_amp_frac: float) -> list[tuple[float, float]]:
    """Interior local maxima above a fraction of the global maximum.

    Each peak is refined by quadratic interpolation on its three bins; the
    refinement can move a peak by at most half a bin.  The DC bin is never
    a peak (the series mean is removed before the transform).
    """
    if not 0 < min_amp_frac < 1:
        raise DomainError("min_amp_frac must lie in (0, 1)")
    a = spec.amps
    if len(a) < 3:
        return []
    thresh = min_amp_frac * a.max()
    df = spec.freqs[1] - spec.freqs[0]
    below, at, above = a[:-2], a[1:-1], a[2:]
    k = np.flatnonzero((at > below) & (at > above) & (at >= thresh))
    below, at, above = below[k], at[k], above[k]
    denom = below - 2 * at + above
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(denom == 0, 0.0, 0.5 * (below - above) / denom)
    freq = spec.freqs[k + 1] + shift * df
    amp = at - 0.25 * (below - above) * shift
    return list(zip(freq.tolist(), amp.tolist()))


def predict_sigma_z_series(psi0: QState, params, grid) -> TimeSeries:
    """Closed-form spin-z dynamics of the single-mode Hamiltonian.

    Expands the state in the analytic eigenbasis (`model.landau_eigenstate`):
    the n = 0 level |+z 0> contributes a constant and each n >= 1 doublet
    (|-z n-1> +- i|+z n>)/sqrt(2) an oscillation at the level splitting
    2 omega sqrt(n r), so
    <sz(t)> = rho_00 - sum_n 2 Re[<E_n^-|rho|E_n^+> e^{2 i E_n t}], with
    <E_n^-|rho|E_n^+> = (rho(-z n-1; -z n-1) - rho(+z n; +z n)
    + i rho(-z n-1; +z n) + i rho(+z n; -z n-1)) / 2.
    The doublets and |+z 0> span all but |-z n_max_x>.  psi0 lives on the
    cyclotron frame's space, n_max_y = 0.
    """
    if params.r <= 0:
        raise DomainError("the analytic series requires r > 0")
    if psi0.space.n_max_y != 0:
        raise DomainError("psi0 must live on the single-mode space, n_max_y = 0")
    rho = psi0.to_density()
    d1 = psi0.space.n_max_x + 1  # |+z n> is index n, |-z n> is d1 + n
    up = np.diagonal(rho)[:d1].real
    down = np.diagonal(rho)[d1:].real
    lower = np.diagonal(rho, 1 - d1)[1:d1]  # rho(-z n-1; +z n), n >= 1
    upper = np.diagonal(rho, d1 - 1)[1:d1]  # rho(+z n; -z n-1)
    cross = (down[:-1] - up[1:] + 1j * (lower + upper)) / 2
    t = grid.times - grid.times[0]
    values = np.full(len(t), up[0])
    for n, c in enumerate(cross, start=1):
        values -= 2 * np.real(c * np.exp(2j * md.landau_level(n, params) * t))
    captured = float(np.trace(rho).real - down[-1])
    if captured < 1 - 1e-8:
        raise TruncationError(
            f"eigen expansion captured only {captured:.12f} of the state"
        )
    return TimeSeries(times=grid.times, values=values, label="sigma_z_predicted")


def fit_polynomial(series: TimeSeries, order: int) -> SlopeFit:
    """Ordinary least squares polynomial fit, with its slope and residual.

    The fit runs in (t - t0)/span for conditioning, t0 the first sample, so
    the slope is the one at t0, not at t = 0.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    if len(series.times) <= order + 1:
        raise RankError("series too short for the requested order")
    t0 = series.times[0]
    u = (series.times - t0) / series.span
    design = np.vander(u, order + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, series.values, rcond=None)
    if rank < order + 1:
        raise RankError("degenerate design matrix")
    resid = series.values - design @ coeffs
    return SlopeFit(
        slope_at_zero=float(coeffs[1] / series.span),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def linear_fit_through_origin(xs, ys) -> float:
    """Least-squares slope of y = k x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) == 0:
        raise DomainError("xs and ys must be equal-length non-empty 1d arrays")
    denom = float(xs @ xs)
    if denom == 0.0:
        raise DegenerateError("all abscissae are zero")
    return float(xs @ ys) / denom


@dataclass(frozen=True)
class AzimuthSeries:
    """Unwrapped azimuth angles of the spin and kinetic-momentum vectors.

    The x/y component ratios mirror the angle data but blow up near zeros
    of the denominator; where |y| is below 1e-12 of the vector's length the
    ratio is +-inf with the sign of x.  Entries where both components are
    below 1e-6 are flagged as poles rather than raised.
    """

    phi_spin: TimeSeries
    phi_momentum: TimeSeries
    ratio_spin: np.ndarray
    ratio_momentum: np.ndarray
    poles_spin: np.ndarray
    poles_momentum: np.ndarray


def _azimuth(x: np.ndarray, y: np.ndarray):
    poles = (np.abs(x) < 1e-6) & (np.abs(y) < 1e-6)
    phi = np.unwrap(np.arctan2(y, x))
    # a y that is rounding noise against x reads as its y -> +0 limit; an
    # exactly zero pair stays 0/0 = nan
    flat = np.abs(y) < 1e-12 * np.hypot(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(flat, np.copysign(np.inf, x), x / y)
    return phi, ratio, poles


def azimuth_pair_series(
    sx: TimeSeries, sy: TimeSeries, pix: TimeSeries, piy: TimeSeries
) -> AzimuthSeries:
    """Azimuth angles (and x/y ratios) of spin and kinetic momentum."""
    for s in (sy, pix, piy):
        if not np.array_equal(s.times, sx.times):
            raise GridError("all four series must share one time grid")
    phi_s, ratio_s, pole_s = _azimuth(sx.values, sy.values)
    phi_p, ratio_p, pole_p = _azimuth(pix.values, piy.values)
    return AzimuthSeries(
        phi_spin=TimeSeries(sx.times, phi_s, "phi_spin"),
        phi_momentum=TimeSeries(sx.times, phi_p, "phi_momentum"),
        ratio_spin=ratio_s,
        ratio_momentum=ratio_p,
        poles_spin=pole_s,
        poles_momentum=pole_p,
    )


def trajectory_chirality(x_series: TimeSeries, y_series: TimeSeries) -> str:
    """Turning sense of a planar trajectory from its signed area."""
    if not np.array_equal(x_series.times, y_series.times):
        raise GridError("x and y series must share one time grid")
    x = x_series.values
    y = y_series.values
    if len(x) < 3:
        raise DomainError("need at least three points")
    area = 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
    if abs(area) < 1e-9:
        raise DegenerateError("no rotation resolved (signed area ~ 0)")
    return "counterclockwise" if area > 0 else "clockwise"
