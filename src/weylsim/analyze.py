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


LINE_CHUNK = 16  # samples per side of `line_values`' two phase tables


def line_values(steady, freqs, amps, times) -> np.ndarray:
    """steady_i + Re sum_j amps_ij exp(i freqs_j t) at every t of a uniform grid.

    Shapes: steady (observables,), freqs (J,), amps (observables, J); the
    result is (observables, len(times)).  The lines are stable-sorted by
    frequency and the amplitudes of equal frequencies (compared exactly)
    summed first, so callers pass raw lines.  With t_(aB+b) = t_(aB) +
    (t_b - t_0), B = LINE_CHUNK, a (J, B) table of the first B offsets,
    folded with every observable's a_j, and a (B, J) table of B chunk
    starts give B^2 samples from one real matrix product, in memory of
    order B J.
    """
    order = np.argsort(freqs, kind="stable")
    first = np.flatnonzero(np.diff(freqs[order], prepend=np.nan))  # where f_j steps
    freqs, amps = freqs[order[first]], np.add.reduceat(amps[:, order], first, axis=1)
    offsets = times[:LINE_CHUNK] - times[0]
    cols = len(amps) * len(offsets)
    # T_jb = a_j exp(i f_j t_b) per observable, shape (J, observables * B)
    table = np.exp(1j * np.outer(freqs, offsets))[:, None] * amps.T[:, :, None]
    table = table.reshape(len(freqs), cols)
    # Re(exp(i f_j t_a) T_jb) = cos(f_j t_a) Re T_jb - sin(f_j t_a) Im T_jb:
    # one real product with the phases' float view, in which cos and sin
    # alternate (a complex GEMM would load ~0.45 MB more of BLAS for it)
    table = np.stack([table.real, -table.imag], axis=1).reshape(2 * len(freqs), cols)
    starts = times[:: len(offsets)]
    out = np.empty((len(amps), len(starts), len(offsets)))
    for first in range(0, len(starts), LINE_CHUNK):
        rows = slice(first, first + LINE_CHUNK)
        phases = np.exp(1j * np.outer(starts[rows], freqs)).view(float)
        block = (phases @ table).reshape(len(phases), len(amps), len(offsets))
        out[:, rows] = block.swapaxes(0, 1)
    return steady[:, None] + out.reshape(len(amps), -1)[:, : len(times)]


def predict_sigma_z_series(psi0: QState, params, grid) -> TimeSeries:
    """Closed-form spin-z dynamics of the single-mode Hamiltonian.

    In the analytic eigenbasis V with energies E (`model.landau_basis`),
    <sz(t)> = Re sum_ab rho'_ba sz'_ab exp(i (E_a - E_b) t) with
    rho' = V^dag rho V and sz' = V^dag sz V.  V is sparse, so most
    m_ab = rho'_ba sz'_ab are exact zeros; the others are the lines
    `line_values` sums.  V spans all but |-z n_max_x>.  psi0 lives on the
    cyclotron frame's space, n_max_y = 0.
    """
    if params.r <= 0:
        raise DomainError("the analytic series requires r > 0")
    energies, v = md.landau_basis(psi0.space, params)
    rho = v.conj().T @ psi0.to_density() @ v
    captured = float(np.trace(rho).real)
    if captured < 1 - 1e-8:
        raise TruncationError(f"the eigenbasis captures {captured:.12f} of the state")
    m = rho.T * (v.conj().T @ (np.repeat([1.0, -1.0], len(v) // 2)[:, None] * v))
    a, b = np.nonzero(m)
    t = grid.times - grid.times[0]
    values = line_values(np.zeros(1), energies[a] - energies[b], m[a, b][None], t)
    return TimeSeries(times=grid.times, values=values[0])


def fit_polynomial(series: TimeSeries) -> SlopeFit:
    """Ordinary least squares cubic fit, with its slope and residual.

    The fit runs in (t - t0)/span for conditioning, t0 the first sample, so
    the slope is the one at t0, not at t = 0.
    """
    if len(series.times) <= 4:
        raise RankError("series too short for a cubic fit")
    t0 = series.times[0]
    u = (series.times - t0) / series.span
    design = np.vander(u, 4, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, series.values, rcond=None)
    if rank < 4:
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
    # xs 2^-e, 2^e near max |x|, keeps sum x^2 from underflowing below about
    # 1.5e-154; a power of two scales every rounding exactly
    e = np.frexp(np.abs(xs).max())[1]
    xs = np.ldexp(xs, -e)
    denom = float(xs @ xs)
    if denom == 0.0:
        raise DegenerateError("all abscissae are zero")
    return float(np.ldexp(float(xs @ ys) / denom, -e))


def azimuth(x: np.ndarray, y: np.ndarray):
    """Unwrapped azimuth angle of the vector (x, y), its x/y component ratio,
    and pole flags: (phi, ratio, poles).

    The ratio mirrors the angle data but blows up near zeros of the
    denominator; where |y| is below 1e-12 of the vector's length the ratio
    is +-inf with the sign of x.  Entries where both components are below
    1e-6 are flagged as poles rather than raised.
    """
    poles = (np.abs(x) < 1e-6) & (np.abs(y) < 1e-6)
    phi = np.unwrap(np.arctan2(y, x))
    # a y that is rounding noise against x reads as its y -> +0 limit; an
    # exactly zero pair stays 0/0 = nan
    flat = np.abs(y) < 1e-12 * np.hypot(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(flat, np.copysign(np.inf, x), x / y)
    return phi, ratio, poles


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
