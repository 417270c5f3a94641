"""Canonical end-to-end runs producing tables and pass/fail checks.

Four named scenarios cover the model's headline behaviours: the linear
dispersion of the free particle, the discrete level spectrum in a synthetic
field, helicity conservation, and the opposite-chirality trajectories of
the two spin orientations.  Each runner consumes a declarative config; its
body computes columnar tables and a list of checks (each naming the basis
its expected value rests on), and one wrapper, `_runner`, times the body
and returns them with the run's manifest.
Every field grid starts at 0, the sample of the prepared state.
"""

from __future__ import annotations

import cmath
import functools
import math
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from types import MappingProxyType

import numpy as np

from . import BLAS_THREADS, __version__
from . import analyze as an
from . import evolve as ev
from . import fockspace as fs
from . import model as md
from . import probe as pr
from .errors import ConfigError, DomainError, WeylSimError
from .evolve import TimeGrid
from .fockspace import SpaceSpec
from .model import SimParams

SCENARIO_NAMES = ("dispersion", "landau", "helicity", "trajectory")

TAU_D_X_MS = 4.0  # dephasing times wherever noise is on
TAU_D_Y_MS = 3.5

PEAK_FRAC_MAIN = 0.15
PEAK_FRAC_FINE = 0.02
INSET_SPAN_MS = 5.0
INSET_SAMPLES = 501
PREDICTOR_TOL = 1e-8
# the two-mode reference converges to PREDICTOR_TOL by n_max 40 at r = 1;
# the check runs from n_max >= 40 max(r, 1/r) (at n_max 40 the gap is
# 8.5e-4 at r = 0.5 and 2.5e-8 at r = 2; at the scaled floor 3.3e-10, 1.0e-13)
PREDICTOR_N_MAX_FLOOR = 40
SLOPE_TOL = 0.02
PY_DRIFT_TOL = 1e-6
ANGLE_MEAN_TOL = 0.75  # rad; ideal-run mean deviation is ~0.40
WOBBLE_RMS_MIN = 0.02  # ideal-run radial RMS residual is ~0.20


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario's resolved keys, and the run objects built from them.

    `values` maps the scenario's keys, and no others, to their values in
    config-file units (kHz, us, ms), exactly as parsed or defaulted, in
    FIELDS order; the manifest records it as it stands.  `params`, `space`
    and `grid` are built from it once.
    Dispersion prepares its own noiseless wavepackets, so it has no time
    grid and none of the keys that go with one.
    """

    name: str
    values: Mapping[str, object]
    params: SimParams = field(init=False)
    space: SpaceSpec = field(init=False)
    grid: TimeGrid | None = field(init=False)

    def __post_init__(self):
        keys = _default_values(self.name, None, None).keys()  # checks the name
        stray = sorted(self.values.keys() - keys)
        if stray:
            raise DomainError(f"no such key: {', '.join(stray)}")
        v = {key: self.values[key] for key in FIELDS if key in self.values}
        grid, taus = None, {}
        if "t_end_us" in v:
            grid = TimeGrid(
                0.0, v["t_end_us"] / 1e3, v["n_samples"], v["dt_max_us"] / 1e3
            )
            taus = {"tau_d_x": v["tau_d_x_ms"], "tau_d_y": v["tau_d_y_ms"]}
        object.__setattr__(self, "values", MappingProxyType(v))
        object.__setattr__(
            self, "params", SimParams(md.khz(v["omega_khz"]), r=v["r"], **taus)
        )
        if min(v["n_max_x"], v["n_max_y"]) < 1:
            raise DomainError("mode truncations must satisfy n_max >= 1")
        object.__setattr__(self, "space", SpaceSpec(v["n_max_x"], v["n_max_y"]))
        object.__setattr__(self, "grid", grid)

        if self.initial_spin not in fs.SPIN_LABELS:
            raise DomainError(
                f"initial_spin must be one of {', '.join(fs.SPIN_LABELS)}, "
                f"got {self.initial_spin!r}"
            )
        taus = (self.params.tau_d_x, self.params.tau_d_y)
        if not self.noise_on and not all(map(math.isinf, taus)):
            raise DomainError("a finite dephasing time needs noise = true")
        if self.name == "dispersion":
            if not self.sweep:
                raise DomainError("dispersion requires a non-empty sweep")
            if min(self.sweep) < 0 or max(self.sweep) == 0:
                raise DomainError("sweep momenta must be >= 0 with at least one > 0")
            if self.params.r != 0:
                raise DomainError("dispersion requires r = 0")
            if self.noise_on:
                raise DomainError("dispersion is noiseless: noise must be false")
            for p in self.sweep:  # each wavepacket moves along x
                fs.guard_alpha(1j * p / math.sqrt(2), self.space.n_max_x, "x")
        else:
            if self.params.r <= 0:
                raise DomainError(f"{self.name} requires r > 0")
            if self.grid is None:
                raise DomainError(f"{self.name} requires a time grid")
            fs.guard_alpha(self.alpha_x, self.space.n_max_x, "x")
            fs.guard_alpha(self.alpha_y, self.space.n_max_y, "y")
            if self.name == "trajectory" and self.grid.n_samples < 5:
                raise DomainError("trajectory's cubic velocity fit needs 5 samples")

    # keys the runners read as given; dispersion has no initial-state keys
    sweep = property(lambda self: self.values.get("sweep"))
    initial_spin = property(lambda self: self.values.get("initial_spin", "plus_z"))
    alpha_x = property(lambda self: self.values.get("alpha_x", 0j))
    alpha_y = property(lambda self: self.values.get("alpha_y", 0j))
    noise_on = property(lambda self: self.values["noise"])


# ---------------------------------------------------------------------------
# config schema: one table of keys, one table of per-scenario defaults
# ---------------------------------------------------------------------------


def _number(kind, allow_inf: bool = False):
    """Parser for a float or complex key; refuses NaN, and inf unless allowed."""

    def parse(text: str):
        value = kind(text)
        if cmath.isnan(value) or (cmath.isinf(value) and not allow_inf):
            raise ValueError(f"not a finite number: {text.strip()!r}")
        return value

    return parse


_float = _number(float)
_tau = _number(float, allow_inf=True)  # inf switches a dephasing channel off


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_sweep(text: str) -> tuple[float, ...]:
    return tuple(_float(tok) for tok in text.replace(",", " ").split())


# every settable key, by its config-file name, with its parser
FIELDS = {
    "omega_khz": _float,
    "r": _float,
    "tau_d_x_ms": _tau,
    "tau_d_y_ms": _tau,
    "n_max_x": int,
    "n_max_y": int,
    "t_end_us": _float,
    "n_samples": int,
    "dt_max_us": _float,
    "noise": _parse_bool,
    "initial_spin": str,
    "alpha_x": _number(complex),
    "alpha_y": _number(complex),
    "sweep": _parse_sweep,
}


def _read_back(key: str, value):
    """`value` as FIELDS[key] parses its config-file text (as a manifest records
    it), or DomainError unless that is `value` itself: "no" for `noise`, say."""
    if key not in FIELDS:
        return value  # for ScenarioConfig to name
    text = _encode(value)
    text = ", ".join(map(str, text)) if isinstance(text, list) else str(text)
    try:
        parsed = FIELDS[key](text)
        if parsed == value:
            return parsed
    except ValueError:
        pass
    raise DomainError(f"bad value for {key}: {value!r}")


# per-scenario defaults; "n_max" is (noiseless, noisy), and a scenario
# without "t_end_us" has no time grid
_DEFAULTS = {
    "dispersion": dict(
        omega_khz=4.75, r=0.0, noise=False, n_max=(18, 18),
        sweep=(0.59, 1.19, 1.78, 2.38),
    ),
    "landau": dict(
        omega_khz=4.2, r=1.0, noise=True, n_max=(40, 10),
        initial_spin="plus_z", alpha_x=1j, t_end_us=600.0,
    ),
    "helicity": dict(
        omega_khz=4.2, r=1.0, noise=False, n_max=(15, 15),
        initial_spin="plus_x", alpha_x=1j, t_end_us=800.0,
    ),
    "trajectory": dict(
        omega_khz=5.0, r=1.0, noise=False, n_max=(15, 15),
        initial_spin="plus_x", alpha_x=1j, t_end_us=600.0,
    ),
}


def _default_values(name: str, n_max: int | None, noise_on: bool | None) -> dict:
    """A scenario's default value for each of its keys."""
    if name not in _DEFAULTS:
        raise DomainError(f"unknown scenario {name!r}")
    values = dict(_DEFAULTS[name])
    noise = values["noise"] if noise_on is None else bool(noise_on)
    n_max_by_noise = values.pop("n_max")
    nm = n_max_by_noise[noise] if n_max is None else n_max
    values.update(noise=noise, n_max_x=nm, n_max_y=nm)
    if "t_end_us" in values:
        values.update(
            n_samples=201,
            dt_max_us=ev.DT_MAX_DEFAULT * 1e3,
            alpha_y=0j,
            tau_d_x_ms=TAU_D_X_MS if noise else math.inf,
            tau_d_y_ms=TAU_D_Y_MS if noise else math.inf,
        )
    return values


def build_config(name: str, overrides: dict) -> ScenarioConfig:
    """A scenario's defaults with some keys of FIELDS overridden.

    The defaults follow the overrides: `noise` picks the dephasing times
    and landau's truncation, and `n_max_x` sets `n_max_y` unless that is
    given too.  Each value must be one the config file could give
    (`_read_back`).  Any invalid key or value raises ConfigError.
    """
    try:
        overrides = {k: _read_back(k, v) for k, v in overrides.items()}
        values = _default_values(name, overrides.get("n_max_x"), overrides.get("noise"))
        return ScenarioConfig(name, values | overrides)
    except WeylSimError as exc:
        raise ConfigError(f"invalid configuration for {name}: {exc}") from exc


@dataclass(frozen=True)
class Check:
    """One pass/fail comparison with its tolerance and value basis."""

    name: str
    expected: float | str
    actual: float | str
    tolerance: float
    passed: bool
    basis: str  # "analytic" | "identity" | "oracle"

    def record(self) -> dict:
        """asdict(self) for strict JSON: a non-finite float becomes a string."""
        return {k: _encode(v) for k, v in asdict(self).items()}


@dataclass
class ScenarioResult:
    name: str
    tables: dict[str, dict[str, np.ndarray]]
    checks: list[Check]
    manifest: dict


def _num_check(name, expected, actual, tol, basis) -> Check:
    return Check(
        name=name,
        expected=float(expected),
        actual=float(actual),
        tolerance=float(tol),
        passed=bool(abs(actual - expected) <= tol),
        basis=basis,
    )


def _cat_check(name, expected, actual, basis) -> Check:
    return Check(
        name=name,
        expected=str(expected),
        actual=str(actual),
        tolerance=0.0,
        passed=bool(str(actual) == str(expected)),
        basis=basis,
    )


def _encode(value):
    if isinstance(value, complex):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def config_dict(cfg: ScenarioConfig) -> dict:
    """JSON-safe dictionary of a fully resolved config."""
    out = {"scenario": cfg.name}
    for key, value in cfg.values.items():
        out["noise_on" if key == "noise" else key] = _encode(value)
    return out


def _observables(cfg: ScenarioConfig, labels) -> dict:
    """The named field observables, each a list of products (A, B)."""
    terms = md.field_observables(cfg.space, cfg.params)
    return {label: terms[label] for label in labels}


def _propagator(cfg: ScenarioConfig):
    """evolve_lindblad if noise is on, else evolve_unitary; both take sectors."""
    return ev.evolve_lindblad if cfg.noise_on else ev.evolve_unitary


def _runner(body):
    """A scenario runner from a body that returns its (tables, checks): it
    times the body and records the run in the manifest (the resolved config,
    the version, the timestamps, `weylsim.BLAS_THREADS` as `blas_threads`,
    the check counts and every check as `check.record()`)."""

    @functools.wraps(body)
    def run(cfg: ScenarioConfig) -> ScenarioResult:
        started = datetime.now(timezone.utc).isoformat()
        t0 = time.perf_counter()
        tables, checks = body(cfg)
        manifest = {
            "scenario": cfg.name,
            "config": config_dict(cfg),
            "version": __version__,
            "started_utc": started,
            "finished_utc": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": round(time.perf_counter() - t0, 3),
            "blas_threads": BLAS_THREADS,
            "checks_passed": sum(c.passed for c in checks),
            "checks_failed": sum(not c.passed for c in checks),
            "checks": [c.record() for c in checks],
        }
        return ScenarioResult(cfg.name, tables, checks, manifest)

    return run


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------


@_runner
def run_dispersion(cfg: ScenarioConfig) -> tuple[dict, list[Check]]:
    """Energy-versus-momentum sweep of the free particle."""
    ps = np.array(cfg.sweep)
    energies = np.array(
        [pr.measure_energy_slope(p, 0.0, cfg.params, space=cfg.space) for p in cfg.sweep]
    )

    slope = an.linear_fit_through_origin(ps, energies)
    expected_slope = cfg.params.omega / math.sqrt(2)
    checks = [
        _num_check(
            "dispersion_slope_kHz",
            expected_slope / (2 * math.pi),
            slope / (2 * math.pi),
            SLOPE_TOL * expected_slope / (2 * math.pi),
            "analytic",
        )
    ]
    for p, e in zip(ps, energies):
        if p == 0:
            continue  # a p = 0 row carries no relative residual
        resid = abs(e - slope * p) / (slope * p)
        checks.append(
            _num_check(f"dispersion_residual_p{p:g}", 0.0, resid, SLOPE_TOL, "analytic")
        )

    tables = {
        "dispersion": {
            "p": ps,
            "E_over_2pi(kHz)": energies / (2 * math.pi),
        }
    }
    return tables, checks


# ---------------------------------------------------------------------------
# landau
# ---------------------------------------------------------------------------


def _nearest_peak(peaks, target) -> float:
    """Frequency of the peak nearest target; nan if there is none."""
    return min((f for f, _ in peaks), key=lambda f: abs(f - target), default=math.nan)


def _spectrum_tables(series: an.TimeSeries, suffix: str, frac: float):
    spec = an.fourier_spectrum(series, pad_factor=8)
    peaks = an.find_peaks(spec, frac)
    tables = {
        "sigma_z" + suffix: {
            "t(us)": series.times * 1e3,
            "sigma_z": series.values,
        },
        "spectrum" + suffix: {"freq(kHz)": spec.freqs, "amp": spec.amps},
        "peaks" + suffix: {
            "freq(kHz)": np.array([f for f, _ in peaks]),
            "amp": np.array([a for _, a in peaks]),
        },
    }
    return spec, peaks, tables


@_runner
def run_landau(cfg: ScenarioConfig) -> tuple[dict, list[Check]]:
    """Spin dynamics in the synthetic field and their level spectrum."""
    grid = cfg.grid
    params = cfg.params
    tables: dict = {}
    checks: list[Check] = []

    # one decomposition serves the record, under either propagator, and the inset
    psi0 = fs.coherent_state(cfg.space, cfg.alpha_x, cfg.alpha_y, cfg.initial_spin)
    sz = _observables(cfg, ("sigma_z",))
    sectors = ev.weyl_sectors(params, cfg.space)
    main = _propagator(cfg)(sectors, psi0, grid, sz)["sigma_z"]

    spec, peaks, main_tables = _spectrum_tables(main, "", PEAK_FRAC_MAIN)
    tables.update(main_tables)

    for n_level, label in ((1, "peak_n1_kHz"), (2, "peak_n2_kHz")):
        target = 2 * md.landau_level(n_level, params) / (2 * math.pi)
        found = _nearest_peak(peaks, target)
        checks.append(_num_check(label, target, found, spec.resolution, "analytic"))

    if cfg.noise_on:
        by_amp = sorted(an.find_peaks(spec, 0.05), key=lambda fa: -fa[1])[:2]
        got = sorted(f for f, _ in by_amp)
        want = sorted(2 * md.landau_level(n, params) / (2 * math.pi) for n in (1, 2))
        ok = len(got) == 2 and all(
            abs(g - w) <= spec.resolution for g, w in zip(got, want)
        )
        checks.append(
            _cat_check("largest_two_peaks_are_n1_n2", True, ok, "analytic")
        )
    elif min(cfg.space.n_max_x, cfg.space.n_max_y) >= (
        PREDICTOR_N_MAX_FLOOR * max(params.r, 1 / params.r)
    ):
        # cross-check of the analytic single-mode predictor against the
        # two-mode numerics; below the floor the two-mode reference itself
        # is not converged to the tolerance, so the comparison says nothing
        reduced = md.cyclotron_frame_state(
            cfg.initial_spin, cfg.alpha_x, cfg.alpha_y, params
        )
        predicted = an.predict_sigma_z_series(reduced, params, grid)
        dev = float(np.abs(predicted.values - main.values).max())
        checks.append(
            _num_check("predictor_max_dev", 0.0, dev, PREDICTOR_TOL, "analytic")
        )

    # long noiseless record resolving the higher levels
    inset_grid = TimeGrid(0.0, INSET_SPAN_MS, INSET_SAMPLES, grid.dt_max)
    inset = ev.evolve_unitary(sectors, psi0, inset_grid, sz)["sigma_z"]
    ispec, ipeaks, inset_tables = _spectrum_tables(inset, "_ideal", PEAK_FRAC_FINE)
    tables.update(inset_tables)
    for n_level in (1, 2, 3, 4):
        target = 2 * md.landau_level(n_level, params) / (2 * math.pi)
        found = _nearest_peak(ipeaks, target)
        checks.append(
            _num_check(
                f"inset_peak_n{n_level}_kHz", target, found, ispec.resolution, "analytic"
            )
        )

    return tables, checks


# ---------------------------------------------------------------------------
# helicity
# ---------------------------------------------------------------------------


@_runner
def run_helicity(cfg: ScenarioConfig) -> tuple[dict, list[Check]]:
    """Spin and kinetic-momentum alignment during cyclotron-like motion."""
    grid = cfg.grid
    labels = ("sigma_x", "sigma_y", "pi_x", "pi_y", "p_y")
    psi0 = fs.coherent_state(cfg.space, cfg.alpha_x, cfg.alpha_y, cfg.initial_spin)
    sectors = ev.weyl_sectors(cfg.params, cfg.space)
    series = _propagator(cfg)(sectors, psi0, grid, _observables(cfg, labels))
    sx, sy, pix, piy, py = (series[k].values for k in labels)
    phi_s, ratio_s, poles_s = an.azimuth(sx, sy)
    phi_p, ratio_p, poles_p = an.azimuth(pix, piy)

    tables = {
        "spin": {"t(us)": grid.times * 1e3, "sigma_x": sx, "sigma_y": sy},
        "kinetic_momentum": {"t(us)": grid.times * 1e3, "pi_x": pix, "pi_y": piy},
        "angles": {
            "t(us)": grid.times * 1e3,
            "phi_spin(rad)": phi_s,
            "phi_momentum(rad)": phi_p,
        },
        "ratios": {
            "t(us)": grid.times * 1e3,
            "spin_x_over_y": ratio_s,
            "spin_pole": poles_s.astype(float),
            "momentum_x_over_y": ratio_p,
            "momentum_pole": poles_p.astype(float),
        },
    }

    checks = [
        _num_check(
            "initial_alignment_rad",
            0.0,
            max(abs(phi_s[0]), abs(phi_p[0])),
            1e-9,
            "analytic",
        )
    ]
    if not cfg.noise_on:
        drift = float(np.abs(py - py[0]).max())
        checks.append(_num_check("py_conservation", 0.0, drift, PY_DRIFT_TOL, "identity"))
        mean_dev = float(np.mean(np.abs(phi_s - phi_p)))
        checks.append(
            _num_check("angle_mean_dev_rad", 0.0, mean_dev, ANGLE_MEAN_TOL, "oracle")
        )
        swept = abs(phi_s[-1] - phi_s[0])
        checks.append(
            _cat_check("full_rotation_swept", True, swept >= 2 * math.pi, "oracle")
        )
    return tables, checks


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def _circle_radial_rms(x: np.ndarray, y: np.ndarray) -> float:
    """RMS radial residual of the best algebraic circle fit."""
    design = np.column_stack([x, y, np.ones_like(x)])
    sol, *_ = np.linalg.lstsq(design, x**2 + y**2, rcond=None)
    cx, cy = sol[0] / 2, sol[1] / 2
    radius = math.sqrt(max(sol[2] + cx**2 + cy**2, 0.0))
    rr = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
    return float(np.sqrt(np.mean((rr - radius) ** 2)))


@_runner
def run_trajectory(cfg: ScenarioConfig) -> tuple[dict, list[Check]]:
    """Mean-position orbits for the two opposite-helicity preparations."""
    grid = cfg.grid
    # each input is prepared once, for its orbit and its initial velocity;
    # one decomposition of H serves both
    states = {
        spin: fs.coherent_state(cfg.space, cfg.alpha_x, cfg.alpha_y, spin)
        for spin in ("plus_x", "minus_x")
    }
    sectors = ev.weyl_sectors(cfg.params, cfg.space)
    propagate, xy = _propagator(cfg), _observables(cfg, ("x", "y"))
    series = {spin: propagate(sectors, psi0, grid, xy) for spin, psi0 in states.items()}
    xp, yp = series["plus_x"]["x"], series["plus_x"]["y"]
    xm, ym = series["minus_x"]["x"], series["minus_x"]["y"]

    tables = {
        "trajectory": {
            "t(us)": grid.times * 1e3,
            "x_plus": xp.values,
            "y_plus": yp.values,
            "x_minus": xm.values,
            "y_minus": ym.values,
        }
    }

    chir_p = an.trajectory_chirality(xp, yp)
    chir_m = an.trajectory_chirality(xm, ym)
    checks = [
        _cat_check("chirality_plus_x", "clockwise", chir_p, "analytic"),
        _cat_check("chirality_minus_x", "counterclockwise", chir_m, "analytic"),
        _cat_check("chirality_flip", True, chir_p != chir_m, "analytic"),
    ]

    # exact initial velocity d<x>/dt(0) = i<[H, x]> = (omega/sqrt(2)) <sigma_x>;
    # on the truncated space i[H, x] = (omega/sqrt(2)) sigma_x [a_x, a_x^dag]
    # with [a, a^dag] = diag(1, ..., 1, -n_max), and the edge term is bounded
    # by (n_max + 1) * (state weight at the edge level), folded into the tolerance
    expected_v = cfg.params.omega / math.sqrt(2)
    nmx = cfg.space.n_max_x
    commutator = np.append(np.ones(nmx), -nmx)
    for spin, sign, label in (("plus_x", 1.0, "plus"), ("minus_x", -1.0, "minus")):
        amps = states[spin].data.reshape(2, nmx + 1, cfg.space.n_max_y + 1)
        vel = expected_v * np.vdot(amps, commutator[:, None] * amps[::-1]).real
        p_edge = float(np.sum(np.abs(amps[:, nmx, :]) ** 2))
        tol = expected_v * ((nmx + 1) * p_edge + 1e-9)
        checks.append(
            _num_check(
                f"initial_velocity_{label}", sign * expected_v, vel, tol, "identity"
            )
        )

    early = slice(0, min(12, grid.n_samples))
    vel_p, vel_m = (
        an.fit_polynomial(an.TimeSeries(grid.times[early], x.values[early]))
        .slope_at_zero
        for x in (xp, xm)
    )
    checks.append(
        _cat_check(
            "initial_velocities_opposite",
            True,
            vel_p > 0 and vel_m < 0,
            "analytic",
        )
    )
    if not cfg.noise_on:
        # wobble on top of the circular orbit; an indicator, not a precision
        # value (its magnitude converges slowly with truncation)
        rms = _circle_radial_rms(xp.values, yp.values)
        checks.append(
            _cat_check(
                "orbit_wobble_indicator", True, rms > WOBBLE_RMS_MIN, "oracle"
            )
        )
    return tables, checks


RUNNERS = {
    "dispersion": run_dispersion,
    "landau": run_landau,
    "helicity": run_helicity,
    "trajectory": run_trajectory,
}
