import math
import os
from dataclasses import asdict

import numpy as np
import pytest

import weylsim
from weylsim import scenarios as sc
from weylsim.errors import ConfigError, DomainError


def _passed(result):
    return {c.name: c.passed for c in result.checks}


def test_dispersion_scenario_passes():
    res = sc.run_dispersion(sc.build_config("dispersion", {"n_max_x": 12}))
    assert all(c.passed for c in res.checks)
    table = res.tables["dispersion"]
    assert list(table) == ["p", "E_over_2pi(kHz)"]
    assert len(table["p"]) == 4


def test_dispersion_with_zero_momentum_row():
    base = sc.build_config("dispersion", {"n_max_x": 12})
    cfg = sc.ScenarioConfig("dispersion", base.values | {"sweep": (0.0, 1.19)})
    res = sc.run_dispersion(cfg)
    table = res.tables["dispersion"]
    assert abs(table["E_over_2pi(kHz)"][0]) < 1e-3 * 4.75
    assert all(c.passed for c in res.checks)


NAN_AMPLITUDES = [
    ("dispersion", {"sweep": (math.nan,)}),
    ("dispersion", {"sweep": (1.0, math.nan)}),
    ("landau", {"alpha_x": complex(math.nan, 1)}),
]


def test_dispersion_requires_sweep_and_free_model():
    cfg = sc.build_config("dispersion", {})
    with pytest.raises(DomainError):
        sc.ScenarioConfig("dispersion", cfg.values | {"sweep": ()})
    with pytest.raises(DomainError):
        sc.ScenarioConfig("dispersion", cfg.values | {"r": 1.0, "sweep": (1.0,)})
    landau = sc.build_config("landau", {"n_max_x": 18, "noise": False})
    with pytest.raises(DomainError):
        sc.ScenarioConfig(
            "landau",
            landau.values | {"t_end_us": 600.0, "n_samples": 11, "sweep": (1.0,)},
        )  # sweep is dispersion-only
    # a NaN fails the coherent-amplitude guard instead of reaching the run;
    # build_config refuses it before (test below)
    for name, overrides in NAN_AMPLITUDES:
        with pytest.raises(DomainError, match="not finite"):
            sc.ScenarioConfig(name, sc.build_config(name, {}).values | overrides)


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("landau", {"noise": "no"}),  # a non-empty string, which reads as true
        ("landau", {"noise": math.nan}),
        ("trajectory", {"dt_max_us": (math.nan,)}),
        ("landau", {"r": complex(math.nan, 0)}),
        *NAN_AMPLITUDES,
    ],
)
def test_build_config_refuses_values_the_config_file_could_not_give(name, overrides):
    # a library caller's value must read back from its config-file text as
    # itself; these were taken as given or escaped as a bare TypeError
    with pytest.raises(ConfigError, match="bad value for"):
        sc.build_config(name, overrides)


def test_build_config_takes_library_values_as_the_config_file_gives_them():
    # an int for a float, a float for a complex amplitude and an int for a
    # boolean read back as the parser's value
    cfg = sc.build_config("landau", {"r": 1, "alpha_x": 0.5, "noise": 0})
    assert cfg.values["r"] == 1.0 and isinstance(cfg.values["r"], float)
    assert cfg.values["alpha_x"] == 0.5 + 0j and isinstance(cfg.values["alpha_x"], complex)
    assert cfg.values["noise"] is False and not cfg.noise_on


def test_landau_scenario_noiseless_small():
    res = sc.run_landau(sc.build_config("landau", {"n_max_x": 12, "noise": False}))
    ok = _passed(res)
    assert ok["peak_n1_kHz"] and ok["peak_n2_kHz"]
    assert ok["inset_peak_n4_kHz"]
    assert "predictor_max_dev" not in ok  # below the convergence floor
    for name in (
        "sigma_z",
        "spectrum",
        "peaks",
        "sigma_z_ideal",
        "spectrum_ideal",
        "peaks_ideal",
    ):
        assert name in res.tables


def test_landau_scenario_with_predictor_check():
    res = sc.run_landau(sc.build_config("landau", {"noise": False}))
    ok = _passed(res)
    assert ok["predictor_max_dev"]
    assert all(ok.values())


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_landau_without_noise_far_from_unit_field(r):
    # at n_max 40 the two-mode reference has not converged to the predictor
    # tolerance away from r = 1, so the cross-check waits for a larger
    # truncation and every check that runs passes
    cfg = sc.build_config("landau", {"noise": False, "r": r, "n_max_x": 40})
    res = sc.run_landau(cfg)
    assert all(c.passed for c in res.checks)


def test_helicity_scenario_passes():
    res = sc.run_helicity(sc.build_config("helicity", {"n_max_x": 12}))
    assert all(c.passed for c in res.checks)
    names = {c.name for c in res.checks}
    assert {"py_conservation", "angle_mean_dev_rad", "full_rotation_swept"} <= names
    ratios = res.tables["ratios"]
    assert not np.any(ratios["momentum_pole"][:1])  # defined at start


def test_helicity_first_ratio_is_truncation_independent():
    # at t = 0, pi_y is rounding noise against pi_x = sqrt(2): the first
    # ratio is its limit, not a truncation-dependent 1e15
    first = {
        n_max: sc.run_helicity(sc.build_config("helicity", {"n_max_x": n_max}))
        .tables["ratios"]["momentum_x_over_y"][0]
        for n_max in (12, 15)
    }
    assert first[12] == first[15] == math.inf


def test_trajectory_scenario_passes():
    res = sc.run_trajectory(sc.build_config("trajectory", {"n_max_x": 10}))
    assert all(c.passed for c in res.checks)
    by_name = {c.name: c for c in res.checks}
    assert by_name["chirality_plus_x"].actual == "clockwise"
    assert by_name["chirality_minus_x"].actual == "counterclockwise"


def test_scenario_determinism():
    cfg = sc.build_config("dispersion", {"n_max_x": 12})
    a = sc.run_dispersion(cfg)
    b = sc.run_dispersion(cfg)
    for name in a.tables:
        for col in a.tables[name]:
            assert np.array_equal(a.tables[name][col], b.tables[name][col])
    assert [
        (c.name, c.expected, c.actual, c.passed) for c in a.checks
    ] == [(c.name, c.expected, c.actual, c.passed) for c in b.checks]


def test_trajectory_chirality_robust_to_noise():
    # switching the dephasing channel on must not flip a chirality pass
    cfg = sc.build_config("trajectory", {"n_max_x": 8, "noise": True})
    res = sc.run_trajectory(cfg)
    ok = _passed(res)
    assert ok["chirality_plus_x"] and ok["chirality_minus_x"]
    assert ok["initial_velocities_opposite"]


def test_manifest_carries_resolved_config():
    res = sc.run_dispersion(sc.build_config("dispersion", {"n_max_x": 12}))
    m = res.manifest
    assert m["scenario"] == "dispersion"
    assert m["config"]["omega_khz"] == pytest.approx(4.75)
    assert m["config"]["sweep"] == [0.59, 1.19, 1.78, 2.38]
    assert m["checks_failed"] == 0
    assert m["wall_time_s"] >= 0
    # what importing weylsim did: 1 if it loaded numpy on one BLAS thread
    assert m["blas_threads"] == weylsim.BLAS_THREADS
    assert all(c.basis in ("analytic", "identity", "oracle") for c in res.checks)


@pytest.mark.skipif(
    any(name in os.environ for name in weylsim._THREAD_VARIABLES),
    reason="the environment names a BLAS thread count",
)
def test_the_session_runs_on_one_blas_thread():
    # conftest imports weylsim before numpy, as the command line does, so
    # numpy's OpenBLAS loaded on one thread and every manifest says so
    assert weylsim.BLAS_THREADS == 1


@pytest.mark.parametrize("name", sc.SCENARIO_NAMES)
def test_one_eigendecomposition_per_hamiltonian(monkeypatch, name):
    # no noiseless run diagonalizes anything of the full dimension: the
    # field runs diagonalize their p_y sectors and the dispersion sweep sums
    # precessions over momentum eigenvalues; a stacked call is counted by
    # the size of its matrices
    cfg = sc.build_config(name, {"noise": False})
    dims = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        dims.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    res = sc.RUNNERS[name](cfg)
    assert all(c.passed for c in res.checks)
    assert dims.count(cfg.space.dim) == 0


@pytest.mark.parametrize("name", sorted(sc.RUNNERS))
def test_runner_manifest_records_its_checks(name):
    # the wrapper stamps every runner's manifest: the scenario's own name,
    # the run record's keys, and each check as asdict(check)
    overrides = {"n_max_x": 8}
    if name == "dispersion":  # the default sweep does not fit n_max 8
        overrides["sweep"] = (0.59, 1.19)
    cfg = sc.build_config(name, overrides)
    res = sc.RUNNERS[name](cfg)
    m = res.manifest
    assert m["scenario"] == res.name == cfg.name
    assert set(m) == {
        "scenario",
        "config",
        "version",
        "started_utc",
        "finished_utc",
        "wall_time_s",
        "blas_threads",
        "checks_passed",
        "checks_failed",
        "checks",
    }
    assert m["checks"] == [asdict(c) for c in res.checks]
    assert m["checks_passed"] + m["checks_failed"] == len(res.checks) > 0
