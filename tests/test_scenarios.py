import math
import os
import time
from dataclasses import asdict

import numpy as np
import pytest

from weylsim import scenarios as sc
from weylsim.errors import DomainError

try:
    import resource
except ImportError:  # not on Windows
    resource = None


def _passed(result):
    return {c.name: c.passed for c in result.checks}


def test_dispersion_scenario_passes():
    res = sc.run_dispersion(sc.default_config("dispersion", n_max=12))
    assert all(c.passed for c in res.checks)
    table = res.tables["dispersion"]
    assert list(table) == ["p", "E_over_2pi(kHz)"]
    assert len(table["p"]) == 4


def test_dispersion_with_zero_momentum_row():
    base = sc.default_config("dispersion", n_max=12)
    cfg = sc.ScenarioConfig("dispersion", base.values | {"sweep": (0.0, 1.19)})
    res = sc.run_dispersion(cfg)
    table = res.tables["dispersion"]
    assert abs(table["E_over_2pi(kHz)"][0]) < 1e-3 * 4.75
    assert all(c.passed for c in res.checks)


def test_dispersion_requires_sweep_and_free_model():
    cfg = sc.default_config("dispersion")
    with pytest.raises(DomainError):
        sc.ScenarioConfig("dispersion", cfg.values | {"sweep": ()})
    with pytest.raises(DomainError):
        sc.ScenarioConfig("dispersion", cfg.values | {"r": 1.0, "sweep": (1.0,)})
    landau = sc.default_config("landau", n_max=18, noise_on=False)
    with pytest.raises(DomainError):
        sc.ScenarioConfig(
            "landau",
            landau.values | {"t_end_us": 600.0, "n_samples": 11, "sweep": (1.0,)},
        )  # sweep is dispersion-only


def test_landau_scenario_noiseless_small():
    res = sc.run_landau(sc.default_config("landau", n_max=12, noise_on=False))
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
    res = sc.run_landau(sc.default_config("landau", noise_on=False))
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
    res = sc.run_helicity(sc.default_config("helicity", n_max=12))
    assert all(c.passed for c in res.checks)
    names = {c.name for c in res.checks}
    assert {"py_conservation", "angle_mean_dev_rad", "full_rotation_swept"} <= names
    ratios = res.tables["ratios"]
    assert not np.any(ratios["momentum_pole"][:1])  # defined at start


def test_helicity_first_ratio_is_truncation_independent():
    # at t = 0, pi_y is rounding noise against pi_x = sqrt(2): the first
    # ratio is its limit, not a truncation-dependent 1e15
    first = {
        n_max: sc.run_helicity(sc.default_config("helicity", n_max=n_max)).tables[
            "ratios"
        ]["momentum_x_over_y"][0]
        for n_max in (12, 15)
    }
    assert first[12] == first[15] == math.inf


def test_trajectory_scenario_passes():
    res = sc.run_trajectory(sc.default_config("trajectory", n_max=10))
    assert all(c.passed for c in res.checks)
    by_name = {c.name: c for c in res.checks}
    assert by_name["chirality_plus_x"].actual == "clockwise"
    assert by_name["chirality_minus_x"].actual == "counterclockwise"


def test_scenario_determinism():
    cfg = sc.default_config("dispersion", n_max=12)
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
    res = sc.run_trajectory(sc.default_config("trajectory", n_max=8, noise_on=True))
    ok = _passed(res)
    assert ok["chirality_plus_x"] and ok["chirality_minus_x"]
    assert ok["initial_velocities_opposite"]


def test_manifest_carries_resolved_config():
    res = sc.run_dispersion(sc.default_config("dispersion", n_max=12))
    m = res.manifest
    assert m["scenario"] == "dispersion"
    assert m["config"]["omega_khz"] == pytest.approx(4.75)
    assert m["config"]["sweep"] == [0.59, 1.19, 1.78, 2.38]
    assert m["checks_failed"] == 0
    assert m["wall_time_s"] >= 0
    # 1 where numpy's OpenBLAS was found, None where runs keep its default
    assert m["blas_threads"] == (None if sc._blas_thread_limit() is None else 1)
    assert all(c.basis in ("analytic", "identity", "oracle") for c in res.checks)


def test_runner_holds_one_blas_thread_and_restores_it(monkeypatch):
    # with a fake binding: 1 during the body, the previous count after it
    # returns and after it raises
    count = [3]

    def fake_limit(n):
        previous, count[0] = count[0], n
        return previous

    monkeypatch.setattr(sc, "_blas_thread_limit", lambda: fake_limit)
    cfg = sc.default_config("dispersion", n_max=12)
    seen = []

    @sc._runner
    def body(cfg):
        seen.append(count[0])
        if len(seen) == 2:
            raise RuntimeError("body failed")
        return {}, []

    assert body(cfg).manifest["blas_threads"] == 1
    assert count == [3]
    with pytest.raises(RuntimeError, match="body failed"):
        body(cfg)
    assert seen == [1, 1] and count == [3]


def _other_threads_cpu() -> float:
    """CPU seconds of every thread of this process but the calling one."""
    whole = resource.getrusage(resource.RUSAGE_SELF)
    this = resource.getrusage(resource.RUSAGE_THREAD)
    return whole.ru_utime + whole.ru_stime - this.ru_utime - this.ru_stime


@pytest.mark.skipif(
    sc._blas_thread_limit() is None
    or not hasattr(resource, "RUSAGE_THREAD")
    or os.cpu_count() == 1,
    reason="needs numpy's OpenBLAS, per-thread rusage and a second core",
)
def test_scenario_run_leaves_no_blas_worker_spinning():
    # a threaded BLAS call leaves OpenBLAS's idle worker spinning for about
    # 0.13 s of CPU; noiseless landau at n_max 40 makes several (its 41x41
    # SVDs, its products, the frame's eigh of 80) unless held to one thread
    time.sleep(0.3)  # let a spin from earlier work settle
    before = _other_threads_cpu()
    sc.run_landau(sc.default_config("landau", noise_on=False))
    time.sleep(0.3)
    assert _other_threads_cpu() - before <= 0.02


@pytest.mark.parametrize("name", sc.SCENARIO_NAMES)
def test_one_eigendecomposition_per_hamiltonian(monkeypatch, name):
    # no noiseless run diagonalizes anything of the full dimension: the
    # field runs diagonalize their p_y sectors and the dispersion sweep sums
    # precessions over momentum eigenvalues; a stacked call is counted by
    # the size of its matrices
    cfg = sc.default_config(name, noise_on=False)
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
