"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured values.  Heavy artifacts (the dephasing run) are shared through
module-scoped fixtures.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from weylsim import analyze as an
from weylsim import evolve as ev
from weylsim import fockspace as fs
from weylsim import model as md
from weylsim import probe as pr
from weylsim import scenarios as sc
from weylsim.evolve import TimeGrid
from weylsim.fockspace import SpaceSpec
from weylsim.model import SimParams

from conftest import transformed_hamiltonian

RESOLUTION_600US = 1 / 0.6  # kHz


def _report(num, passed, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def _check_map(result):
    return {c.name: c for c in result.checks}


# --- shared heavy runs -------------------------------------------------------------


@pytest.fixture(scope="module")
def noisy_landau():
    """Criterion-2 configuration evolved once: used by criteria 2 and 8."""
    space = SpaceSpec(10, 10)
    params = SimParams(md.khz(4.2), r=1.0, tau_d_x=4.0, tau_d_y=3.5)
    grid = TimeGrid(0.0, 0.6, 201)
    psi0 = fs.coherent_state(space, 1j, 0, "plus_z")
    sz = {"sigma_z": md.field_observables(space, params)["sigma_z"]}
    t0 = time.perf_counter()
    series = ev.evolve_lindblad(ev.weyl_sectors(params, space), psi0, grid, sz)
    wall = time.perf_counter() - t0
    return {
        "space": space,
        "params": params,
        "grid": grid,
        "psi0": psi0,
        "series": series,
        "wall": wall,
    }


# --- criteria ----------------------------------------------------------------------


def test_criterion_1_landau_spectrum():
    t0 = time.perf_counter()
    cfg = sc.build_config("landau", {"n_max_x": 15, "noise": False})
    res = sc.run_landau(cfg)
    wall = time.perf_counter() - t0
    cm = _check_map(res)
    peaks_ok = cm["peak_n1_kHz"].passed and cm["peak_n2_kHz"].passed
    inset_ok = all(cm[f"inset_peak_n{n}_kHz"].passed for n in (1, 2, 3, 4))
    assert cm["peak_n1_kHz"].tolerance == pytest.approx(RESOLUTION_600US)
    assert cm["inset_peak_n1_kHz"].tolerance == pytest.approx(0.2)
    _report(
        1,
        peaks_ok and inset_ok and wall < 30.0,
        f"peaks {cm['peak_n1_kHz'].actual:.3f}/{cm['peak_n2_kHz'].actual:.3f} kHz "
        f"vs 8.4/11.879 within {RESOLUTION_600US:.2f}; level 1-4 lines within "
        f"0.2 kHz on the 5 ms record; runtime {wall:.1f}s < 30s",
    )


def test_criterion_2_landau_noise_robustness(noisy_landau):
    spec = an.fourier_spectrum(noisy_landau["series"]["sigma_z"], pad_factor=8)
    peaks = sorted(an.find_peaks(spec, 0.05), key=lambda fa: -fa[1])[:2]
    got = sorted(f for f, _ in peaks)
    params = noisy_landau["params"]
    want = sorted(2 * md.landau_level(n, params) / (2 * math.pi) for n in (1, 2))
    ok = len(got) == 2 and all(
        abs(g - w) <= spec.resolution for g, w in zip(got, want)
    )
    wall = noisy_landau["wall"]
    _report(
        2,
        ok and wall < 300.0,
        f"two largest dephased peaks at {got[0]:.2f}/{got[1]:.2f} kHz match "
        f"levels 1 and 2; evolution {wall:.0f}s < 300s",
    )


def test_criterion_3_linear_dispersion():
    t0 = time.perf_counter()
    res = sc.run_dispersion(sc.build_config("dispersion", {}))
    wall = time.perf_counter() - t0
    cm = _check_map(res)
    slope = cm["dispersion_slope_kHz"]
    residuals = [c for name, c in cm.items() if name.startswith("dispersion_residual")]
    ok = slope.passed and all(c.passed for c in residuals)
    worst = max(c.actual for c in residuals)
    _report(
        3,
        ok and wall < 30.0,
        f"slope {slope.actual:.4f} kHz vs {slope.expected:.4f} (2% band), "
        f"worst residual {worst:.2e} < 0.02; runtime {wall:.1f}s < 30s",
    )


def test_criterion_4_analytic_spectrum_oracle():
    cfg = sc.build_config("landau", {"noise": False})
    grid = cfg.grid
    psi0 = fs.coherent_state(cfg.space, cfg.alpha_x, cfg.alpha_y, cfg.initial_spin)
    sz = {"sigma_z": md.field_observables(cfg.space, cfg.params)["sigma_z"]}
    sectors = ev.weyl_sectors(cfg.params, cfg.space)
    two_mode = ev.evolve_unitary(sectors, psi0, grid, sz)["sigma_z"].values
    reduced = md.cyclotron_frame_state(
        cfg.initial_spin, cfg.alpha_x, cfg.alpha_y, cfg.params
    )
    predicted = an.predict_sigma_z_series(reduced, cfg.params, grid)
    dev = float(np.abs(predicted.values - two_mode).max())
    _report(
        4,
        dev < 1e-6,
        f"analytic spin-z series vs full two-mode numerics: "
        f"max abs deviation {dev:.2e} < 1e-6 over 600 us",
    )


def test_criterion_5_eigenvalue_ladder():
    space = SpaceSpec(31, 0)
    params = SimParams(md.khz(4.2), r=1.0)
    evals = np.linalg.eigvalsh(transformed_hamiltonian(space, params))
    worst = 0.0
    for n in range(1, space.n_max_x // 2 + 1):
        want = md.landau_level(n, params)
        for target in (want, -want):
            rel = np.abs(evals - target).min() / want
            worst = max(worst, rel)
    _report(
        5,
        worst < 1e-9,
        f"dense diagonalization reproduces +-omega sqrt(n r) for n <= "
        f"{space.n_max_x // 2}: worst relative error {worst:.1e} < 1e-9",
    )


def test_criterion_6_quadrature_protocol_fidelity():
    space = SpaceSpec(15, 15)
    params = SimParams(md.khz(4.75), r=0.0)
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        alpha_x = rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        alpha_y = rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        st = fs.coherent_state(space, alpha_x, alpha_y, "plus_z")
        direct = {
            "x": math.sqrt(2) * alpha_x.real,
            "px": math.sqrt(2) * alpha_x.imag,
            "y": math.sqrt(2) * alpha_y.real,
            "py": math.sqrt(2) * alpha_y.imag,
        }
        for target, want in direct.items():
            got = pr.measure_quadrature(st, target, params)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _report(
        6,
        worst < 0.02,
        f"20 random coherent preparations, all four quadratures: "
        f"worst protocol error {worst:.2e} < 0.02",
    )


def test_criterion_7_chirality_flip():
    t0 = time.perf_counter()
    res = sc.run_trajectory(sc.build_config("trajectory", {}))
    wall = time.perf_counter() - t0
    cm = _check_map(res)
    ok = (
        cm["chirality_plus_x"].passed
        and cm["chirality_minus_x"].passed
        and cm["chirality_flip"].passed
        and cm["initial_velocities_opposite"].passed
    )
    _report(
        7,
        ok and wall < 60.0,
        f"spin +x orbits {cm['chirality_plus_x'].actual}, spin -x orbits "
        f"{cm['chirality_minus_x'].actual}, initial velocities oppose; "
        f"runtime {wall:.1f}s < 60s",
    )


def test_criterion_8_open_system_invariants(noisy_landau):
    # monitor margins of the raw density matrix at every sample
    series = noisy_landau["series"]
    worst_trace = float(series["trace_drift"].values.max())
    worst_herm = float(series["hermiticity"].values.max())
    worst_eig = float(series["min_eig"].values.min())
    invariants_ok = worst_trace < 1e-8 and worst_herm < 1e-8 and worst_eig >= -1e-8

    grid = noisy_landau["grid"]
    psi0 = noisy_landau["psi0"]
    space, params = noisy_landau["space"], noisy_landau["params"]
    sz = {"sigma_z": md.field_observables(space, params)["sigma_z"]}
    noiseless = ev.weyl_sectors(
        replace(params, tau_d_x=math.inf, tau_d_y=math.inf), space
    )
    unit = ev.evolve_unitary(noiseless, psi0, grid, sz)["sigma_z"]
    nolimit = ev.evolve_lindblad(noiseless, psi0, grid, sz)["sigma_z"]
    limit_dev = float(np.abs(unit.values - nolimit.values).max())
    _report(
        8,
        invariants_ok and limit_dev < 1e-5,
        f"every sample: trace dev {worst_trace:.1e} < 1e-8, hermiticity "
        f"{worst_herm:.1e} < 1e-8, min eigenvalue {worst_eig:.1e} >= -1e-8; "
        f"no-dephasing limit vs unitary {limit_dev:.1e} < 1e-5",
    )


def test_criterion_9_truncation_convergence_gate():
    # doubling the truncation must not flip any check and must leave every
    # precision check value (analytic or identity basis) within 1e-6;
    # threshold-indicator checks are compared by status
    reports = []

    def gate(name, runner, base_cfg, doubled_cfg):
        a = runner(base_cfg)
        b = runner(doubled_cfg)
        ca, cb = _check_map(a), _check_map(b)
        assert set(ca) == set(cb)
        worst = 0.0
        for key in ca:
            assert ca[key].passed == cb[key].passed, key
            if ca[key].basis in ("analytic", "identity") and isinstance(
                ca[key].actual, float
            ):
                worst = max(worst, abs(ca[key].actual - cb[key].actual))
        reports.append(f"{name} {worst:.2e}")
        return worst

    w1 = gate(
        "landau 40->80",
        sc.run_landau,
        sc.build_config("landau", {"n_max_x": 40, "noise": False}),
        sc.build_config("landau", {"n_max_x": 80, "noise": False}),
    )
    w3 = gate(
        "dispersion 18->36",
        sc.run_dispersion,
        sc.build_config("dispersion", {"n_max_x": 18}),
        sc.build_config("dispersion", {"n_max_x": 36}),
    )
    w7 = gate(
        "trajectory 15->30",
        sc.run_trajectory,
        sc.build_config("trajectory", {"n_max_x": 15}),
        sc.build_config("trajectory", {"n_max_x": 30}),
    )
    w_hel = gate(
        "helicity 15->30",
        sc.run_helicity,
        sc.build_config("helicity", {"n_max_x": 15}),
        sc.build_config("helicity", {"n_max_x": 30}),
    )
    worst = max(w1, w3, w7, w_hel)
    _report(
        9,
        worst < 1e-6,
        "check-value shifts under doubled truncation: "
        + ", ".join(reports)
        + " (all < 1e-6)",
    )
