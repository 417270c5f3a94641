"""Tests of the benchmark itself, on the n_max 4-6 smoke workloads."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from tracing import layer_metrics
from workloads import DEFAULT_SWEEP, SWEEP_JITTER, WORKLOADS, workload_ops

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--smoke", "--seconds", "0", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "# record " in proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_emits_every_per_layer_metric(workload):
    proc = _bench("--workload", workload, "--smoke", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"], proc.stdout
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")
    assert values["cli.files_written"] > 0 and values["trace.run_s"] > 0
    lindblad = values["evolve.evolve_lindblad.calls"]
    assert (lindblad > 0) == (workload == "noisy")
    assert (values["probe.measure_energy_slope.calls"] > 0) == (workload != "noisy")


def _run_in_process(monkeypatch, capsys, ops, *args) -> dict:
    monkeypatch.setattr(bench, "workload_ops", lambda *a: ops)
    assert bench.main(["--workload", "noisy", "--seconds", "0", *args]) == 0
    return _last_json(capsys.readouterr().out)


def test_forced_check_failure_counts_as_failed_op(monkeypatch, capsys):
    # a 100 us record cannot sweep a full rotation, so that check fails
    short = ("helicity", {"n_max_x": 5, "n_max_y": 5, "t_end_us": 100})
    ok = ("helicity", {"n_max_x": 5, "n_max_y": 5})
    result = _run_in_process(monkeypatch, capsys, [ok, short], "--smoke", "--seed", "1")
    assert result["attempted"] == 2 and result["failed"] == 1
    assert not result["correct"]


def test_reference_mismatch_counts_as_failed_op(monkeypatch, capsys, tmp_path):
    ref = json.loads((bench.REFERENCE_DIR / "noisy-smoke.json").read_text())
    ref[0]["series"]["sigma_z/sigma_z"][10] += 1e-3
    (tmp_path / "noisy-smoke.json").write_text(json.dumps(ref))
    monkeypatch.setattr(bench, "REFERENCE_DIR", tmp_path)
    ops = workload_ops("noisy", 0, smoke=True)
    result = _run_in_process(monkeypatch, capsys, ops, "--smoke")
    assert result["attempted"] == 1 and result["failed"] == 1


def test_deadline_stops_the_run_without_failing_ops(monkeypatch, capsys):
    real_spawn, passes = bench.spawn, []

    def spawn(ops_file, out_dir, deadline, *flags):
        if "--setup-only" not in flags:
            passes.append(flags)
            if len(passes) == cut_at:
                raise bench.DeadlineReached
        return real_spawn(ops_file, out_dir, deadline, *flags)

    monkeypatch.setattr(bench, "spawn", spawn)
    ops = workload_ops("noisy", 0, smoke=True)
    cut_at = 2  # the second pass is cut: the first one stands
    result = _run_in_process(monkeypatch, capsys, ops, "--smoke", "--seconds", "100")
    assert result["attempted"] == 1 and result["failed"] == 0 and result["correct"]
    passes.clear()
    cut_at = 1  # no pass completes: no result
    assert bench.main(["--workload", "noisy", "--smoke", "--seconds", "100"]) == 1
    assert capsys.readouterr().out.strip().splitlines()[-1].startswith("# stopped")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "noisy", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_default_seed_keeps_configs_and_others_jitter_only_sweeps():
    for name, ops in WORKLOADS.items():
        assert workload_ops(name, 0) == ops
        for seed in (1, 2, 3):
            for (scen, got), (_, want) in zip(workload_ops(name, seed), ops):
                if scen != "dispersion":
                    assert got == want
                    continue
                base = want.get("sweep", DEFAULT_SWEEP)
                assert {k: v for k, v in got.items() if k != "sweep"} == want
                assert got["sweep"] != base
                assert all(
                    abs(g / b - 1) <= SWEEP_JITTER + 1e-6 for g, b in zip(got["sweep"], base)
                )
    assert workload_ops("wide", 5) == workload_ops("wide", 5)


def test_self_time_subtracts_the_union_of_child_spans():
    # parent 0..10 with children on two threads overlapping in 2..6 and 4..8
    spans = [
        (0, "scenarios.run_dispersion", 0.0, 10.0, 1, None),
        (1, "probe.measure_energy_slope", 2.0, 6.0, 2, 0),
        (2, "probe.measure_energy_slope", 4.0, 8.0, 3, 0),
        (3, "fockspace.pauli", 4.5, 5.0, 2, 1),
        (4, "fockspace.quadrature", 4.6, 4.8, 2, 3),
    ]
    m = layer_metrics(spans, {"evolve.dim_max": 4})
    assert m["scenarios.run_dispersion.self_s"] == pytest.approx(4.0)
    assert m["probe.measure_energy_slope.s"] == pytest.approx(8.0)
    assert m["probe.measure_energy_slope.calls"] == 2
    assert m["fockspace.operators.s"] == pytest.approx(0.5)
    assert m["scenarios.sweep_threads"] == 2
    assert m["evolve.dim_max"] == 4
