"""Workload definitions: the fixed list of scenario runs ("ops") per workload.

An op is a scenario name plus the config keys that override its CLI
defaults, exactly as they would appear in a `weylsim --config` INI file.
Why each workload exists is written down in WORKLOADS.md.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
SWEEP_JITTER = 0.05  # relative; non-default seeds move the dispersion momenta
DEFAULT_SWEEP = (0.59, 1.19, 1.78, 2.38)  # the CLI's dispersion default


def _n(n_max: int) -> dict:
    return {"n_max_x": n_max, "n_max_y": n_max}


# Full-size workloads.  `ideal` runs each scenario at its noiseless CLI
# default (landau at n_max 40, where the predictor cross-check runs; `weylsim
# all --no-noise` would pin landau at n_max 10); `noisy` and `wide` are scaled
# so that a 2-core machine repeats them within one run.
WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "ideal": [
        ("dispersion", {"noise": False}),
        ("landau", {"noise": False}),
        ("helicity", {"noise": False}),
        ("trajectory", {"noise": False}),
    ],
    "noisy": [
        ("landau", {"noise": True, **_n(7)}),
    ],
    "wide": [
        ("dispersion", {"noise": False, **_n(24)}),
        ("trajectory", {"noise": False, **_n(20)}),
    ],
}

# Same shapes at n_max 4-6, for the benchmark's own tests.
SMOKE_WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "ideal": [
        ("dispersion", {"noise": False, **_n(5), "sweep": (0.59, 1.19)}),
        ("landau", {"noise": False, **_n(5)}),
        ("helicity", {"noise": False, **_n(5)}),
        ("trajectory", {"noise": False, **_n(5)}),
    ],
    "noisy": [
        ("landau", {"noise": True, **_n(4)}),
    ],
    "wide": [
        ("dispersion", {"noise": False, **_n(6), "sweep": (0.59, 1.19)}),
        ("trajectory", {"noise": False, **_n(6)}),
    ],
}

# The primary series of each scenario: (table, column) pairs compared
# against the reference outputs.
PRIMARY_SERIES = {
    "dispersion": [("dispersion", "E_over_2pi(kHz)")],
    "landau": [("sigma_z", "sigma_z"), ("sigma_z_ideal", "sigma_z")],
    "helicity": [
        ("spin", "sigma_x"),
        ("spin", "sigma_y"),
        ("kinetic_momentum", "pi_x"),
        ("kinetic_momentum", "pi_y"),
    ],
    "trajectory": [
        ("trajectory", "x_plus"),
        ("trajectory", "y_plus"),
        ("trajectory", "x_minus"),
        ("trajectory", "y_minus"),
    ],
}


def workload_ops(name: str, seed: int, smoke: bool = False) -> list[tuple[str, dict]]:
    """The ops of a workload for a seed.

    The default seed reproduces the listed configs exactly.  Any other
    seed scales each dispersion sweep momentum by a factor drawn
    uniformly from [1 - SWEEP_JITTER, 1 + SWEEP_JITTER]; nothing else
    changes.
    """
    table = SMOKE_WORKLOADS if smoke else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    rng = random.Random(seed)
    ops = []
    for scenario, overrides in table[name]:
        overrides = dict(overrides)
        if scenario == "dispersion" and seed != DEFAULT_SEED:
            sweep = overrides.get("sweep", DEFAULT_SWEEP)
            overrides["sweep"] = tuple(
                round(p * (1 + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)), 6)
                for p in sweep
            )
        ops.append((scenario, overrides))
    return ops


def ini_text(scenario: str, overrides: dict) -> str:
    """The `weylsim --config` INI section that applies an op's overrides."""
    lines = [f"[{scenario}]"]
    for key, value in overrides.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = ", ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
