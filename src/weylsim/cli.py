"""Command-line front end: run scenarios, write tables and a manifest.

Output units follow the figure-axis conventions: time in us, frequencies
as omega/2pi in kHz, phase-space quantities dimensionless.  Every run
directory receives the runner's manifest (resolved config, tool version,
timestamps, check counts and rows) as manifest.json, with content digests
of the written files added.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, WeylSimError
from .scenarios import (
    FIELDS,
    RUNNERS,
    SCENARIO_NAMES,
    Check,
    ScenarioConfig,
    ScenarioResult,
    build_config,
)


def _read_overrides(path, name: str) -> dict:
    """Parsed keys of one scenario's section of an INI-style file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    unknown = set(parser.sections()) - set(SCENARIO_NAMES)
    if parser.defaults():  # configparser would merge it into every section
        unknown.add(parser.default_section)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    overrides = {}
    if parser.has_section(name):
        for key, raw in parser.items(name):
            if key not in FIELDS:
                raise ConfigError(f"unknown key [{name}] {key}")
            try:
                overrides[key] = FIELDS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{name}] {key}: {exc}") from exc
    return overrides


def load_config(path, name: str) -> ScenarioConfig:
    """Resolve a scenario config from an INI-style file.

    The file holds one optional section per scenario; its keys are those
    of `scenarios.FIELDS`.  An empty or absent section yields the
    scenario's defaults.  Unknown sections or keys are errors.
    """
    return build_config(name, _read_overrides(path, name))


def _ini_value(value) -> str:
    """A value as its key's parser reads it back (a float's str is exact)."""
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value)


def dump_config(cfg: ScenarioConfig) -> str:
    """INI text of a fully resolved config; load_config round-trips it."""
    lines = [f"[{cfg.name}]"]
    lines += [f"{key} = {_ini_value(value)}" for key, value in cfg.values.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output writing
# ---------------------------------------------------------------------------


CSV_BLOCK = 512  # rows formatted at once, which bounds the floats held


def _json_floats(column) -> list:
    """Strict-JSON floats; non-finite values become strings."""
    values = np.asarray(column, float).tolist()
    return [v if math.isfinite(v) else str(v) for v in values]


def _atomic_write(path: Path, text: str) -> dict:
    """Write text as UTF-8 under a temp name, rename it to path, and return
    the manifest entry: the file's name and the sha256 of the bytes written."""
    data = text.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return {"name": path.name, "sha256": hashlib.sha256(data).hexdigest()}


def _csv_text(columns: dict[str, np.ndarray]) -> str:
    """Header and rows of 9-significant-digit floats, ', '-separated."""
    arrays = [np.asarray(col, float) for col in columns.values()]
    rows = [", ".join(columns)]
    row = ", ".join(["%.9g"] * len(arrays))
    for start in range(0, len(arrays[0]) if arrays else 0, CSV_BLOCK):
        block = np.column_stack([a[start : start + CSV_BLOCK] for a in arrays])
        rows.append("\n".join([row] * len(block)) % tuple(block.ravel().tolist()))
    return "\n".join(rows) + "\n"


def write_tables(result: ScenarioResult, out_dir, fmt: str = "csv") -> list[Path]:
    """Write the result tables plus manifest.json into a directory.

    csv: one file per table, 9-significant-digit floats, '\\n' newlines,
    and checks.csv with one column per field of `Check`.
    json: a single result.json with columnar arrays and the check list.
    Files are written to a temp name and atomically renamed; the manifest
    is the result's, plus a sha256 digest of every data file.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: list[dict] = []
    if fmt == "csv":
        for tname, columns in result.tables.items():
            files.append(_atomic_write(out / f"{tname}.csv", _csv_text(columns)))
        lines = [", ".join(f.name for f in fields(Check))]
        lines += [", ".join(map(str, astuple(c))) for c in result.checks]
        files.append(_atomic_write(out / "checks.csv", "\n".join(lines) + "\n"))
    elif fmt == "json":
        payload = {
            "scenario": result.name,
            "tables": {
                t: {k: _json_floats(col) for k, col in cols.items()}
                for t, cols in result.tables.items()
            },
            "checks": [c.record() for c in result.checks],
        }
        text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
        files.append(_atomic_write(out / "result.json", text))
    else:
        raise ConfigError(f"unknown output format {fmt!r}")

    manifest = dict(result.manifest, files=files)
    _atomic_write(
        out / "manifest.json", json.dumps(manifest, indent=1, allow_nan=False) + "\n"
    )
    return [out / f["name"] for f in files] + [out / "manifest.json"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylsim",
        description="run the bundled scenarios and write plot-ready tables",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "scenario",
        choices=SCENARIO_NAMES + ("all",),
        help="scenario to run, or 'all'",
    )
    parser.add_argument("--config", type=Path, help="INI config file")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument(
        "--no-noise", action="store_true", help="same as the config key noise = false"
    )
    parser.add_argument(
        "--n-max",
        type=int,
        metavar="N",
        help="same as the config keys n_max_x = n_max_y = N",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--quiet", action="store_true", help="suppress check lines")
    return parser


def _resolve(name: str, args) -> ScenarioConfig:
    """The config file's keys, then the flags, as one set of overrides."""
    overrides = {} if args.config is None else _read_overrides(args.config, name)
    if args.no_noise:
        overrides["noise"] = False
    if args.n_max is not None:
        overrides["n_max_x"] = overrides["n_max_y"] = args.n_max
    return build_config(name, overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    names = list(SCENARIO_NAMES) if args.scenario == "all" else [args.scenario]

    try:
        configs = {name: _resolve(name, args) for name in names}
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    all_passed = True
    try:
        for name in names:
            result = RUNNERS[name](configs[name])
            out_dir = args.out / name if args.scenario == "all" else args.out
            write_tables(result, out_dir, args.format)
            for c in result.checks:
                all_passed &= c.passed
                if not args.quiet:
                    mark = "PASS" if c.passed else "FAIL"
                    print(
                        f"[{name}] {mark} {c.name}: expected {c.expected} "
                        f"got {c.actual} (tol {c.tolerance}, {c.basis})"
                    )
            if not args.quiet:
                print(f"[{name}] wrote {out_dir} in {result.manifest['wall_time_s']}s")
    except (WeylSimError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"run failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
