import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from weylsim import cli
from weylsim import scenarios as sc
from weylsim.errors import ConfigError
from weylsim.scenarios import (
    FIELDS,
    SCENARIO_NAMES,
    Check,
    ScenarioResult,
    build_config,
    config_dict,
    default_config,
)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


# --- config loading -------------------------------------------------------------


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    cfg = cli.load_config(path, "dispersion")
    base = default_config("dispersion")
    assert cfg.params.omega == base.params.omega
    assert cfg.sweep == base.sweep


def test_config_overrides_apply(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[landau]\n"
        "omega_khz = 5.5\n"
        "n_max_x = 9\n"
        "n_max_y = 9\n"
        "noise = false\n"
        "tau_d_x_ms = inf\n"
        "alpha_x = 0.5j\n"
    )
    cfg = cli.load_config(path, "landau")
    assert cfg.params.omega == pytest.approx(2 * np.pi * 5.5)
    assert cfg.space.n_max_x == 9
    assert not cfg.noise_on
    assert cfg.params.tau_d_x == float("inf")
    assert cfg.alpha_x == 0.5j


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[landau]\nwhatever = 3\n")
    with pytest.raises(ConfigError):
        cli.load_config(path, "landau")


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[warp]\nomega_khz = 1\n")
    with pytest.raises(ConfigError):
        cli.load_config(path, "landau")


def test_invalid_value_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[landau]\nr = -1\n")
    with pytest.raises(ConfigError):
        cli.load_config(path, "landau")


def test_config_roundtrip(tmp_path):
    configs = [
        default_config(name, n_max=12, noise_on=noise)
        for name in SCENARIO_NAMES
        for noise in (True, False)
        if not (name == "dispersion" and noise)  # dispersion is noiseless
    ]
    # every key away from its default
    configs.append(
        build_config(
            "landau",
            {
                "omega_khz": 5.5,
                "r": 0.8,
                "tau_d_x_ms": 2.5,
                "tau_d_y_ms": math.inf,
                "n_max_x": 7,
                "n_max_y": 6,
                "t_end_us": 450.0,
                "n_samples": 151,
                "dt_max_us": 0.1,
                "noise": True,
                "initial_spin": "minus_x",
                "alpha_x": 0.5 - 0.25j,
                "alpha_y": 0.3j,
            },
        )
    )
    configs.append(
        build_config(
            "dispersion",
            {"omega_khz": 3.25, "n_max_x": 8, "n_max_y": 7, "sweep": (0.5, 1.25)},
        )
    )
    # floats that 12 significant digits would round
    configs.append(
        build_config(
            "landau", {"omega_khz": 4.123456789012345, "t_end_us": 600.0000000001}
        )
    )
    manifest_keys = set()
    for i, cfg in enumerate(configs):
        path = tmp_path / f"{i}.ini"
        path.write_text(cli.dump_config(cfg))
        again = cli.load_config(path, cfg.name)
        assert again == cfg
        manifest_keys |= set(config_dict(cfg))
        if cfg.name == "dispersion":  # only the keys dispersion has
            assert set(config_dict(cfg)) == {
                "scenario", "omega_khz", "r", "n_max_x", "n_max_y", "noise_on", "sweep"
            }
    assert len(FIELDS) == 14
    assert manifest_keys == {"scenario", "noise_on"} | set(FIELDS) - {"noise"}


def test_manifest_records_keys_as_configured(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[landau]\nomega_khz = 777.7\nt_end_us = 1005\ndt_max_us = 0.7\n")
    recorded = config_dict(cli.load_config(path, "landau"))
    assert recorded["omega_khz"] == 777.7
    assert recorded["t_end_us"] == 1005
    assert recorded["dt_max_us"] == 0.7


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_cli_flags_equal_config_keys(tmp_path, name):
    def resolve(ini, *flags):
        path = tmp_path / "run.ini"
        path.write_text(f"[{name}]\n{ini}")
        args = cli._build_parser().parse_args([name, "--config", str(path), *flags])
        return cli._resolve(name, args)

    assert resolve("", "--no-noise") == resolve("noise = false\n")
    assert resolve("", "--n-max", "12") == resolve("n_max_x = 12\nn_max_y = 12\n")


INVALID_VALUES = [
    ("landau", "r = nan"),
    ("landau", "t_end_us = nan"),
    ("landau", "omega_khz = inf"),
    ("landau", "initial_spin = up"),
    ("landau", "alpha_x = nanj"),
    # dispersion prepares its own noiseless wavepackets
    ("dispersion", "noise = true"),
    ("dispersion", "alpha_x = 1j"),
    # a slope needs non-negative momenta, at least one of them non-zero
    ("dispersion", "sweep = -0.5, 1.19"),
    ("dispersion", "sweep = 0"),
    # coherent amplitudes past the truncation guard |alpha|^2 <= n_max/4
    ("dispersion", "sweep = 1.0, 5.0"),
    ("helicity", "alpha_x = 3j"),
    ("landau", "noise = false\nn_max_x = 20\nalpha_x = 3j"),
    # ... also where |alpha|^2 overflows a float
    ("landau", "alpha_x = 1e200j\nnoise = false"),
    ("dispersion", "sweep = 1e300"),
    # noise = false would silently drop the dephasing
    ("landau", "noise = false\ntau_d_x_ms = 4"),
    # every field grid starts at 0, the sample of the prepared state
    ("landau", "t_start_us = 10"),
    # configparser would merge a [DEFAULT] section into every scenario
    ("helicity", "[DEFAULT]\nn_max_x = 8"),
    # every field run needs both modes; n_max_y = 0 is only the frame's space
    ("landau", "n_max_y = 0"),
    # over a million split steps per output interval: the run would not end
    ("landau", "t_end_us = 1e308"),
    ("landau", "dt_max_us = 1e-300"),
]


@pytest.mark.parametrize(
    "name, line",
    INVALID_VALUES,
    ids=[line.replace("\n", "; ") for _, line in INVALID_VALUES],
)
def test_invalid_values_exit_2(tmp_path, capsys, name, line):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{name}]\n{line}\n")
    code = run_cli(name, "--config", path, "--out", tmp_path / "run", "--quiet")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_readme_ini_examples_load(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert blocks
    for i, text in enumerate(blocks):
        path = tmp_path / f"readme{i}.ini"
        path.write_text(text)
        sections = re.findall(r"^\[(\w+)\]", text, re.M)
        assert sections
        for name in sections:
            cli.load_config(path, name)


# --- end-to-end runs --------------------------------------------------------------


def test_landau_run_writes_tables(tmp_path):
    out = tmp_path / "run1"
    code = run_cli("landau", "--no-noise", "--n-max", 10, "--out", out, "--quiet")
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert {
        "sigma_z.csv",
        "spectrum.csv",
        "peaks.csv",
        "manifest.json",
        "checks.csv",
    } <= names
    header = (out / "sigma_z.csv").read_text().splitlines()[0]
    assert header == "t(us), sigma_z"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks_failed"] == 0
    digests = {f["name"]: f["sha256"] for f in manifest["files"]}
    for fname, digest in digests.items():
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest


def test_missing_config_exits_2(tmp_path, capsys):
    code = run_cli("landau", "--config", tmp_path / "nope.ini", "--quiet")
    assert code == 2
    assert "nope.ini" in capsys.readouterr().err


def test_eigensolver_failure_exits_1(tmp_path, capsys, monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("injected eigensolver failure")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    code = run_cli("trajectory", "--n-max", 4, "--out", tmp_path / "run", "--quiet")
    assert code == 1
    assert "run failed: injected eigensolver failure" in capsys.readouterr().err


def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError for an array larger than the machine holds,
    # as the field observables are at n_max 100000
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setitem(sc.RUNNERS, "landau", exhausted)
    code = run_cli("landau", "--n-max", 4, "--out", tmp_path / "run", "--quiet")
    err = capsys.readouterr().err
    assert code == 1
    assert err == "run failed: Unable to allocate 149. GiB for an array\n"


def test_failed_checks_exit_1(tmp_path):
    path = tmp_path / "short.ini"
    path.write_text("[helicity]\nt_end_us = 100\nn_max_x = 10\nn_max_y = 10\n")
    code = run_cli(
        "helicity", "--config", path, "--out", tmp_path / "run", "--quiet"
    )
    assert code == 1


def test_reruns_are_digest_identical(tmp_path):
    args = ("trajectory", "--n-max", 8, "--quiet")
    code1 = run_cli(*args, "--out", tmp_path / "a")
    code2 = run_cli(*args, "--out", tmp_path / "b")
    assert code1 == code2 == 0
    for f in sorted((tmp_path / "a").iterdir()):
        if f.name == "manifest.json":
            continue  # timestamps differ by design
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert ma["files"] == mb["files"]


def test_json_format(tmp_path):
    out = tmp_path / "runj"
    code = run_cli(
        "dispersion", "--n-max", 12, "--format", "json", "--out", out, "--quiet"
    )
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["scenario"] == "dispersion"
    assert "dispersion" in payload["tables"]
    assert all(c["passed"] for c in payload["checks"])
    assert (out / "manifest.json").exists()


def test_json_handles_nonfinite_ratio_entries(tmp_path):
    # the helicity ratio table starts on a pole of <pi_y>; strict JSON has
    # no Infinity token, so such entries are written as strings
    out = tmp_path / "h"
    code = run_cli(
        "helicity", "--n-max", 10, "--format", "json", "--out", out, "--quiet"
    )
    assert code == 0
    text = (out / "result.json").read_text()
    assert "Infinity" not in text
    json.loads(text)


def test_all_creates_scenario_directories(tmp_path):
    out = tmp_path / "all"
    code = run_cli("all", "--no-noise", "--n-max", 12, "--out", out, "--quiet")
    assert code == 0
    for name in ("dispersion", "landau", "helicity", "trajectory"):
        assert (out / name / "manifest.json").exists()


def test_csv_float_format(tmp_path):
    out = tmp_path / "fmt"
    run_cli("dispersion", "--n-max", 12, "--out", out, "--quiet")
    rows = (out / "dispersion.csv").read_text().splitlines()
    value = rows[1].split(", ")[1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 10
    float(value)  # parses


def test_writers_match_per_cell_formatting(tmp_path):
    # the block writers against per-cell formatting: special floats, int
    # and bool columns, more rows than one block, no rows and no columns
    rng = np.random.default_rng(0)
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, -2.5e-7]
    long = cli.CSV_BLOCK * 2 + 7
    tables = {
        "special": {
            "float": np.array(special),
            "int": np.arange(-3, 5),
            "bool": np.array([True, False] * 4),
        },
        "long": {"a": rng.normal(size=long), "b": rng.normal(size=long) * 1e12},
        "no_rows": {"a": np.array([]), "b": np.array([], dtype=int)},
        "empty": {},
    }
    result = ScenarioResult("custom", tables, [], {})

    def cell(v):
        return f"{float(v):.9g}"

    def json_cell(v):
        return float(v) if math.isfinite(v) else str(float(v))

    cli.write_tables(result, tmp_path / "csv")
    for name, columns in tables.items():
        rows = [", ".join(columns)]
        length = len(next(iter(columns.values()))) if columns else 0
        for i in range(length):
            rows.append(", ".join(cell(col[i]) for col in columns.values()))
        want = "\n".join(rows) + "\n"
        assert (tmp_path / "csv" / f"{name}.csv").read_bytes() == want.encode()

    cli.write_tables(result, tmp_path / "json", fmt="json")
    payload = {
        "scenario": "custom",
        "tables": {
            t: {k: [json_cell(v) for v in col] for k, col in cols.items()}
            for t, cols in tables.items()
        },
        "checks": [],
    }
    want = json.dumps(payload, indent=1) + "\n"
    assert (tmp_path / "json" / "result.json").read_bytes() == want.encode()


def _strict(value):
    """A check field as strict JSON holds it: non-finite floats as strings."""
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def test_check_writers_match_literal_rows(tmp_path):
    # checks.csv, result.json and the manifest carry Check's own fields;
    # the references below spell each row out field by field
    nan, inf = math.nan, math.inf
    checks = [
        Check("nan_actual", 0.0, nan, 1e-9, False, "analytic"),
        Check("infinities", inf, -inf, 5e-324, False, "identity"),
        Check("signed_zero", -0.0, 0.0, 0.0, True, "oracle"),
        Check("category", "clockwise", "counterclockwise", 0.0, False, "analytic"),
        Check("flag", "True", "True", 0.0, True, "oracle"),
    ]
    tables = {"t": {"a": np.array([1.0, 2.0])}}
    cfg = default_config("helicity", n_max=4)
    result = sc._runner(lambda _: (tables, checks))(cfg)
    rows = [
        {
            "name": c.name,
            "expected": _strict(c.expected),
            "actual": _strict(c.actual),
            "tolerance": _strict(c.tolerance),
            "passed": c.passed,
            "basis": c.basis,
        }
        for c in checks
    ]

    cli.write_tables(result, tmp_path / "csv")
    lines = ["name, expected, actual, tolerance, passed, basis"]
    for c in checks:
        lines.append(
            f"{c.name}, {c.expected}, {c.actual}, {c.tolerance}, "
            f"{c.passed}, {c.basis}"
        )
    want = "\n".join(lines) + "\n"
    assert (tmp_path / "csv" / "checks.csv").read_bytes() == want.encode()

    cli.write_tables(result, tmp_path / "json", fmt="json")
    payload = {"scenario": "helicity", "tables": {"t": {"a": [1.0, 2.0]}}}
    want = json.dumps(payload | {"checks": rows}, indent=1) + "\n"
    assert (tmp_path / "json" / "result.json").read_bytes() == want.encode()
    for fmt in ("csv", "json"):
        manifest = json.loads((tmp_path / fmt / "manifest.json").read_text())
        assert json.dumps(manifest["checks"]) == json.dumps(rows)
        assert manifest["checks_passed"] == 2 and manifest["checks_failed"] == 3


def test_nan_check_writes_strict_json(tmp_path):
    # a check without a peak reads NaN; strict JSON has no NaN token, so
    # result.json and the manifest spell it as a string in both formats
    checks = [Check("peak_n1_kHz", 4.2, math.nan, 1.67, False, "analytic")]
    cfg = default_config("landau", n_max=4, noise_on=False)
    result = sc._runner(lambda _: ({"t": {"a": np.array([1.0])}}, checks))(cfg)

    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    for fmt in ("csv", "json"):
        cli.write_tables(result, tmp_path / fmt, fmt=fmt)
        names = ["manifest.json"] + ["result.json"] * (fmt == "json")
        for name in names:
            text = (tmp_path / fmt / name).read_text()
            payload = json.loads(text, parse_constant=refuse)
            assert payload["checks"][0]["actual"] == "nan"
