"""Cold-start scenario benchmark for weylsim.

    python3 perfbench/run.py --workload ideal|noisy|wide --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs the workload's ops one
after another in a fresh interpreter (perfbench/worker.py): empty caches,
configs resolved from INI files, tables and the sha256 manifest written,
as `weylsim <scenario> --config INI --out DIR --quiet` does.  Passes repeat
until S seconds have been spent (at least one pass), a closed loop with one
client.  Every op's outputs are checked: an op that raises, exits non-zero,
reports a failing check, or does not match the reference outputs recorded
at the default seed counts as failed.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json (medians over the passes); with
--trace 1 it carries the per-layer metrics, measured by traced passes that
follow one untraced pass.  Earlier lines give per-op times and a run
record (dimensions, thread settings, machine, commit, source size).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, PRIMARY_SERIES, ini_text, workload_ops  # noqa: E402

MATCH_TOL = 1e-6  # the acceptance gate's tolerance on precision values
# set-up-only interpreters before each pass; spread over the run, their
# median is less exposed to a momentary slowdown of the machine
SETUP_PER_PASS = 3
# a run starts no pass that would end after this, whatever --seconds says
RUN_DEADLINE_S = 170
REFERENCE_DIR = HERE / "reference"


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class DeadlineReached(Exception):
    """A worker was stopped at the run deadline: the run ends, nothing failed."""


def spawn(ops_file: Path, out_dir: Path, deadline: float, *flags: str):
    """One fresh worker interpreter writing into out_dir.

    Returns (result dict or None, error text, set-up seconds): set-up runs
    from the spawn to the worker's "ready" reading of the same clock.
    Raises DeadlineReached if the worker is still running at the deadline.
    """
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--ops", str(ops_file)]
    cmd += ["--out", str(out_dir), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise DeadlineReached from None
    result_file = out_dir / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", None
    result = json.loads(result_file.read_text())
    spans = out_dir / "spans.json"
    if spans.exists():
        spans.replace(out_dir.parent / "spans.json")
    return result, "", result["ready"] - spawned


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _normalized(overrides: dict) -> dict:
    return json.loads(json.dumps(overrides))


def read_outputs(scenario: str, out_dir: Path) -> dict:
    """Every check's actual value and the primary series of one op."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    series = {}
    for table, column in PRIMARY_SERIES[scenario]:
        lines = (out_dir / f"{table}.csv").read_text().splitlines()
        j = lines[0].split(", ").index(column)
        series[f"{table}/{column}"] = [float(row.split(", ")[j]) for row in lines[1:]]
    return {
        "checks": {c["name"]: c["actual"] for c in manifest["checks"]},
        "failing": [c["name"] for c in manifest["checks"] if not c["passed"]],
        "series": series,
    }


def _same(expected, actual) -> bool:
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return abs(expected - actual) <= MATCH_TOL  # False for NaN
    return expected == actual


def compare(reference: dict, outputs: dict) -> list[str]:
    """Mismatches between an op's outputs and its reference entry."""
    problems = []
    for name, want in reference["checks"].items():
        got = outputs["checks"].get(name, "<missing>")
        if not _same(want, got):
            problems.append(f"check {name}: {got} != reference {want}")
    for key, want in reference["series"].items():
        got = outputs["series"].get(key)
        if got is None or len(got) != len(want):
            problems.append(f"series {key}: length differs from reference")
            continue
        worst = max((abs(a - b) for a, b in zip(want, got)), default=0.0)
        if not worst <= MATCH_TOL:
            problems.append(f"series {key}: max deviation {worst:.3g}")
    return problems


def judge(rec: dict, op: tuple[str, dict], references: list[dict], need_ref: bool):
    """(failure reasons, outputs) of one op; no reasons means it passed.

    An op is compared with the reference entry recorded for the same
    scenario and overrides; an op without one (a jittered sweep) is judged
    by its scenario checks alone, unless need_ref demands a reference.
    """
    if rec["error"]:
        return [rec["error"].strip().splitlines()[-1]], None
    scenario = op[0]
    try:
        outputs = read_outputs(scenario, Path(rec["out"]))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable outputs: {exc!r}"], None
    reasons = []
    if rec["exit"] != 0:
        reasons.append(f"exit code {rec['exit']}")
    if outputs["failing"]:
        reasons.append(f"failing checks {outputs['failing']}")
    key = {"scenario": scenario, "overrides": _normalized(op[1])}
    reference = next(
        (r for r in references if {k: r[k] for k in key} == key), None
    )
    if reference is not None:
        reasons += compare(reference, outputs)
    elif need_ref:
        reasons.append("no reference output recorded for this op")
    return reasons, outputs


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def run_record(dims: list[int], ops, threads: dict) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    src_loc = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "ops": [{"scenario": s, "overrides": o, "dim": d} for (s, o), d in zip(ops, dims)],
        "threads": threads,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "commit": commit,
        "src_loc": src_loc,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _metric_specs(section: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[section]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="the n_max 4-6 workloads of the tests"
    )
    parser.add_argument(
        "--record-reference", action="store_true",
        help="store the first pass's outputs as the reference (default seed only)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weylsim" / "__init__.py").is_file():
        print(f"no weylsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        ops = workload_ops(args.workload, args.seed, args.smoke)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        print("reference outputs are recorded at the default seed only", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    label = args.workload + ("-smoke" if args.smoke else "")
    work = ROOT / ".perfbench" / label
    work.mkdir(parents=True, exist_ok=True)
    op_list = []
    for k, (scenario, overrides) in enumerate(ops):
        ini = work / f"op{k}-{scenario}.ini"
        ini.write_text(ini_text(scenario, overrides))
        op_list.append({"scenario": scenario, "ini": str(ini)})
    ops_file = work / "ops.json"
    ops_file.write_text(json.dumps(op_list))

    ref_file = REFERENCE_DIR / f"{label}.json"
    references = (
        json.loads(ref_file.read_text())
        if ref_file.exists() and not args.record_reference
        else []
    )
    need_ref = args.seed == DEFAULT_SEED and not args.record_reference

    setup, untraced, traced, op_times = [], [], [], {}
    attempted = failed = 0
    longest = 0.0  # the slowest pass so far, with its set-up interpreters
    passes_started = time.monotonic()
    while True:
        began = time.monotonic()
        trace_this = bool(args.trace) and bool(untraced)
        try:
            for _ in range(0 if args.trace else SETUP_PER_PASS):
                _, err, setup_s = spawn(ops_file, work / "setup", deadline, "--setup-only")
                if err:
                    print(f"set-up failed: {err}", file=sys.stderr)
                    return 1
                setup.append(setup_s)
            flags = ["--trace"] if trace_this else []
            result, err, setup_s = spawn(ops_file, work / "pass", deadline, *flags)
        except DeadlineReached:
            print("# stopped: the run deadline cut a pass short; it is not counted")
            break
        attempted += len(ops)
        if result is None:
            failed += len(ops)
            print(f"# pass failed: {err}")
            break
        setup.append(setup_s)
        (traced if trace_this else untraced).append(result)
        for k, (rec, op) in enumerate(zip(result["ops"], ops)):
            reasons, outputs = judge(rec, op, references, need_ref)
            if reasons:
                failed += 1
                print(f"# op {k} {op[0]} failed: {'; '.join(reasons)}")
            elif args.record_reference and len(untraced) == 1 and not trace_this:
                references.append({
                    "scenario": op[0],
                    "overrides": _normalized(op[1]),
                    "checks": outputs["checks"],
                    "series": outputs["series"],
                })
            op_times.setdefault(f"{k}-{op[0]}", []).append(rec["wall_s"])
        longest = max(longest, time.monotonic() - began)
        if untraced and (traced or not args.trace):
            now = time.monotonic()
            if now - passes_started >= args.seconds:
                break
            if now + longest > deadline:
                print("# stopped: another pass would not end before the run deadline")
                break
    for scratch in ("pass", "setup"):
        shutil.rmtree(work / scratch, ignore_errors=True)
    if attempted == 0 or (args.trace and not traced and not failed):
        print(f"no complete pass within {RUN_DEADLINE_S} s", file=sys.stderr)
        return 1

    if args.record_reference and failed == 0:
        REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
        ref_file.write_text(json.dumps(references, indent=1) + "\n")
        print(f"# recorded reference outputs in {ref_file}")

    if untraced:
        record = run_record(untraced[0]["dims"], ops, untraced[0]["threads"])
        record["numpy"] = untraced[0]["numpy"]
        record.update(workload=args.workload, seed=args.seed, passes=len(untraced))
        (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
        print("# record " + json.dumps(record))
    for key, times in op_times.items():
        print(
            f"# scenario_s {key}: median {_median(times):.4f} s "
            f"(min {min(times):.4f}, max {max(times):.4f}, n {len(times)})"
        )
    print(f"# ops attempted {attempted}, failed {failed}, ops_failed {failed / max(attempted, 1):.4f}")

    if args.trace:
        values = trace_metrics(untraced, traced)
        specs = _metric_specs("per_layer")
    else:
        values = {
            "setup_s": _median(setup),
            "run_s": _median([r["run_s"] for r in untraced]),
            "cpu_s": _median([r["cpu_s"] for r in untraced]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        }
        specs = _metric_specs("end_to_end")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in specs
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def trace_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Medians of the per-layer figures over the traced passes."""
    keys = set().union(*(r["layers"] for r in traced)) if traced else set()
    values = {k: _median([r["layers"].get(k, 0.0) for r in traced]) for k in keys}
    values["trace.run_s"] = _median([r["run_s"] for r in traced])
    values["trace.overhead_s"] = values["trace.run_s"] - _median(
        [r["run_s"] for r in untraced]
    )
    return values


if __name__ == "__main__":
    sys.exit(main())
