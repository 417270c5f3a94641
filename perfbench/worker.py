"""One pass of a workload in a fresh interpreter, as a cold CLI user runs it.

    python3 perfbench/worker.py --ops OPS.json --out DIR [--trace] [--setup-only]

OPS.json lists the ops as {"scenario", "ini"} objects, where "ini" is the
path of the op's `--config` file.  The worker imports weylsim from the
checkout's `src/`, resolves every op's config (the end of set-up), then
runs each op through `weylsim.cli.main` exactly as
`weylsim <scenario> --config INI --out DIR/<k>-<scenario> --quiet` would,
and writes DIR/result.json (with --setup-only it stops after resolving
the configs).  Set-up ends at the monotonic clock reading
stored as "ready", which the parent compares with its own spawn time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_weylsim():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import weylsim

    if Path(weylsim.__file__).resolve().parent != (src / "weylsim").resolve():
        raise SystemExit(f"weylsim imported from {weylsim.__file__}, not {src}")
    return weylsim


def _rusage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ops", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    weylsim = _import_weylsim()
    from weylsim import cli

    ops = json.loads(args.ops.read_text())
    configs = [cli.load_config(op["ini"], op["scenario"]) for op in ops]
    ready = time.monotonic()
    result = {"ready": ready, "dims": [cfg.space.dim for cfg in configs]}
    if args.setup_only:
        _write(args.out / "result.json", result)
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(weylsim)

    records = []
    cpu0 = _rusage_cpu()
    t_run = time.perf_counter()
    for k, op in enumerate(ops):
        out_dir = args.out / f"{k}-{op['scenario']}"
        argv_op = [op["scenario"], "--config", op["ini"], "--out", str(out_dir), "--quiet"]
        rec = {"scenario": op["scenario"], "out": str(out_dir), "error": None}
        t0 = time.perf_counter()
        try:
            rec["exit"] = cli.main(argv_op)
        except Exception:  # an op that raises is a failed op, not a crash
            rec["exit"] = None
            rec["error"] = traceback.format_exc()
        rec["wall_s"] = time.perf_counter() - t0
        records.append(rec)
    result["run_s"] = time.perf_counter() - t_run
    result["cpu_s"] = _rusage_cpu() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ops"] = records

    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, tracer.counters)
        _write(args.out / "spans.json", tracer.span_dicts())
    result["threads"] = _thread_record()
    result["numpy"] = _numpy_record()
    _write(args.out / "result.json", result)
    return 0


def _write(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _numpy_record() -> dict:
    """numpy version and the BLAS it was built against."""
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"version": np.__version__, "blas": blas}


def _thread_record() -> dict:
    """Thread settings in effect: the environment and the sweep pool size."""
    from weylsim import scenarios

    record = {
        var: os.environ.get(var, "unset")
        for var in ("WEYLSIM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    threads = getattr(scenarios, "_threads", None)
    record["weylsim_sweep_threads"] = threads() if threads is not None else "unknown"
    return record


if __name__ == "__main__":
    sys.exit(main())
