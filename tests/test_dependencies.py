import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylsim


def _child_env(**extra) -> dict:
    """This interpreter's environment with weylsim on the path and no BLAS
    thread count, plus `extra`."""
    env = {
        k: v for k, v in os.environ.items() if k not in weylsim._THREAD_VARIABLES
    }
    return env | {"PYTHONPATH": str(Path(weylsim.__file__).parents[1])} | extra


def _numpy_has_openblas() -> bool:
    """Whether numpy was built against OpenBLAS, as its wheels are."""
    import numpy as np

    try:
        return "openblas" in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return False


# the tests that count OpenBLAS's worker thread
needs_worker_count = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or not _numpy_has_openblas(),
    reason="needs /proc/self/task and numpy's OpenBLAS",
)

# imports every weylsim module and prints the top-level packages that this
# added to sys.modules; what the interpreter loaded at start-up (site's .pth
# files among it) is already there and not counted
SCRIPT = """
import importlib, pkgutil, sys
before = set(sys.modules)
import weylsim
for info in pkgutil.iter_modules(weylsim.__path__):
    importlib.import_module("weylsim." + info.name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names) - {"weylsim"})))
"""


def test_numpy_is_the_only_third_party_import():
    # pyproject.toml declares numpy as the one dependency; an import of
    # another installed package (scipy, say) would break that install
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy"]


# the BLAS worker a threaded numpy starts when it loads; weylsim's own
# import loads numpy without it unless the environment names a count
GUARD = """
import os
import weylsim
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@needs_worker_count
@pytest.mark.parametrize("count", [None, "2"])
def test_weylsim_loads_numpys_openblas_without_a_worker_unless_told(count):
    # with no count in the environment the process keeps its one thread and
    # the environment is left as it was; a count the caller set is honoured,
    # and at two threads OpenBLAS starts one worker beside the main thread
    if count is not None and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no worker on one core")
    env = _child_env() if count is None else _child_env(OPENBLAS_NUM_THREADS=count)
    proc = subprocess.run(
        [sys.executable, "-c", GUARD], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == (["1", "None"] if count is None else ["2", count])


# a host program's own BLAS threads: numpy loaded before weylsim, or a count
# from the environment, then one small scenario run through the command
# line; prints the process's threads and the run's manifest entry
HOST = """
import json, os, sys
if sys.argv[1] == "numpy first":
    import numpy
from weylsim import cli
cli.main(["landau", "--no-noise", "--n-max", "6", "--out", sys.argv[2], "--quiet"])
with open(os.path.join(sys.argv[2], "manifest.json"), encoding="utf-8") as fh:
    manifest = json.load(fh)
print(len(os.listdir("/proc/self/task")), manifest["blas_threads"])
"""


@needs_worker_count
@pytest.mark.parametrize(
    "order, count",
    [("numpy first", "2"), ("weylsim first", "2"), ("numpy first", None)],
)
def test_a_host_keeps_its_blas_threads_and_the_manifest_says_so(tmp_path, order, count):
    # weylsim sets no thread count where the host's stands: the OpenBLAS
    # worker lives through the run, and the manifest records null
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no worker on one core")
    env = _child_env() if count is None else _child_env(OPENBLAS_NUM_THREADS=count)
    proc = subprocess.run(
        [sys.executable, "-c", HOST, order, str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    threads, blas_threads = proc.stdout.split()
    assert blas_threads == "None"
    assert int(threads) == 2 if count == "2" else int(threads) > 1


# runs every scenario through the command line, then prints which of
# numpy's lazily loaded subpackages were imported by then, which parts of
# OpenSSL were loaded (hashlib's module, a mapping of its library) and the
# CPU seconds of every thread but the main one
LAZY = ("numpy.random", "numpy.polynomial", "numpy.ma", "numpy.testing")
COLD_RUN = f"""
import os, resource, sys
from weylsim import cli
cli.main(sys.argv[1:] + ["--quiet"])
print(" ".join(name for name in {LAZY!r} if name in sys.modules))
maps = ""
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps", encoding="utf-8") as fh:
        maps = fh.read()
openssl = {{"_hashlib": "_hashlib" in sys.modules, "libcrypto": "libcrypto" in maps}}
print(" ".join(name for name, loaded in openssl.items() if loaded))
if hasattr(resource, "RUSAGE_THREAD"):
    whole = resource.getrusage(resource.RUSAGE_SELF)
    main = resource.getrusage(resource.RUSAGE_THREAD)
    print(whole.ru_utime + whole.ru_stime - main.ru_utime - main.ru_stime)
"""


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """`weylsim all --n-max 6` in a fresh interpreter with no BLAS thread
    count in its environment: the printed lines, after checking that every
    scenario wrote its manifest."""
    tmp_path = tmp_path_factory.mktemp("cold")
    config = tmp_path / "small.ini"
    config.write_text("[dispersion]\nsweep = 0.59, 1.19\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["all", "--n-max", "6", "--config", str(config), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_RUN, *args],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("dispersion", "landau", "helicity", "trajectory"):
        assert (out / name / "manifest.json").is_file(), proc.stderr
    return proc.stdout.split("\n")


def test_a_cold_run_imports_none_of_numpys_lazy_subpackages(cold_run):
    # numpy loads these on first attribute access, and each costs import
    # time in every fresh interpreter (numpy.random about 18 ms); the
    # Gauss-Hermite nodes come from an eigensolver, not numpy.polynomial
    assert cold_run[0] == "", cold_run


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="needs CPython's built-in SHA-256",
)
def test_a_cold_run_loads_no_openssl(cold_run):
    # the manifest's digests come from CPython's own SHA-256; hashlib would
    # map OpenSSL's libcrypto, 3.5 MB of resident memory, for about 20 files
    assert cold_run[1] == "", cold_run


def test_a_cold_run_spends_no_cpu_off_the_main_thread(cold_run):
    # numpy's OpenBLAS loaded on two threads starts a worker that spins for
    # about 0.13 s of CPU, its tail while the first scenario runs; weylsim
    # loads it on one thread, so only the main thread ever runs
    if not cold_run[2] or not _numpy_has_openblas():
        pytest.skip("needs per-thread rusage and numpy's OpenBLAS")
    assert float(cold_run[2]) <= 0.02, cold_run


# page faults of writing an 8 MB array that was just written and freed,
# after the CLI's malloc set-up
REUSE = """
import resource
import numpy as np
from weylsim import cli
cli._steady_malloc()
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(1 << 20)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _on_glibc(), reason="needs glibc's malloc")
@pytest.mark.parametrize("threshold", [None, "131072"])
def test_a_run_reuses_freed_memory_unless_the_environment_sets_malloc(threshold):
    # with glibc's dynamic thresholds the same op faulted 542 or 2,284
    # pages, depending on the order of earlier frees; fixed thresholds
    # reuse the freed block, and a MALLOC_* variable is left to glibc
    env = {
        k: v for k, v in _child_env().items()
        if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"
    }
    if threshold is not None:
        env["MALLOC_MMAP_THRESHOLD_"] = threshold
    proc = subprocess.run(
        [sys.executable, "-c", REUSE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    if threshold is None:
        assert faults <= 8, faults
    else:  # every 8 MB block is mapped afresh
        assert faults >= 100, faults


# one small run on an interpreter without the built-in SHA-256, where the
# digests come from hashlib; prints whether hashlib's OpenSSL module loaded
FALLBACK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from weylsim import cli
cli.main(sys.argv[1:] + ["--quiet"])
print("_hashlib" in sys.modules)
"""


@pytest.mark.skipif(
    importlib.util.find_spec("_hashlib") is None, reason="needs hashlib's OpenSSL"
)
def test_the_hashlib_fallback_writes_the_same_digests(tmp_path):
    config = tmp_path / "small.ini"
    config.write_text("[dispersion]\nsweep = 0.59, 1.19\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["dispersion", "--n-max", "5", "--config", str(config), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", FALLBACK, *args],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
    files = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"]
    assert [f["name"] for f in files] == ["dispersion.csv", "checks.csv"]
    for f in files:
        digest = hashlib.sha256((out / f["name"]).read_bytes()).hexdigest()
        assert f["sha256"] == digest, f["name"]


def test_every_import_is_used():
    # a name a module imports and never reads is a dead import, or a
    # re-export that gives one thing two addresses; __init__.py is the one
    # module whose imports are its interface
    dead = []
    for path in sorted(Path(weylsim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        dead.append(f"{path.name}:{node.lineno} {name}")
    assert dead == []
