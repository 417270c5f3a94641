import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylsim
from weylsim import scenarios

# the variables that name a BLAS thread count; weylsim sets none of its own
# while any of them is set
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child_env(**extra) -> dict:
    """This interpreter's environment with weylsim on the path and no BLAS
    thread count, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    return env | {"PYTHONPATH": str(Path(weylsim.__file__).parents[1])} | extra

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


@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or scenarios._blas_thread_limit() is None,
    reason="needs /proc/self/task and numpy's OpenBLAS",
)
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


# runs every scenario through the command line, then prints which of
# numpy's lazily loaded subpackages were imported by then and the CPU
# seconds of every thread but the main one
LAZY = ("numpy.random", "numpy.polynomial", "numpy.ma", "numpy.testing")
COLD_RUN = f"""
import resource, sys
from weylsim import cli
cli.main(sys.argv[1:] + ["--quiet"])
print(" ".join(name for name in {LAZY!r} if name in sys.modules))
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


def test_a_cold_run_spends_no_cpu_off_the_main_thread(cold_run):
    # numpy's OpenBLAS loaded on two threads starts a worker that spins for
    # about 0.13 s of CPU, its tail while the first scenario runs; weylsim
    # loads it on one thread, so only the main thread ever runs
    if not cold_run[1] or scenarios._blas_thread_limit() is None:
        pytest.skip("needs per-thread rusage and numpy's OpenBLAS")
    assert float(cold_run[1]) <= 0.02, cold_run


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
