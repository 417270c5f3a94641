import ast
import os
import subprocess
import sys
from pathlib import Path

import weylsim

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
    env = dict(os.environ, PYTHONPATH=str(Path(weylsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy"]


# runs every scenario through the command line and prints which of numpy's
# lazily loaded subpackages were imported by then
LAZY = ("numpy.random", "numpy.polynomial", "numpy.ma", "numpy.testing")
COLD_RUN = f"""
import sys
from weylsim import cli
cli.main(sys.argv[1:] + ["--quiet"])
print(" ".join(name for name in {LAZY!r} if name in sys.modules))
"""


def test_a_cold_run_imports_none_of_numpys_lazy_subpackages(tmp_path):
    # numpy loads these on first attribute access, and each costs import
    # time in every fresh interpreter (numpy.random about 18 ms); the
    # Gauss-Hermite nodes come from an eigensolver, not numpy.polynomial
    config = tmp_path / "small.ini"
    config.write_text("[dispersion]\nsweep = 0.59, 1.19\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["all", "--n-max", "6", "--config", str(config), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(weylsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_RUN, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("dispersion", "landau", "helicity", "trajectory"):
        assert (out / name / "manifest.json").is_file(), proc.stderr
    assert proc.stdout.split() == [], proc.stdout


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
