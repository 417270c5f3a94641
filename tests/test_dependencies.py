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
