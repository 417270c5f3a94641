"""Desk-scale simulator of a 2D massless spin-1/2 particle in a synthetic
magnetic field, built on a qubit coupled to two truncated oscillator modes."""

import os as _os

# numpy's OpenBLAS reads its thread count once, when it loads, and at two or
# more threads starts a worker that spins idle for about 0.13 s of CPU; every
# scenario run holds BLAS to one thread (`scenarios._one_blas_thread`), so that
# worker would do no work.  Unless the environment names a count, numpy is
# loaded here on one thread, and the environment is left as it was found.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(name in _os.environ for name in _THREAD_VARIABLES):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

from .errors import (  # noqa: E402, F401
    ConfigError,
    ConvergenceError,
    DegenerateError,
    DomainError,
    FitError,
    GridError,
    NonHermitianError,
    PositivityError,
    RankError,
    TruncationError,
    WeylSimError,
)
from .fockspace import QState, SpaceSpec  # noqa: E402, F401
from .model import SimParams  # noqa: E402, F401
