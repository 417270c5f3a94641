"""Desk-scale simulator of a 2D massless spin-1/2 particle in a synthetic
magnetic field, built on a qubit coupled to two truncated oscillator modes."""

import os as _os
import sys as _sys

# OpenBLAS reads its thread count once, when numpy loads it, and at two or more
# threads starts a worker that spins idle for about 0.13 s of CPU.  Unless the
# environment names a count or numpy is loaded already, numpy loads here on one
# thread; BLAS_THREADS, which every manifest records, is then 1, else None.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
BLAS_THREADS = None
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _THREAD_VARIABLES):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
    BLAS_THREADS = 1

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
