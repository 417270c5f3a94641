"""Desk-scale simulator of a 2D massless spin-1/2 particle in a synthetic
magnetic field, built on a qubit coupled to two truncated oscillator modes."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
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
from .fockspace import QState, SpaceSpec  # noqa: F401
from .model import SimParams  # noqa: F401
