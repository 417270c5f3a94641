import math

import numpy as np
import pytest

from weylsim import fockspace as fs
from weylsim.fockspace import SingleModeSpec, SpaceSpec


@pytest.fixture(scope="session")
def space():
    return SpaceSpec(15, 15)


@pytest.fixture(scope="session")
def small_space():
    return SpaceSpec(8, 8)


@pytest.fixture(scope="session")
def sm_space():
    return SingleModeSpec(31)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


PROBE_TARGETS = {
    "x": ("x", "position"),
    "px": ("x", "momentum"),
    "y": ("y", "position"),
    "py": ("y", "momentum"),
}


@pytest.fixture(scope="session")
def probe_hamiltonian():
    """Dense probe Hamiltonian (omega_probe/sqrt(2)) sigma_y Q on the full space.

    The oracle the probe protocol's closed form is checked against.
    """

    def build(space, params, target):
        q = fs.quadrature(space, *PROBE_TARGETS[target])
        return (params.omega_probe / math.sqrt(2)) * (fs.pauli(space, "y") @ q)

    return build
