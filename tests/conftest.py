import math

import numpy as np
import pytest

from weylsim import fockspace as fs
from weylsim.analyze import TimeSeries
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


@pytest.fixture(scope="session")
def dense_unitary():
    """Spectral propagation of a pure state under any dense Hamiltonian.

    The oracle the p_y-sector propagator is checked against: H is
    diagonalized once on the full space and applied exactly at every
    sample.  Returns {label: TimeSeries} plus `norm_drift`, like
    `evolve.evolve_unitary`.
    """

    def propagate(h, state, grid, observables):
        evals, evecs = np.linalg.eigh(h.matrix)
        times = grid.times - grid.t_start
        coeffs = evecs.conj().T @ state.data
        block = evecs @ (np.exp(-1j * np.outer(evals, times)) * coeffs[:, None])
        norms = np.linalg.norm(block, axis=0)
        block /= norms
        values = {
            label: np.einsum("ik,ik->k", block.conj(), obs.matrix @ block).real
            for label, obs in observables.items()
        }
        values["norm_drift"] = np.abs(norms - 1.0)
        return {label: TimeSeries(grid.times, v, label) for label, v in values.items()}

    return propagate
