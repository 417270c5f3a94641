"""Shared fixtures and the dense full-space oracles the tests compare against.

weylsim never builds an operator on the full space; the oracles here do,
as plain numpy matrices, from the single-mode matrices and Kronecker
products.  Tests import them with `from conftest import ...`.
"""

import math

# first, so that numpy loads on the command line's one BLAS thread
import weylsim  # noqa: F401, I001
import numpy as np
import pytest

from weylsim import fockspace as fs
from weylsim.analyze import TimeSeries
from weylsim.fockspace import SpaceSpec


@pytest.fixture(scope="session")
def space():
    return SpaceSpec(15, 15)


@pytest.fixture(scope="session")
def small_space():
    return SpaceSpec(8, 8)


@pytest.fixture(scope="session")
def sm_space():
    return SpaceSpec(31, 0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


# --- dense operators ---------------------------------------------------------------

SPIN_MATRICES = fs.PAULI | {
    "one": np.eye(2),
    "plus": np.array([[0, 1], [0, 0]], dtype=complex),  # maps |-z> to |+z>
    "minus": np.array([[0, 0], [1, 0]], dtype=complex),
}


def _kron_all(factors):
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def _mode_matrix(dim, which):
    """`fs.mode_matrix`, plus the raising operator a^dag as "raise"."""
    if which == "raise":
        return fs.mode_matrix(dim, "lower").T
    return fs.mode_matrix(dim, which)


def spin_mode_operator(space, axis, mode=None, which=None):
    """sigma_axis (x) Q on the full space as one Kronecker product, Q one
    mode's `_mode_matrix` (the identity if mode is None); sigma_axis also
    takes "one", "plus" and "minus".  O(d^2), where the product of two
    embedded operators is O(d^3)."""
    factors = [SPIN_MATRICES[axis]] + [
        _mode_matrix(d, which) if m == mode else np.eye(d)
        for m, d in zip("xy", space.mode_dims)
    ]
    return _kron_all(factors)


def mode_operator(space, mode="x", which="position"):
    """Lowering, number, position or momentum operator of one mode, padded
    with identities on the qubit and the other modes."""
    return spin_mode_operator(space, "one", mode, which)


def pauli(space, axis):
    """Qubit operator sigma_axis (or sigma_plus, sigma_minus) on the full space."""
    return spin_mode_operator(space, axis)


def full_operator(terms):
    """Sum of the products np.kron(A, B), A on qubit (x) mode x, B on mode y."""
    return sum(np.kron(a, b) for a, b in terms)


def expectation(op, state):
    """<psi|O|psi> or Tr(rho O), whose imaginary part must vanish."""
    if state.kind == "pure":
        val = np.vdot(state.data, op @ state.data)
    else:
        val = np.trace(op @ state.data)
    assert abs(val.imag) <= 1e-9, val
    return float(val.real)


def weyl_hamiltonian(space, params):
    """(omega/sqrt(2)) [sigma_x p_x + sigma_y (p_y - r x)] on the full space,
    built from Kronecker products of single-mode factors, not from the
    library's sector decomposition (`evolve.weyl_sectors`)."""
    return (params.omega / math.sqrt(2)) * (
        spin_mode_operator(space, "x", "x", "momentum")
        + spin_mode_operator(space, "y", "y", "momentum")
        - params.r * spin_mode_operator(space, "y", "x", "position")
    )


def sector_hamiltonian(sectors):
    """The dense H on the full space rebuilt from its sector decomposition.

    H = sum_k S W_k diag(E_k) W_k^T S^dag (x) |phi_k><phi_k|, with
    S = diag(1, i) on the spin, W_k = [[U_k, U_k], [V_k, -V_k]] / sqrt(2),
    E_k = (s_k, -s_k) and phi_k the k-th eigenvector of p_y.  Each sector
    term is [[0, -i C_k], [i C_k^T, 0]] with C_k = U_k diag(s_k) V_k^T, formed
    so, which makes the sum Hermitian to the last bit.
    """
    u, v, phi = sectors.u, sectors.v, sectors.basis[1]
    c = (u * sectors.evals[:, None, : u.shape[1]]) @ v.swapaxes(1, 2)
    zero = np.zeros_like(c)
    h_k = np.block([[zero, -1j * c], [1j * c.swapaxes(1, 2), zero]])
    return sum(np.kron(h, np.outer(p, p.conj())) for h, p in zip(h_k, phi.T))


def transformed_hamiltonian(space, params):
    """Single-mode form omega sqrt(r) (i sigma_+ a^dag - i sigma_- a)."""
    half = params.omega * math.sqrt(params.r) * 1j * spin_mode_operator(
        space, "plus", "x", "raise"
    )
    return half + half.conj().T


def sideband_hamiltonian(space, mode, kind, rabi, phase):
    """Single sideband tone rabi [sigma_-(+) a^dag e^{i phase} + h.c.] / 2;
    the red tone carries sigma_minus, the blue tone sigma_plus."""
    sigma = "minus" if kind == "red" else "plus"
    coupling = spin_mode_operator(space, sigma, mode, "raise")
    half = (rabi / 2) * np.exp(1j * phase) * coupling
    return half + half.conj().T


PROBE_TARGETS = {
    "x": ("x", "position"),
    "px": ("x", "momentum"),
    "y": ("y", "position"),
    "py": ("y", "momentum"),
}


def probe_hamiltonian(space, params, target):
    """Probe Hamiltonian (omega/sqrt(2)) sigma_y Q on the full space.

    The oracle the probe protocol's closed form is checked against.
    """
    q = spin_mode_operator(space, "y", *PROBE_TARGETS[target])
    return (params.omega / math.sqrt(2)) * q


# --- dense propagation -------------------------------------------------------------


def dense_unitary(h, state, grid, observables):
    """Spectral propagation of a pure state under any dense Hamiltonian.

    The oracle the p_y-sector propagator is checked against: H is
    diagonalized once on the full space and applied exactly at every
    sample.  Returns {label: TimeSeries} plus `norm_drift`, like
    `evolve.evolve_unitary`.
    """
    evals, evecs = np.linalg.eigh(h)
    times = grid.times - grid.t_start
    coeffs = evecs.conj().T @ state.data
    block = evecs @ (np.exp(-1j * np.outer(evals, times)) * coeffs[:, None])
    norms = np.linalg.norm(block, axis=0)
    block /= norms
    values = {
        label: np.einsum("ik,ik->k", block.conj(), obs @ block).real
        for label, obs in observables.items()
    }
    values["norm_drift"] = np.abs(norms - 1.0)
    return {label: TimeSeries(grid.times, v) for label, v in values.items()}
