import math

import numpy as np
import pytest

from weylsim import fockspace as fs
from weylsim.errors import DomainError, TruncationError
from weylsim.fockspace import SpaceSpec

from conftest import expectation, mode_operator, pauli


# --- independent oracles ----------------------------------------------------


def coherent_amps_oracle(alpha, dim):
    """Direct Fock sum c_n = e^{-|a|^2/2} a^n / sqrt(n!), renormalized."""
    n = np.arange(dim)
    fact = np.array([math.factorial(k) for k in n], dtype=float)
    c = np.exp(-abs(alpha) ** 2 / 2) * alpha**n / np.sqrt(fact)
    return c / np.linalg.norm(c)


def lowering_expect_oracle(c):
    """<a> of a single-mode state by explicit Fock sum."""
    return sum(
        np.conj(c[n]) * c[n + 1] * math.sqrt(n + 1) for n in range(len(c) - 1)
    )


# --- mode operators ----------------------------------------------------------


def test_lowering_matrix_elements(space):
    a = mode_operator(space, "x", "lower")
    ket = fs.basis_state(space, "plus_z", 1, 0).data
    bra = fs.basis_state(space, "plus_z", 0, 0).data
    assert abs(np.vdot(bra, a @ ket) - 1.0) < 1e-14
    ket4 = fs.basis_state(space, "plus_z", 4, 0).data
    bra3 = fs.basis_state(space, "plus_z", 3, 0).data
    assert abs(np.vdot(bra3, a @ ket4) - 2.0) < 1e-14


def test_commutator_truncation_identity(space):
    # [a, a^dag] = 1 - (n_max + 1)|n_max><n_max| on the truncated mode
    for mode in ("x", "y"):
        a = mode_operator(space, mode, "lower")
        comm = a @ a.conj().T - a.conj().T @ a
        nm = {"x": space.n_max_x, "y": space.n_max_y}[mode]
        edge = fs.basis_state(
            space, "plus_z", *((nm, 0) if mode == "x" else (0, nm))
        ).data
        expected = np.eye(space.dim) - (nm + 1) * _edge_projector(space, mode, nm)
        assert np.abs(comm - expected).max() < 1e-12
        assert abs(np.vdot(edge, comm @ edge) + nm) < 1e-12


def _edge_projector(space, mode, level):
    dx, dy = space.mode_dims
    p1 = np.zeros((dx if mode == "x" else dy,) * 2)
    p1[level, level] = 1.0
    if mode == "x":
        return np.kron(np.eye(2), np.kron(p1, np.eye(dy)))
    return np.kron(np.eye(2), np.kron(np.eye(dx), p1))


def test_quadratures_hermitian_and_canonical(space):
    x = mode_operator(space, "x", "position")
    p = mode_operator(space, "x", "momentum")
    assert np.abs(x - x.conj().T).max() < 1e-14
    assert np.abs(p - p.conj().T).max() < 1e-14
    # [x, p] = i away from the truncation edge
    comm = x @ p - p @ x
    interior = []
    for n in range(space.n_max_x):
        v = fs.basis_state(space, "plus_z", n, 0).data
        interior.append(np.vdot(v, comm @ v))
    assert np.abs(np.array(interior) - 1j).max() < 1e-12


def test_quadrature_eigenbasis_diagonalizes_quadrature(small_space):
    # lifted to the composite space, the single-mode eigenbasis of mode y
    # diagonalizes the embedded quadrature with the returned eigenvalues
    d = small_space.n_max_y + 1
    rest = small_space.dim // d
    for kind in ("position", "momentum"):
        q, vecs = fs.quadrature_eigenbasis(d, kind)
        assert np.abs(vecs.conj().T @ vecs - np.eye(d)).max() < 1e-12
        lift = np.kron(np.eye(rest), vecs)
        op = mode_operator(small_space, "y", kind)
        diagonal = np.diag(np.tile(q, rest))
        assert np.abs(lift.conj().T @ op @ lift - diagonal).max() < 1e-12
    with pytest.raises(DomainError):
        fs.quadrature_eigenbasis(d, "angle")


def test_vacuum_position_mean(space):
    x = mode_operator(space, "x", "position")
    vac = fs.coherent_state(space, 0, 0, "plus_z")
    assert abs(expectation(x, vac)) < 1e-14


def test_coherent_position_against_fock_sum_oracle(space):
    alpha = 1 / math.sqrt(2)
    st = fs.coherent_state(space, alpha, 0, "plus_z")
    got = expectation(mode_operator(space, "x", "position"), st)
    c = coherent_amps_oracle(alpha, space.n_max_x + 1)
    want = math.sqrt(2) * lowering_expect_oracle(c).real
    assert abs(got - want) < 1e-12
    assert abs(got - 1.0) < 1e-9


def test_pauli_conventions(space):
    sz = pauli(space, "z")
    up = fs.basis_state(space, "plus_z", 0, 0)
    assert abs(expectation(sz, up) - 1.0) < 1e-14
    sx = pauli(space, "x")
    assert np.abs(sx @ sx - np.eye(space.dim)).max() < 1e-14
    sp, sm = pauli(space, "plus"), pauli(space, "minus")
    anti = sp @ sm + sm @ sp
    assert np.abs(anti - np.eye(space.dim)).max() < 1e-14
    # sigma_plus |-z> = |+z>
    down = fs.basis_state(space, "minus_z", 0, 0).data
    assert np.abs(sp @ down - up.data).max() < 1e-14
    # the products the propagators take carry the same 2x2 matrices
    for axis in "xyz":
        want = pauli(space, axis)
        assert np.array_equal(np.kron(fs.PAULI[axis], np.eye(space.dim // 2)), want)


# --- coherent states ---------------------------------------------------------


def test_coherent_vacuum_is_exact(space):
    st = fs.coherent_state(space, 0, 0, "plus_z")
    want = fs.basis_state(space, "plus_z", 0, 0).data
    assert np.abs(st.data - want).max() == 0.0


def test_coherent_momentum_mean(space):
    st = fs.coherent_state(space, 1j / math.sqrt(2), 0, "plus_z")
    px = mode_operator(space, "x", "momentum")
    assert abs(expectation(px, st) - 1.0) < 1e-6


def test_coherent_occupation_oracle(space):
    st = fs.coherent_state(space, 1j, 0, "plus_z")
    n_op = mode_operator(space, "x", "number")
    assert abs(expectation(n_op, st) - 1.0) < 1e-6
    st2 = fs.coherent_state(space, 0.5j, 0, "plus_z")
    assert abs(expectation(n_op, st2) - 0.25) < 1e-6


def test_coherent_guard_and_leakage(space):
    with pytest.raises(TruncationError):
        fs.coherent_state(space, 2.1, 0)  # |alpha|^2 = 4.41 > 15/4
    # strongest in-range amplitude keeps the discarded tail tiny
    assert fs.coherent_leakage(1.68, space.n_max_x) < 1e-6
    st = fs.coherent_state(space, 1.68, 0)
    assert abs(np.linalg.norm(st.data) - 1.0) < 1e-12


def test_single_mode_coherent(sm_space):
    amplitudes = fs.coherent_amplitudes(1j, sm_space.n_max_x + 1)
    vec = np.kron(fs.spin_vector("plus_z"), amplitudes)
    st = fs.QState("pure", vec, sm_space)
    n_op = mode_operator(sm_space, "x", "number")
    assert abs(expectation(n_op, st) - 1.0) < 1e-9


# --- expectation -------------------------------------------------------------


def test_expectation_identity_and_orthogonal_spin(space):
    st = fs.coherent_state(space, 0.5, 0.5j, "plus_x")
    assert abs(expectation(np.eye(space.dim), st) - 1.0) < 1e-12
    assert abs(expectation(pauli(space, "z"), st)) < 1e-12


def test_expectation_linearity_and_symmetry(small_space, rng):
    dim = small_space.dim
    for _ in range(5):
        h1 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h1 = h1 + h1.conj().T
        h2 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h2 = h2 + h2.conj().T
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        st = fs.QState("pure", v / np.linalg.norm(v), small_space)
        lhs = expectation(2.0 * h1 + (-0.5) * h2, st)
        rhs = 2.0 * expectation(h1, st) - 0.5 * expectation(h2, st)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
        # Hermitian matrix elements are conjugate symmetric across states
        w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        w = w / np.linalg.norm(w)
        lhs_c = np.vdot(st.data, h1 @ w)
        rhs_c = np.conj(np.vdot(w, h1 @ st.data))
        assert abs(lhs_c - rhs_c) < 1e-9 * max(1.0, abs(lhs_c))


def test_state_validation():
    space = SpaceSpec(2, 2)
    with pytest.raises(DomainError):
        fs.QState("pure", np.ones(space.dim), space)  # unnormalized
    with pytest.raises(DomainError):
        fs.QState("mixed", np.eye(space.dim), space)  # trace != 1
    nan_vec = np.full(space.dim, np.nan)
    with pytest.raises(DomainError):
        fs.QState("pure", nan_vec, space)
    for entry in ((0, 0), (0, 1)):  # on and off the diagonal
        rho = np.eye(space.dim) / space.dim
        rho[entry] = np.nan
        with pytest.raises(DomainError):
            fs.QState("mixed", rho, space)
    with pytest.raises(DomainError):
        SpaceSpec(0, 3)
    with pytest.raises(DomainError):
        SpaceSpec(0, 0)
    assert SpaceSpec(5, 0).dim == 12  # the single-mode frame's space


def test_values_are_immutable(space):
    st = fs.coherent_state(space, 0.5, 0)
    with pytest.raises(ValueError):
        st.data[0] = 1.0
    op = fs.mode_matrix(space.n_max_x + 1, "position")
    with pytest.raises(ValueError):
        op[0, 0] = 5.0


def test_quadrature_eigenbasis_cache_is_bounded():
    bound = fs.quadrature_eigenbasis.cache_info().maxsize
    assert bound is not None
    for dim in range(2, bound + 10):  # more distinct sizes than the bound
        fs.quadrature_eigenbasis(dim, "position")
        assert fs.quadrature_eigenbasis.cache_info().currsize <= bound
