"""Time evolution: exact unitary propagation and dephasing master equation.

The unitary path splits the Weyl Hamiltonian into its conserved-p_y
sectors, diagonalizes each once and is exact at every sample.  The
master equation is a 4th-order split step (Strang steps composed by
Yoshida's triple jump) of an exact unitary factor and an exact elementwise
dephasing factor, run on the parity sectors of the density matrix in a
diagonal gauge where every Weyl unitary factor is real orthogonal, so the
real and imaginary parts of each sector evolve in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fockspace as fs
from . import model as md
from .analyze import TimeSeries
from .errors import ConvergenceError, DomainError, NonHermitianError, PositivityError
from .fockspace import LinOp, QState, SpaceSpec

# ms; on the 600 us noisy Landau record at n_max 10, a 1 us split step is
# within 1.9e-9 of a converged reference (1.5 us: 9.8e-9, 3 us: 1.6e-7)
DT_MAX_DEFAULT = 1e-3


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid with an integrator substep cap."""

    t_start: float  # ms
    t_end: float  # ms
    n_samples: int
    dt_max: float = DT_MAX_DEFAULT  # ms

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise DomainError("t_start and t_end must be finite")
        if self.t_end <= self.t_start:
            raise DomainError("t_end must exceed t_start")
        if self.n_samples < 2:
            raise DomainError("need at least two samples")
        if not self.dt_max > 0:
            raise DomainError("dt_max must be positive")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


@dataclass(frozen=True)
class NoiseSpec:
    """Mode dephasing times in ms; math.inf switches a channel off."""

    tau_d_x: float = math.inf
    tau_d_y: float = math.inf

    def __post_init__(self):
        if not (self.tau_d_x > 0 and self.tau_d_y > 0):
            raise DomainError("dephasing times must be positive (inf for none)")

    @classmethod
    def from_params(cls, params) -> "NoiseSpec":
        return cls(tau_d_x=params.tau_d_x, tau_d_y=params.tau_d_y)


# series the propagators add to their results; no observable may reuse one
MONITORS = ("norm_drift", "trace_drift", "hermiticity", "min_eig")

SECTOR_CHUNK = 16  # samples the unitary path propagates at once


def _check_inputs(h: LinOp, state: QState, observables: dict[str, LinOp]):
    # written as `not <=` so that a NaN fails the check
    if not h.hermiticity_defect() <= 1e-9:
        raise NonHermitianError("Hamiltonian is not Hermitian within 1e-9")
    if state.space != h.space:
        raise DomainError("state and Hamiltonian live on different spaces")
    for label, obs in observables.items():
        if label in MONITORS:
            raise DomainError(f"observable label {label!r} is a monitor name")
        if obs.space != h.space:
            raise DomainError(f"observable {label!r} lives on another space")
        if not obs.hermiticity_defect() <= 1e-9:
            raise NonHermitianError(f"observable {label!r} is not Hermitian")


def _series(grid: TimeGrid, label: str, values: np.ndarray) -> TimeSeries:
    """Real series of one expectation; refuses an imaginary residual."""
    residual = np.abs(np.imag(values)).max()
    if residual > 1e-9:
        raise NonHermitianError(f"<{label}> has imaginary residual {residual:.2e}")
    return TimeSeries(grid.times, np.real(values), label)


def _in_sectors(label, terms, m, basis, keep):
    """An observable's products (A, B'), B' = V^dag B V on the kept sectors.

    B' is its diagonal when B commutes with p_y, whose spectrum is simple.
    """
    if label in MONITORS:
        raise DomainError(f"observable label {label!r} is a monitor name")
    p_y, v = basis
    out = []
    for a, b in terms:
        if a.shape != (m, m) or b.shape != p_y.shape:
            raise DomainError(f"observable {label!r} lives on another space")
        if not all(np.abs(f - f.conj().T).max() <= 1e-9 for f in (a, b)):
            raise NonHermitianError(f"observable {label!r} is not Hermitian")
        b_v = v.conj().T @ b @ v
        diagonal = np.array_equal(b @ p_y, p_y @ b)
        out.append((a, np.diagonal(b_v)[keep] if diagonal else b_v[np.ix_(keep, keep)]))
    return out


def evolve_unitary(
    params, state: QState, grid: TimeGrid, observables: dict[str, list]
) -> dict[str, TimeSeries]:
    """Expectation series of each observable under the Weyl Hamiltonian.

    H (`model.weyl_terms`) conserves p_y on the truncated space.  Mode y of
    the pure two-mode input is rotated into p_y's eigenbasis V; sector k,
    the qubit (x) mode-x vector phi_k, is dropped if ||phi_k|| < 1e-16, else
    its H_k is diagonalized once and applied exactly at every sample.  An
    observable is a list of products (A, B), A on qubit (x) mode x and B on
    mode y; with B' = V^dag B V, <A (x) B>(t) = sum_kl B'_kl
    <phi_k(t)|A|phi_l(t)>, only k = l if B commutes with p_y.  SECTOR_CHUNK
    samples are held at a time.  `norm_drift` is |norm - 1| per sample;
    above 1e-6 it raises ConvergenceError.
    """
    space = state.space
    if state.kind != "pure" or not isinstance(space, SpaceSpec):
        raise DomainError("evolve_unitary propagates pure two-mode states only")
    m, dy = 2 * (space.n_max_x + 1), space.n_max_y + 1
    basis = fs.mode_matrix(dy, "momentum"), fs.quadrature_eigenbasis(dy, "momentum")[1]
    phi = state.data.reshape(m, dy) @ basis[1].conj()
    keep = np.flatnonzero(np.linalg.norm(phi, axis=0) >= 1e-16)
    ops = {k: _in_sectors(k, v, m, basis, keep) for k, v in observables.items()}
    # H_k = sum_j B'_j[k] A_j is real symmetric in the qubit basis
    # (|+z>, i|-z>), where a real eigh is about 2.5x cheaper: U_k = S W_k
    # with S = diag(1, i)
    spin_phase = np.repeat([1, 1j], m // 2)
    h_terms = _in_sectors("H", md.weyl_terms(space, params), m, basis, keep)
    a_real = [(spin_phase.conj()[:, None] * a * spin_phase).real for a, _ in h_terms]
    b_real = [b.real for _, b in h_terms]
    evals, w = np.linalg.eigh(np.einsum("jk,jab->kab", b_real, a_real))
    coeffs = np.einsum("kji,jk->ki", w, spin_phase.conj()[:, None] * phi[:, keep])

    times = grid.times - grid.t_start
    # on a uniform grid every chunk's phases are the first chunk's times
    # the phase of its first sample
    steps = np.exp(-1j * evals[:, :, None] * times[:SECTOR_CHUNK])
    values = {label: np.empty(grid.n_samples, dtype=complex) for label in ops}
    norms = np.empty(grid.n_samples)
    for start in range(0, grid.n_samples, SECTOR_CHUNK):
        now = slice(start, min(start + SECTOR_CHUNK, grid.n_samples))
        n = now.stop - start
        x = steps[:, :, :n] * (coeffs * np.exp(-1j * evals * times[start]))[:, :, None]
        # psi[k, :, s] = phi_k(t_s) = S W_k x_k(t_s), with one real product
        # for the real and imaginary parts of x
        both = w @ np.concatenate([x.real, x.imag], axis=2)
        psi = spin_phase[:, None] * (both[:, :, :n] + 1j * both[:, :, n:])
        bra = psi.conj()
        norms[now] = np.sqrt((bra * psi).real.sum(axis=(0, 1)))
        for label, terms in ops.items():
            total = 0
            for a, b in terms:
                a_psi = a @ psi
                if b.ndim == 1:
                    a_psi *= b[:, None, None]
                else:  # B' couples the sectors
                    a_psi = (b @ a_psi.reshape(len(b), -1)).reshape(psi.shape)
                total = total + (bra * a_psi).sum(axis=(0, 1))
            values[label][now] = total / norms[now] ** 2
    drift = np.abs(norms - 1.0)
    bad = np.flatnonzero(~(drift <= 1e-6))
    if bad.size:
        raise ConvergenceError(f"norm drift {drift[bad[0]]:.2e} at sample {bad[0]}")
    values["norm_drift"] = drift
    return {label: _series(grid, label, v) for label, v in values.items()}


def _dephasing_mask(space, noise: NoiseSpec) -> np.ndarray:
    """Elementwise rate matrix of the number-operator dephasing channels.

    The jump operators a^dag a are diagonal in the Fock basis, so the full
    dissipator acts on rho elementwise:
    drho[a,b] = -sum_j (n_j[a] - n_j[b])^2 / tau_j * rho[a,b];
    a channel with tau_j = inf contributes zero.
    """
    mask = np.zeros((space.dim, space.dim))
    for mode, tau in zip(space.modes, (noise.tau_d_x, noise.tau_d_y)):
        nvec = np.diag(fs.number_operator(space, mode).matrix).real
        mask -= np.subtract.outer(nvec, nvec) ** 2 / tau
    return mask


def _parity(space) -> np.ndarray:
    """Diagonal of P = sigma_z (-1)^(n_x + n_y), one sign per basis state.

    Every Hamiltonian weylsim builds flips the spin together with one
    occupation number, so it commutes with P; the number-operator jump
    operators are diagonal and commute with it too.
    """
    sign = np.array([1.0, -1.0])
    for d in space.mode_dims:
        sign = np.kron(sign, (-1.0) ** np.arange(d))
    return sign


# exact powers of i: phases from exp(i pi n / 2) carry 1e-16 residues,
# which leave G^dag H G a real part
I_POWERS = np.array([1, 1j, -1, -1j])


def _gauge(space) -> np.ndarray:
    """Diagonal of G = diag(1, i) (x) i^n_x (x) 1, one phase per basis state.

    Every Weyl Hamiltonian is imaginary in this gauge: G^dag H G = iB with
    B real antisymmetric, because the gauge makes sigma_x and x imaginary and
    sigma_y and p_x real, while p_y is imaginary already.  The number
    operators and P stay diagonal and real.
    """
    rest = math.prod(space.mode_dims[1:])
    power = np.add.outer(np.arange(2), np.arange(space.mode_dims[0]))
    return np.repeat(I_POWERS[power.ravel() % 4], rest)


# Yoshida's triple jump: S4(dt) = S2(W1 dt) S2(W0 dt) S2(W1 dt) is 4th order
W1 = 1 / (2 - 2 ** (1 / 3))
W0 = 1 - 2 * W1  # negative


def evolve_lindblad(
    h: LinOp,
    noise: NoiseSpec,
    state: QState,
    grid: TimeGrid,
    observables: dict[str, LinOp],
) -> dict[str, TimeSeries]:
    """Expectation series of each observable under dephasing dynamics.

    drho/dt = -i[H, rho] + sum_j (2/tau_j)(N_j rho N_j - {N_j^2, rho}/2)
    with N_j = a_j^dag a_j, integrated by a fixed-step 4th-order split
    step: Yoshida's triple jump over the Strang step
    S2(h) = D(h/2) U(h) D(h/2).  U maps rho_ab to U_a rho_ab U_b^dag with
    the exact U_a = exp(-i H_a h) from one eigendecomposition per block;
    D is the exact elementwise dephasing factor exp(mask h).

    If H has no entry between the two P-sectors (P from `_parity`), the
    blocks are those sectors: rho_++ and rho_-- always evolve, rho_+- only
    if some observable has a P-odd part (rho_-+ is its adjoint).  Otherwise
    the whole space is one block.  Only the current blocks are held.  A
    pure input is promoted to a rank-1 density matrix.

    H, the input and the observables are taken to the gauge G of `_gauge`,
    which leaves D, the blocks and every expectation unchanged.  If G^dag H G
    has no real part, as for every Weyl H, each U is real orthogonal, so the
    real and imaginary parts of each block evolve apart in real arithmetic;
    an imaginary part that starts at zero stays zero and is dropped (as for
    the landau default |+z>|i>|0>).  Otherwise each block evolves complex.

    At every sample the observables are evaluated on the Hermitian,
    trace-normalized part of the evolved state: the P-pinched
    rho_++ + rho_-- (which has the same P-even expectations as the input)
    unless rho_+- evolves.  The result also holds the monitor margins of
    that state: `trace_drift` |Tr rho - 1| (above 1e-6 raises
    ConvergenceError), `hermiticity` max |rho - rho^dag|, and `min_eig`,
    the least eigenvalue of its Hermitian part, taken per block when
    pinched (below -1e-6 raises PositivityError).  U is unitary and D
    leaves the diagonal alone, so the trace is conserved to rounding; W0 < 0
    makes the middle D anti-dissipative, so positivity is monitored, never
    repaired, and a step whose D overflows raises ConvergenceError.
    """
    _check_inputs(h, state, observables)
    parity = _parity(h.space)
    odd = np.not_equal.outer(parity, parity)
    if np.any(h.matrix[odd]):
        blocks = [np.arange(h.dim)]
    else:
        blocks = [np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)]
    pieces = [(a, a) for a in range(len(blocks))]
    coherent = len(blocks) == 2 and any(
        np.any(obs.matrix[odd]) for obs in observables.values()
    )
    if coherent:
        pieces.append((0, 1))

    def block(m, a, b):
        return m[np.ix_(blocks[a], blocks[b])]

    phase = _gauge(h.space)

    def gauged(m):
        return phase.conj()[:, None] * m * phase

    h_g = gauged(h.matrix)
    real = not np.any(h_g.real)

    seg = grid.times[1] - grid.times[0]
    n_sub = max(1, math.ceil(seg / grid.dt_max))
    dt = seg / n_sub
    steps = []  # per block: U(W1 dt), U(W0 dt) and their adjoints
    for a in range(len(blocks)):
        evals, evecs = np.linalg.eigh(block(h_g, a, a))
        u1, u0 = (
            (evecs * np.exp(-1j * w * dt * evals)) @ evecs.conj().T for w in (W1, W0)
        )
        if real:  # exp(B w dt), real orthogonal up to rounding
            u1, u0 = np.ascontiguousarray(u1.real), np.ascontiguousarray(u0.real)
        steps.append((u1, u0, u1.conj().T, u0.conj().T))
    mask = _dephasing_mask(h.space, noise)
    # D over the outer half step, the two fused inner ones, and the fused
    # half steps where one S4 step meets the next; W0 < 0 makes the inner
    # one grow, so it overflows first when dt is far too large for the taus
    with np.errstate(over="ignore"):
        damping = [
            [np.exp(block(mask, a, b) * s * dt) for s in (W1 / 2, (W1 + W0) / 2, W1)]
            for a, b in pieces
        ]
    if not all(np.isfinite(f).all() for factors in damping for f in factors):
        raise ConvergenceError(
            f"dephasing factor overflows at substep {dt * 1e3:.3g} us with "
            f"tau_d_x = {noise.tau_d_x:g} ms, tau_d_y = {noise.tau_d_y:g} ms"
        )
    rho = gauged(state.to_density())
    # the propagated terms (piece, unit, array); each piece is the sum of
    # its terms' unit * array
    terms = []
    for i, (a, b) in enumerate(pieces):
        r = block(rho, a, b)
        if not real:
            terms.append((i, 1, r))
            continue
        terms.append((i, 1, np.ascontiguousarray(r.real)))
        if np.any(r.imag):
            terms.append((i, 1j, np.ascontiguousarray(r.imag)))

    views = [np.arange(h.dim)] if coherent else blocks
    ops = {
        label: [gauged(obs.matrix)[np.ix_(v, v)] for v in views]
        for label, obs in observables.items()
    }
    values = {label: np.empty(grid.n_samples, dtype=complex) for label in observables}
    values |= {m: np.empty(grid.n_samples) for m in MONITORS if m != "norm_drift"}
    for k in range(grid.n_samples):
        if k:
            for j, (i, unit, r) in enumerate(terms):
                a, b = pieces[i]
                u1, u0 = steps[a][:2]
                v1, v0 = steps[b][2:]
                edge, inner, join = damping[i]
                r = r * edge
                for s in range(n_sub):
                    r = u1 @ r @ v1
                    r *= inner
                    r = u0 @ r @ v0
                    r *= inner
                    r = u1 @ r @ v1
                    r *= join if s < n_sub - 1 else edge
                terms[j] = i, unit, r
        current = [0] * len(pieces)
        for i, unit, r in terms:
            current[i] = current[i] + unit * r
        diagonal = current[: len(blocks)]
        parts = [(r + r.conj().T) / 2 for r in diagonal]
        if coherent:
            (plus, minus), off = blocks, current[2]
            full = np.empty((h.dim, h.dim), dtype=np.result_type(off, *parts))
            full[np.ix_(plus, plus)], full[np.ix_(minus, minus)] = parts
            full[np.ix_(plus, minus)] = off
            full[np.ix_(minus, plus)] = off.conj().T
            parts = [full]
        trace = sum(np.trace(p).real for p in parts)
        drift = abs(trace - 1.0)
        if not drift <= 1e-6:
            raise ConvergenceError(f"trace drift {drift:.2e} at sample {k}")
        min_eig = min(np.linalg.eigvalsh(p).min() for p in parts)
        if not min_eig >= -1e-6:
            raise PositivityError(f"eigenvalue {min_eig:.2e} at sample {k}")
        values["trace_drift"][k] = drift
        values["hermiticity"][k] = max(np.abs(r - r.conj().T).max() for r in diagonal)
        values["min_eig"][k] = min_eig
        for label, op_parts in ops.items():
            values[label][k] = (
                sum(np.einsum("ij,ji->", o, p) for o, p in zip(op_parts, parts)) / trace
            )
    return {label: _series(grid, label, v) for label, v in values.items()}
