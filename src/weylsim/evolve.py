"""Time evolution: exact unitary propagation and dephasing master equation.

The Weyl Hamiltonian exists here only as its decomposition
(`weyl_sectors`): its conserved-p_y sectors, each diagonalized from one
real SVD of its spin-flip block, which is in closed form, one SVD per
+-p_y pair of sectors.  Each propagator is one function of that
decomposition, `(sectors, state, grid, observables)`.  The unitary one
(`evolve_unitary`) applies it to one pure input on one output grid per
call, exactly at every sample; one decomposition serves any number of
calls.  An observable that weighs only each sector's spin populations
(sigma_z, p_y) is a closed-form sum over its transition frequencies,
read with no eigenvector product and no per-sample amplitudes; any other
is read from the eigenvector products in real arithmetic, with no complex
matrix product.  The master equation
(`evolve_lindblad`) is a 4th-order split step (Blanes and Moan's 6-stage
palindromic splitting) of an exact unitary factor, summed from the
sectors, and an exact elementwise dephasing factor.  It runs in a
diagonal gauge where every Weyl unitary factor is real orthogonal, on one
real array that holds the real and imaginary parts of the density
matrix's parity sectors, stepped as a batch; its positivity monitor is a
Cholesky factorization, with an eigenvalue solve only where that breaks
down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fockspace as fs
from . import model as md
from .analyze import TimeSeries
from .errors import ConvergenceError, DomainError, NonHermitianError, PositivityError
from .fockspace import QState, SpaceSpec

# ms; the landau and trajectory defaults sample every 3 us, so each sample
# is one split step.  Max |error| of the 600 us noisy record against a
# 0.2 us reference, with Yoshida's triple jump at 1 us (the previous default)
# for comparison:
#   landau sigma_z, n_max 7:        9.2e-10  (Yoshida 1 us: 1.9e-9)
#   landau sigma_z, n_max 10:       1.06e-9  (1.93e-9)
#   landau sigma_z, n_max 14:       1.20e-9  (2.39e-9)
#   coherent trajectory <x>, n_max 7: 2.0e-10 (2.5e-9)
# Halving the step divides the error by 15.8 at n_max 7 (4th order).
DT_MAX_DEFAULT = 3e-3
# split steps per output interval beyond which a grid is refused: the
# master equation would run for days instead of failing
MAX_SUBSTEPS = 10**6


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
        # the count of `_substeps`, from the fields alone
        interval = (self.t_end - self.t_start) / (self.n_samples - 1)
        if interval / self.dt_max * (1 - 1e-9) > MAX_SUBSTEPS:
            raise DomainError(
                f"the grid needs over {MAX_SUBSTEPS:,} split steps per output "
                f"interval of {interval:g} ms at dt_max = {self.dt_max:g} ms"
            )

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


# series the propagators add to their results; no observable may reuse one
MONITORS = ("norm_drift", "trace_drift", "hermiticity", "min_eig")

# samples the unitary path propagates at once; the population path reads
# SECTOR_CHUNK**2 samples from one product of two phase tables
SECTOR_CHUNK = 16


def _series(grid: TimeGrid, label: str, values: np.ndarray) -> TimeSeries:
    """Real series of one expectation; refuses a non-finite value and an
    imaginary residual above 1e-9."""
    if not np.isfinite(values).all():
        raise ConvergenceError(f"<{label}> is not finite")
    residual = np.abs(np.imag(values)).max()
    if residual > 1e-9:
        raise NonHermitianError(f"<{label}> has imaginary residual {residual:.2e}")
    return TimeSeries(grid.times, np.real(values), label)


def _checked(label: str, terms: list, space: SpaceSpec) -> list:
    """An observable's products (A, B), A on qubit (x) mode x and B on mode y.

    Refuses a monitor name as label, a factor of another space's shape, and
    a factor that is not Hermitian within 1e-9.
    """
    if label in MONITORS:
        raise DomainError(f"observable label {label!r} is a monitor name")
    m, dy = 2 * (space.n_max_x + 1), space.n_max_y + 1
    for a, b in terms:
        if a.shape != (m, m) or b.shape != (dy, dy):
            raise DomainError(f"observable {label!r} lives on another space")
        # written as `not <=` so that a NaN fails the check
        if not all(np.abs(f - f.conj().T).max() <= 1e-9 for f in (a, b)):
            raise NonHermitianError(f"observable {label!r} is not Hermitian")
    return terms


def _in_sectors(terms, basis):
    """An observable's products (A, B'), B' = V^dag B V in p_y's eigenbasis V.

    B' is its diagonal when B commutes with p_y, whose spectrum is simple.
    """
    p_y, v = basis
    out = []
    for a, b in terms:
        b_v = v.conj().T @ b @ v
        diagonal = np.array_equal(b @ p_y, p_y @ b)
        out.append((a, np.diagonal(b_v) if diagonal else b_v))
    return out


def _spin_weights(terms) -> np.ndarray | None:
    """w[:, k] = sum_j B'_j[k] ((a+_j + a-_j) / 2, a+_j - a-_j) if every A_j
    is diag(a+_j 1, a-_j 1) on qubit (x) mode x and every B'_j is a sector
    diagonal, else None.

    Such an observable weighs only each sector's spin populations.  With
    W_k = [[U, U], [V, -V]] / sqrt(2), U and V orthogonal, those are
    |x_k+ + x_k-|^2 / 2 and |x_k+ - x_k-|^2 / 2 for x_k = (x_k+, x_k-), so
    the observable reads sum_k w[0, k] |x_k|^2 + w[1, k] Re<x_k+, x_k->.
    """
    weights = 0
    for a, b in terms:
        spin = np.array([a[0, 0], a[-1, -1]]).real
        if b.ndim != 1 or not np.array_equal(a, np.diag(np.repeat(spin, len(a) // 2))):
            return None
        weights = weights + np.multiply.outer([spin.mean(), spin[0] - spin[1]], b.real)
    return weights if terms else None


@dataclass(frozen=True)
class Sectors:
    """The eigenbasis of each p_y sector of the Weyl Hamiltonian.

    Sector k, the k-th eigenvector of p_y = basis[0] in basis[1], is a
    qubit (x) mode-x space with the eigenvalues evals[k] and the
    eigenvectors S W_k, S = diag(1, i) on the spin and
    W_k = [[U_k, U_k], [V_k, -V_k]] / sqrt(2), from the real orthogonal
    halves U_k = u[k] and V_k = v[k].  The first half of evals[k] is +s,
    the second -s, so a sector's spin populations oscillate at the
    frequencies 2s only.  The sectors at p and -p share their s, and their
    U and V differ by the signs (-1)^n_x (`weyl_sectors`).  Both
    propagators take it in place of the Hamiltonian.
    """

    space: SpaceSpec
    params: md.SimParams  # decomposed; the master equation reads their taus
    basis: tuple[np.ndarray, np.ndarray]
    evals: np.ndarray  # (sectors, m)
    u: np.ndarray  # (sectors, m/2, m/2), real orthogonal
    v: np.ndarray  # (sectors, m/2, m/2), real orthogonal


def _coefficients(sectors: Sectors, state: QState) -> np.ndarray:
    """c_k = W_k^T S^dag phi_k, shape (sectors, m), of the pure input's
    columns phi_k: its mode y rotated into p_y's eigenbasis.

    U_k^T and V_k^T act on the float view of each half of phi_k, its real
    and imaginary parts as an (m/2, 2) array: two real batched products,
    and S^dag multiplies the lower half by -i.
    """
    phi = state.data.reshape(-1, len(sectors.basis[1])) @ sectors.basis[1].conj()
    u, v = sectors.u, sectors.v
    half = u.shape[1]

    def product(w, f):  # W^T f for each sector's column f, on f's float view
        pairs = np.ascontiguousarray(f.T).view(float).reshape(len(w), half, 2)
        return (w.swapaxes(1, 2) @ pairs).reshape(len(w), -1).view(complex)

    up, down = product(u, phi[:half]), -1j * product(v, phi[half:])
    return np.concatenate([up + down, up - down], axis=1) * math.sqrt(0.5)


def weyl_sectors(params: md.SimParams, space: SpaceSpec) -> Sectors:
    """The eigenbasis of every p_y sector of the Weyl H on a two-mode space.

    H = (omega/sqrt(2)) [sigma_x pi_x + sigma_y pi_y], pi_x = p_x and
    pi_y = p_y - r x, is the sum of the four drive tones
    red_x((1-r) omega, pi/2) + blue_x((1+r) omega, pi/2)
    + red_y(omega, pi) + blue_y(omega, 0).  It conserves p_y, also on the
    truncated space.  In the qubit basis (|+z>, i|-z>) its sector at p_y = p
    flips the spin and is real, H(p) = [[0, C(p)], [C(p)^T, 0]] with
    C(p) = (omega/sqrt(2)) [((1-r) a - (1+r) a^dag)/sqrt(2) + p 1] on mode x;
    a real SVD C = U S V^T gives the eigenvalues +-S and the eigenvectors
    W = [[U, U], [V, -V]] / sqrt(2), orthogonal by construction, of which
    `Sectors` keeps U and V.

    p_y's truncated spectrum is symmetric, p_k = -p_(dy-1-k) in eigh's
    ascending order, and C(p) = C_0 + p C_1 with C_0 odd under
    Pi = (-1)^n_x (it holds only a and a^dag) and C_1 a multiple of the
    identity, which is even, so C(-p) = -Pi C(p) Pi.  One batched SVD
    decomposes the representatives min(k, dy-1-k); a mirrored sector takes
    the same S with U -> Pi U and V -> -Pi V.
    """
    if space.n_max_y < 1:
        raise DomainError("the p_y sectors need a two-mode space, n_max_y >= 1")
    dy, half = space.n_max_y + 1, space.n_max_x + 1
    p, vectors = fs.quadrature_eigenbasis(dy, "momentum")
    sector = np.arange(dy)
    rep = np.minimum(sector, dy - 1 - sector)
    scale = params.omega / math.sqrt(2)
    a = fs.mode_matrix(half, "lower").real
    c0 = scale * ((1 - params.r) * a - (1 + params.r) * a.T) / math.sqrt(2)
    # the representatives' spin-flip blocks C_0 + p C_1
    c = c0 + p[: (dy + 1) // 2, None, None] * (scale * np.eye(half))
    u, s, vt = np.linalg.svd(c)
    # a mirrored sector's U and V take the row signs Pi and -Pi
    parity = (-1.0) ** np.arange(half)
    signs = np.where((sector > rep)[:, None, None], [parity, -parity], 1.0)
    u = u[rep] * signs[:, 0, :, None]
    v = np.swapaxes(vt, 1, 2)[rep] * signs[:, 1, :, None]
    s = s[rep]
    basis = fs.mode_matrix(dy, "momentum"), vectors
    return Sectors(space, params, basis, np.concatenate([s, -s], axis=1), u, v)


def _population_values(sectors: Sectors, coeffs, weights: dict, times) -> dict:
    """Series of each population observable (`_spin_weights`), unnormalized.

    With x_k(t) = exp(-i E_k t) c_k and E_k = (s_k, -s_k), |x_k|^2 = |c_k|^2
    and Re<x_k+, x_k-> = Re sum_i conj(c+_ki) c-_ki exp(2i s_ki t), so each
    value is sum_k w0_k |c_k|^2 + Re sum_j a_j exp(i f_j t) over
    J = K m / 2 terms j = (k, i), a_j = w1_k conj(c+_ki) c-_ki, f_j = 2 s_ki;
    terms of one frequency are summed first, which about halves J, because
    the sectors at +-p_y share their s (`weyl_sectors`).
    On the uniform grid t_(aB+b) = t_(aB) + t_b, B = SECTOR_CHUNK: a (J, B)
    table of the first B samples, folded with every observable's a_j, and
    a (B, J) table of B chunk starts give B^2 samples of every observable
    from one real matrix product, in memory of order B J.
    """
    if not weights:
        return {}
    evals = sectors.evals
    half = coeffs.shape[1] // 2
    w = np.array(list(weights.values()))  # (observables, 2, sectors)
    steady = w[:, 0] @ np.einsum("ki,ki->k", coeffs.conj(), coeffs).real
    amps = (w[:, 1, :, None] * (coeffs[:, :half].conj() * coeffs[:, half:])).reshape(
        len(w), -1
    )
    freqs = 2 * evals[:, :half].ravel()
    order = np.argsort(freqs, kind="stable")
    freqs = freqs[order]
    distinct = np.flatnonzero(np.concatenate([[True], freqs[1:] != freqs[:-1]]))
    freqs, amps = freqs[distinct], np.add.reduceat(amps[:, order], distinct, axis=1)
    offsets = times[:SECTOR_CHUNK]
    # T_jb = a_j exp(i f_j t_b) per observable, shape (J, observables * B)
    table = np.exp(1j * np.outer(freqs, offsets))[:, None] * amps.T[:, :, None]
    table = table.reshape(len(freqs), -1)
    # Re(exp(i f_j t_a) T_jb) = cos(f_j t_a) Re T_jb - sin(f_j t_a) Im T_jb:
    # one real product with the phases' float view, in which cos and sin
    # alternate (a complex GEMM would load ~0.45 MB more of BLAS for it)
    table = np.stack([table.real, -table.imag], axis=1).reshape(2 * len(freqs), -1)
    starts = times[:: len(offsets)]
    out = np.empty((len(w), len(starts), len(offsets)))
    for first in range(0, len(starts), SECTOR_CHUNK):
        rows = slice(first, first + SECTOR_CHUNK)
        phases = np.exp(1j * np.outer(starts[rows], freqs)).view(float)
        block = (phases @ table).reshape(len(phases), len(w), len(offsets))
        out[:, rows] = block.swapaxes(0, 1)
    out = out.reshape(len(w), -1)[:, : len(times)]
    return {label: steady[i] + out[i] for i, label in enumerate(weights)}


def _real_parts(f) -> tuple:
    """(R, I) of a factor f = R + iI, each None where it is zero."""
    return tuple(part if np.any(part) else None for part in (f.real, f.imag))


def _apply(parts, z, matmul) -> np.ndarray:
    """(R + iI) z for a complex z held as its float view, real and imaginary
    parts interleaved on the last axis: one real product per nonzero part."""
    re, im = parts
    out = np.zeros_like(z) if re is None else matmul(re, z)
    if im is not None:
        i_im = matmul(im, z).view(complex)
        i_im *= 1j
        out = i_im.view(float) if re is None else out + i_im.view(float)
    return out


def _on_sectors(b, z) -> np.ndarray:
    """A real (sectors, sectors) factor applied on the sector axis of z."""
    return (b @ z.reshape(len(b), -1)).reshape(z.shape)


def _phases(st) -> np.ndarray:
    """exp(-i E t) for the eigenvalues E = (s, -s) of the sectors, from the
    angles s t, shape (sectors, m/2, samples): the -s half is the conjugate."""
    phases = np.exp(-1j * st)
    return np.concatenate([phases, phases.conj()], axis=1)


def _product_values(sectors: Sectors, coeffs, ops: dict, times) -> dict:
    """Series of each observable from phi_k = S W_k x_k, unnormalized, in
    real arithmetic.

    Each A is taken once to A' = S^dag A S, so that
    <phi_k|A|phi_l> = <psi_k|A'|psi_l> with psi_k = W_k x_k, and split
    into its real and imaginary parts, each applied as a real product only
    if it is nonzero; an identity A' takes none.  psi_k is
    [U (x+ + x-); V (x+ - x-)] / sqrt(2): two half-size real products on
    the float view of x_k, which hold its real and imaginary parts
    interleaved and return psi_k's the same way.  A sector-diagonal B'
    weighs the per-sector sums Re<psi_k|A' psi_k>; a coupling B' (y) is
    applied on the sector axis, a real product for each nonzero part.
    SECTOR_CHUNK samples are held at a time; on the uniform grid each
    chunk's amplitudes are the first chunk's, times the phase of the
    chunk's own first sample.
    """
    if not ops:
        return {}
    u, v = sectors.u, sectors.v
    half = u.shape[1]
    s = sectors.evals[:, :half, None]
    spin_phase = np.repeat([1, 1j], half)
    eye = np.eye(2 * half)
    factors = {}
    for label, terms in ops.items():
        factors[label] = []
        for a, b in terms:
            a = spin_phase.conj()[:, None] * a * spin_phase
            a = None if np.array_equal(a, eye) else _real_parts(a)
            factors[label].append((a, b.real if b.ndim == 1 else _real_parts(b)))
    steps = _phases(s * times[:SECTOR_CHUNK])
    coeffs = coeffs[:, :, None] * math.sqrt(0.5)  # W_k's 1 / sqrt(2)
    values = {label: np.empty(len(times)) for label in ops}
    for start in range(0, len(times), SECTOR_CHUNK):
        now = slice(start, min(start + SECTOR_CHUNK, len(times)))
        n = now.stop - start
        x = steps[:, :, :n] * (coeffs * _phases(s * times[start]))
        top, bottom = x.view(float)[:, :half], x.view(float)[:, half:]
        psi = np.concatenate([u @ (top + bottom), v @ (top - bottom)], axis=1)
        for label, terms in factors.items():
            total = np.zeros(2 * n)
            for a, b in terms:
                a_psi = psi if a is None else _apply(a, psi, np.matmul)
                if isinstance(b, np.ndarray):  # sector-diagonal
                    total += b @ np.einsum("kit,kit->kt", psi, a_psi)
                else:
                    total += np.einsum("kit,kit->t", psi, _apply(b, a_psi, _on_sectors))
            values[label][now] = total[0::2] + total[1::2]
    return values


def evolve_unitary(
    sectors: Sectors, state: QState, grid: TimeGrid, observables: dict[str, list]
) -> dict[str, TimeSeries]:
    """Expectation series of each observable on the evolved pure input.

    Mode y of the input, rotated into p_y's eigenbasis, gives each
    sector's vector phi_k and its coefficients c_k = W_k^T S^dag phi_k
    (`_coefficients`), which evolve as x_k(t) = exp(-i evals_k t) c_k.
    An observable is a list of products (A, B), A on qubit (x) mode x and B
    on mode y; with B' = V^dag B V, <A (x) B>(t) = sum_kl B'_kl
    <phi_k(t)|A|phi_l(t)>, only k = l if B commutes with p_y.  If every A
    is also diag(a+ 1, a- 1) (sigma_z, or 1 for p_y), the value is
    sum_k B'_k [(a+ + a-)/2 |x_k|^2 + (a+ - a-) Re<x_k+, x_k->], a
    closed-form sum over the J = K m / 2 transition frequencies 2s, read as
    one real matrix product per SECTOR_CHUNK**2 samples
    (`_population_values`).
    Only the other observables form x_k(t) and W_k x_k, SECTOR_CHUNK
    samples at a time, and read them in real arithmetic with S folded into
    each A (`_product_values`).  Each grid starts from the input at
    grid.t_start.

    Every phase has unit modulus, so |x_k(t)| = ||c_k|| at every sample:
    `norm_drift` is |||c|| - 1|, which still sees a defect of W; above 1e-6
    it raises ConvergenceError, as do non-finite eigenvalues or
    coefficients, before any sample is read.
    """
    if state.kind != "pure" or state.space != sectors.space:
        raise DomainError("the input is not a pure state on the sectors' space")
    coeffs = _coefficients(sectors, state)
    if not (np.isfinite(sectors.evals).all() and np.isfinite(coeffs).all()):
        raise ConvergenceError("the sector eigenvalues or coefficients are not finite")
    norm = np.linalg.norm(coeffs)
    drift = abs(norm - 1.0)
    if drift > 1e-6:
        raise ConvergenceError(f"norm drift {drift:.2e} of the sector coefficients")
    ops = {
        k: _in_sectors(_checked(k, v, sectors.space), sectors.basis)
        for k, v in observables.items()
    }
    weights = {label: _spin_weights(terms) for label, terms in ops.items()}
    times = grid.times - grid.t_start
    populations = {k: wt for k, wt in weights.items() if wt is not None}
    products = {k: ops[k] for k, wt in weights.items() if wt is None}
    values = _population_values(sectors, coeffs, populations, times)
    values |= _product_values(sectors, coeffs, products, times)
    values = {label: values[label] / norm**2 for label in ops}
    values["norm_drift"] = np.full(grid.n_samples, drift)
    return {label: _series(grid, label, v) for label, v in values.items()}


def _dephasing_mask(space, params) -> np.ndarray:
    """Elementwise rate matrix of the number-operator dephasing channels.

    The jump operators a^dag a are diagonal in the Fock basis, so the full
    dissipator acts on rho elementwise:
    drho[a,b] = -sum_j (n_j[a] - n_j[b])^2 / tau_j * rho[a,b];
    a channel with tau_j = inf contributes zero.
    """
    _, n_x, n_y = np.indices((2, *space.mode_dims)).reshape(3, -1)
    mask = np.zeros((space.dim, space.dim))
    for n, tau in ((n_x, params.tau_d_x), (n_y, params.tau_d_y)):
        mask -= np.subtract.outer(n, n) ** 2 / tau
    return mask


def _blocks(space) -> list[np.ndarray]:
    """Basis indices of the P = +1 and P = -1 sectors, P = sigma_z (-1)^(n_x + n_y).

    The Weyl H flips the spin together with one occupation number, so it
    commutes with P; the number-operator jump operators are diagonal and
    commute with it too.  Each sector lists its spin +z states first.
    """
    s, n_x, n_y = np.indices((2, *space.mode_dims)).reshape(3, -1)
    parity = (-1) ** (s + n_x + n_y)
    return [np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)]


# exact powers of i: phases from exp(i pi n / 2) carry 1e-16 residues,
# which leave G^dag H G a real part
I_POWERS = np.array([1, 1j, -1, -1j])


def _gauge(space) -> np.ndarray:
    """Diagonal of G = diag(1, i) (x) i^n_x on qubit (x) mode x; G is 1 on mode y.

    Every Weyl Hamiltonian is imaginary in this gauge: G^dag H G = iB with
    B real antisymmetric, because the gauge makes sigma_x and x imaginary and
    sigma_y and p_x real, while p_y is imaginary already.  The number
    operators and P stay diagonal and real.
    """
    power = np.add.outer(np.arange(2), np.arange(space.n_max_x + 1))
    return I_POWERS[power.ravel() % 4]


def _gauged_block(terms, space, rows, cols) -> np.ndarray:
    """Block [rows, cols] of G^dag (sum_j A_j (x) B_j) G."""
    phase, dy = _gauge(space), space.n_max_y + 1
    (ra, rb), (ca, cb) = divmod(rows, dy), divmod(cols, dy)
    return sum(
        phase.conj()[ra, None] * a[np.ix_(ra, ca)] * phase[ca] * b[np.ix_(rb, cb)]
        for a, b in terms
    )


# Blanes & Moan's palindromic 6-stage 4th-order splitting (J. Comput. Appl.
# Math. 142 (2002) 313), D outermost:
# D(a1) U(b1) D(a2) U(b2) D(a3) U(b3) D(a4) U(b3) D(a3) U(b2) D(a2) U(b1) D(a1)
D_WEIGHTS = (0.0792036964311957, 0.353172906049774, -0.0420650803577195)
D_WEIGHTS += (1 - 2 * sum(D_WEIGHTS),)
U_WEIGHTS = (0.209515106613362, -0.143851773179818)
U_WEIGHTS += (0.5 - sum(U_WEIGHTS),)
# (U weight, following D weight) of the six stages that follow D(a1)
STAGES = ((0, 1), (1, 2), (2, 3), (2, 2), (1, 1), (0, 0))

# |Tr rho - 1| above this raises.  U is orthogonal and D leaves the diagonal
# alone, so only rounding moves the trace: on noisy landau at the default
# step the worst drift is 3.7e-14 at n_max 10 and 8.5e-14 at n_max 19 over
# 600 us, and 2.2e-14 at n_max 30 over the first 100 us
TRACE_DRIFT_MAX = 2e-10


def _gauged_pieces(state: QState, rows, cols) -> np.ndarray:
    """The gauged input's blocks [rows, cols] as one real (pieces, parts, h, h)
    array; the imaginary part is a second part only if there is one."""
    phase = np.repeat(_gauge(state.space), state.space.n_max_y + 1)
    rho = (phase.conj()[:, None] * state.to_density() * phase)[rows, cols]
    return np.stack([rho.real, rho.imag] if np.any(rho.imag) else [rho.real], axis=1)


def _split_factors(sectors: Sectors, dt: float) -> np.ndarray:
    """exp(B b dt) on each P-sector for each b of U_WEIGHTS, real orthogonal.

    The result has shape (weight, block, h, h): both sectors hold h = d/2
    states, because flipping the spin flips P.

    H exists only as its sectors (`weyl_sectors`): sector k propagates as
    the real orthogonal
    Q_k(t) = S W_k exp(-i E_k t) W_k^T S^dag
           = [[U cos(s t) U^T, -U sin(s t) V^T], [V sin(s t) U^T, V cos(s t) V^T]],
    so exp(-iHt) = sum_k Q_k (x) P_k, P_k the projector on p_y's k-th
    eigenvector.  In the gauge G (`_gauge`, 1 on mode y) it is the real
    exp(B t), G^dag H G = iB: for each weight one real product over the
    stacked sector axis sums Re(G^dag Q_k G) (x) Re P_k and
    -Im(G^dag Q_k G) (x) Im P_k.
    """
    u, v, phi = sectors.u, sectors.v, sectors.basis[1]
    gauged = _gauge(sectors.space).conj() * np.repeat([1, 1j], u.shape[1])  # G^dag S
    w = gauged[:, None] * np.block([[u, u], [v, -v]])  # sqrt(2) G^dag S W_k
    phases = np.exp(-1j * np.multiply.outer(U_WEIGHTS, sectors.evals * dt))
    q = (w * phases[:, :, None]) @ w.conj().swapaxes(1, 2) / 2  # G^dag Q_k G
    m, dy = q.shape[-1], len(phi)
    q = np.concatenate([q.real, -q.imag], axis=1).reshape(len(U_WEIGHTS), 2 * dy, -1)
    projectors = np.einsum("ak,bk->kab", phi, phi.conj()).reshape(dy, -1)
    projectors = np.concatenate([projectors.real, projectors.imag])
    # block entry (i, j) is [a_i, a_j, n_i, n_j] for rows a dy + n, one weight at a time
    a, n = divmod(np.array(_blocks(sectors.space))[:, :, None], dy)
    ij = a, a.swapaxes(1, 2), n, n.swapaxes(1, 2)
    return np.stack([(q_b.T @ projectors).reshape(m, m, dy, dy)[ij] for q_b in q])


def _substeps(grid: TimeGrid) -> int:
    """Split steps per output interval: the fewest of length <= dt_max.

    An interval that exceeds dt_max by rounding alone (relative 1e-9) takes
    one step, not two.
    """
    seg = grid.times[1] - grid.times[0]
    return max(1, math.ceil(seg / grid.dt_max * (1 - 1e-9)))


def _min_eig(parts: np.ndarray, sample: int) -> float:
    """min(lambda_min, 0) over the stacked Hermitian `parts`.

    Below -1e-6 (or NaN) it raises PositivityError.  A Cholesky factor that
    completes with finite entries certifies every part positive definite up
    to a few rounding units of its norm (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), so the margin is 0 with no eigenvalue
    computed; only a part on which the factorization breaks down (a pure or
    rank-deficient state, or a negative eigenvalue) costs an eigvalsh.  The
    factor's entries are checked because the factorization completes
    through a NaN off the diagonal; on such parts eigvalsh may raise
    instead of returning NaN, so they read NaN without it.
    """
    try:
        if np.isfinite(np.linalg.cholesky(parts)).all():
            return 0.0
    except np.linalg.LinAlgError:
        pass
    finite = np.isfinite(parts).all()
    margin = min(np.linalg.eigvalsh(parts).min(), 0.0) if finite else math.nan
    if not margin >= -1e-6:
        raise PositivityError(f"eigenvalue {margin:.2e} at sample {sample}")
    return margin


def evolve_lindblad(
    sectors: Sectors, state: QState, grid: TimeGrid, observables: dict[str, list]
) -> dict[str, TimeSeries]:
    """Expectation series of each observable under the Weyl Hamiltonian with dephasing.

    drho/dt = -i[H, rho] + sum_j (2/tau_j)(N_j rho N_j - {N_j^2, rho}/2)
    with H decomposed in `sectors`, N_j = a_j^dag a_j and tau_j from
    `sectors.params.tau_d_x` and `.tau_d_y` (inf switches a channel off),
    integrated by a fixed-step 4th-order split step, Blanes and Moan's
    palindromic 6-stage splitting with D outermost (D_WEIGHTS, U_WEIGHTS):
    seven D and six U factors per step of at most grid.dt_max, the fewest
    steps that fit each output interval (`_substeps`).  U(b h) maps rho_ab
    to U_a rho_ab U_b^T, U_a exact, real orthogonal and summed from the
    sectors (`_split_factors`); D(a h) is the exact elementwise dephasing
    factor exp(mask a h).  Observables are products (A, B) as for
    `evolve_unitary`; a pure input is promoted to a rank-1 density matrix.

    The input and the observables are taken to the gauge G of `_gauge`,
    which leaves D, the P-sectors (`_blocks`) and every expectation
    unchanged.  There the evolved state is one real array of shape
    (pieces, parts, h, h), h = d/2, which each substep advances whole.  The
    pieces are rho_++ and rho_--, and rho_+- only if some observable has a
    P-odd part (rho_-+ is its adjoint); the parts are the real part, and the
    imaginary part only if the gauged input has one (the landau default
    |+z>|i>|0> has none).

    At every sample the observables are evaluated on the Hermitian,
    trace-normalized part of the evolved state: the P-pinched
    rho_++ + rho_-- (which has the same P-even expectations as the input),
    or, if rho_+- evolves, the coherent [[rho_++, rho_+-], [rho_+-^dag,
    rho_--]] in block order, with the observables permuted to match.  The
    result also holds the monitor margins of that state: `trace_drift`
    |Tr rho - 1| (above TRACE_DRIFT_MAX raises ConvergenceError),
    `hermiticity` max |rho_aa - rho_aa^dag|, and `min_eig`, the least
    eigenvalue of its Hermitian part clipped at 0, over the blocks when
    pinched (below -1e-6 raises PositivityError; `_min_eig`).  It is 0
    wherever a Cholesky factorization certifies the state positive
    definite, and only elsewhere (a pure input's first samples) is the
    eigenvalue computed.  a3 < 0 makes D(a3 h) anti-dissipative, so
    positivity is monitored, never repaired, and a step whose D overflows
    raises ConvergenceError.  Each sample is read with stacked calls: one
    trace, one hermiticity, one Cholesky and one flat dot per observable.
    """
    space, params = sectors.space, sectors.params
    if state.space != space:
        raise DomainError("the input is not a state on the sectors' space")
    observables = {k: _checked(k, v, space) for k, v in observables.items()}
    blocks = _blocks(space)
    coherent = any(
        np.any(_gauged_block(t, space, *blocks)) for t in observables.values()
    )
    pieces = [(0, 0), (1, 1)] + [(0, 1)] * coherent
    left, right = np.array(pieces).T
    rows, cols = np.array(blocks)[left, :, None], np.array(blocks)[right, None, :]

    r = _gauged_pieces(state, rows, cols)
    n_sub = _substeps(grid)
    dt = (grid.times[1] - grid.times[0]) / n_sub
    # U_a(b dt) and U_b(b dt)^T per weight and piece, broadcast over the
    # parts; contiguous transposes multiply faster.  Only u and v are held
    # while stepping
    factors = _split_factors(sectors, dt)[:, :, None]
    u, v = factors[:, left], factors[:, right].swapaxes(-1, -2).copy()
    del factors
    mask = _dephasing_mask(space, params)[rows, cols][:, None]
    # D(a dt) for each a of D_WEIGHTS; a3 < 0 makes D(a3 dt) grow, so it
    # overflows first when dt is far too large for the taus
    with np.errstate(over="ignore"):
        damping = np.exp(np.multiply.outer(D_WEIGHTS, mask * dt))
    if not np.isfinite(damping).all():
        raise ConvergenceError(
            f"dephasing factor overflows at substep {dt * 1e3:.3g} us with "
            f"tau_d_x = {params.tau_d_x:g} ms, tau_d_y = {params.tau_d_y:g} ms"
        )

    # Tr(O p) = sum_ij O^T_ij p_ij: one flat dot per observable and sample
    views = [np.concatenate(blocks)] if coherent else blocks
    ops = {
        label: np.array([_gauged_block(t, space, w, w).T for w in views]).ravel()
        for label, t in observables.items()
    }
    values = {label: np.empty(grid.n_samples, dtype=complex) for label in observables}
    values |= {m: np.empty(grid.n_samples) for m in MONITORS if m != "norm_drift"}
    for k in range(grid.n_samples):
        if k:
            for _ in range(n_sub):
                r *= damping[0]
                for i, j in STAGES:
                    r = u[i] @ r @ v[i]
                    r *= damping[j]
        current = r[:, 0] + 1j * r[:, 1] if r.shape[1] == 2 else r[:, 0]
        diagonal = current[:2]
        adjoint = diagonal.conj().swapaxes(1, 2)
        parts = (diagonal + adjoint) / 2
        if coherent:
            off = current[2]
            parts = np.block([[parts[0], off], [off.conj().T, parts[1]]])[None]
        trace = np.trace(parts, axis1=1, axis2=2).real.sum()
        drift = abs(trace - 1.0)
        if not drift <= TRACE_DRIFT_MAX:
            raise ConvergenceError(f"trace drift {drift:.2e} at sample {k}")
        values["min_eig"][k] = _min_eig(parts, k)
        values["trace_drift"][k] = drift
        values["hermiticity"][k] = np.abs(diagonal - adjoint).max()
        flat = parts.ravel()
        for label, op in ops.items():
            values[label][k] = op @ flat / trace
    return {label: _series(grid, label, v) for label, v in values.items()}
