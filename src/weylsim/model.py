"""Hamiltonians of the simulated particle and their analytic structure.

Energies are carried as angular frequencies in rad/ms throughout; a value
quoted as "2 pi x f kHz" is stored as 2*pi*f.  The dimensionless model
H = sigma_x p_x + sigma_y (p_y - r x) corresponds to the simulator operator
divided by (omega / sqrt(2)); `natural_to_simulator` converts between the
two unit systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fockspace as fs
from .errors import DomainError, TruncationError
from .fockspace import LinOp, QState, SingleModeSpec, SpaceSpec


def khz(value: float) -> float:
    """Angular frequency (rad/ms) of a linear frequency given in kHz."""
    return 2 * math.pi * value


@dataclass(frozen=True)
class SimParams:
    """Physical knobs of a run.

    omega        sideband Rabi frequency, rad/ms
    r            dimensionless synthetic field strength
    omega_probe  probe Rabi frequency, rad/ms (defaults to omega)
    tau_d_x/y    motional dephasing times in ms, math.inf for noiseless
    """

    omega: float
    r: float = 0.0
    omega_probe: float | None = None
    tau_d_x: float = math.inf
    tau_d_y: float = math.inf

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise DomainError("omega must be positive and finite")
        if not 0 <= self.r < math.inf:
            raise DomainError("r must be non-negative and finite")
        if not (self.tau_d_x > 0 and self.tau_d_y > 0):
            raise DomainError("dephasing times must be positive (inf for none)")
        if self.omega_probe is None:
            object.__setattr__(self, "omega_probe", self.omega)
        elif not 0 <= self.omega_probe < math.inf:
            raise DomainError("omega_probe must be non-negative and finite")

    @classmethod
    def from_khz(
        cls,
        omega_khz: float,
        r: float = 0.0,
        omega_probe_khz: float | None = None,
        tau_d_x: float = math.inf,
        tau_d_y: float = math.inf,
    ) -> "SimParams":
        return cls(
            omega=khz(omega_khz),
            r=r,
            omega_probe=None if omega_probe_khz is None else khz(omega_probe_khz),
            tau_d_x=tau_d_x,
            tau_d_y=tau_d_y,
        )


@dataclass(frozen=True)
class ToneSpec:
    """One sideband drive tone."""

    mode: str  # "x" | "y"
    kind: str  # "red" | "blue"
    rabi: float  # rad/ms
    phase: float  # radians, in [0, 2 pi)

    def __post_init__(self):
        if self.mode not in ("x", "y"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.kind not in ("red", "blue"):
            raise DomainError(f"unknown sideband kind {self.kind!r}")
        if self.rabi < 0:
            raise DomainError("rabi must be non-negative")
        if not 0 <= self.phase < 2 * math.pi:
            raise DomainError("phase must lie in [0, 2 pi)")


def sideband_hamiltonian(space: SpaceSpec, tone: ToneSpec) -> LinOp:
    """Single sideband tone rabi [sigma_-(+) a^dag e^{i phase} + h.c.] / 2.

    The red tone carries sigma_minus, the blue tone sigma_plus.
    """
    sigma = fs.pauli(space, "minus" if tone.kind == "red" else "plus")
    adag = fs.mode_lowering(space, tone.mode).dagger()
    half = (tone.rabi / 2) * np.exp(1j * tone.phase) * (sigma @ adag)
    return half + half.dagger()


@lru_cache(maxsize=64)
def weyl_hamiltonian(space: SpaceSpec, params: SimParams) -> LinOp:
    """(omega/sqrt(2)) [sigma_x p_x + sigma_y (p_y - r x)].

    Equals the sum of the four drive tones
    red_x((1-r) omega, pi/2) + blue_x((1+r) omega, pi/2)
    + red_y(omega, pi) + blue_y(omega, 0).
    """
    pi_x, pi_y = kinetic_momentum(space, params)
    sx = fs.pauli(space, "x")
    sy = fs.pauli(space, "y")
    return (params.omega / math.sqrt(2)) * (sx @ pi_x + sy @ pi_y)


def kinetic_momentum(space: SpaceSpec, params: SimParams) -> tuple[LinOp, LinOp]:
    """Kinetic momenta (pi_x, pi_y) = (p_x, p_y - r x) in the field's gauge."""
    px = fs.quadrature(space, "x", "momentum")
    py = fs.quadrature(space, "y", "momentum")
    x = fs.quadrature(space, "x", "position")
    return px, py - params.r * x


_QUADRATURE_TARGETS = {
    "x": ("x", "position"),
    "px": ("x", "momentum"),
    "y": ("y", "position"),
    "py": ("y", "momentum"),
}


def quadrature_target(space: SpaceSpec, target: str) -> LinOp:
    """The quadrature a probe target names: "x", "px", "y" or "py"."""
    if target not in _QUADRATURE_TARGETS:
        raise DomainError(f"unknown quadrature target {target!r}")
    return fs.quadrature(space, *_QUADRATURE_TARGETS[target])


@lru_cache(maxsize=64)
def probe_hamiltonian(space: SpaceSpec, params: SimParams, target: str) -> LinOp:
    """(omega_probe/sqrt(2)) sigma_y Q for the chosen quadrature Q."""
    q = quadrature_target(space, target)
    return (params.omega_probe / math.sqrt(2)) * (fs.pauli(space, "y") @ q)


@lru_cache(maxsize=64)
def transformed_hamiltonian(space: SingleModeSpec, params: SimParams) -> LinOp:
    """Single-mode form omega sqrt(r) (i sigma_+ a^dag - i sigma_- a).

    Unitarily equivalent to the two-mode model: the spin dynamics and the
    energy spectrum +-omega sqrt(n r) are identical.
    """
    if params.r <= 0:
        raise DomainError("the single-mode form requires r > 0")
    a = fs.mode_lowering(space, "x")
    half = params.omega * math.sqrt(params.r) * 1j * (fs.pauli(space, "plus") @ a.dagger())
    return half + half.dagger()


@lru_cache(maxsize=512)
def weyl_block_hamiltonian(space: SingleModeSpec, params: SimParams, p_y: float) -> LinOp:
    """Two-mode Hamiltonian restricted to one p_y eigensector.

    p_y commutes with the full Hamiltonian (exactly, including truncation),
    so the two-mode problem splits into qubit (x) mode-x blocks
    (omega/sqrt(2)) [sigma_x p_x + sigma_y (p_y - r x)] with p_y a number.
    """
    px = fs.quadrature(space, "x", "momentum")
    x = fs.quadrature(space, "x", "position")
    sx = fs.pauli(space, "x")
    sy = fs.pauli(space, "y")
    return (params.omega / math.sqrt(2)) * (
        sx @ px + sy @ (p_y * fs.identity(space) - params.r * x)
    )


# ---------------------------------------------------------------------------
# analytic level structure
# ---------------------------------------------------------------------------


def natural_to_simulator(energy: float, params: SimParams) -> float:
    """Convert a dimensionless model energy to rad/ms."""
    return energy * params.omega / math.sqrt(2)


def simulator_to_natural(energy: float, params: SimParams) -> float:
    return energy * math.sqrt(2) / params.omega


def landau_level(
    n: int,
    params: SimParams,
    variant: str = "weyl",
    mass: float | None = None,
    units: str = "simulator",
) -> float:
    """Energy of level n for the massless, massive, or non-relativistic case.

    In natural units: sqrt(2 n r) (weyl), sqrt(mass^2 + 2 n r) (dirac),
    n r / mass (nonrel).  Simulator units scale these by omega/sqrt(2),
    giving omega sqrt(n r) for the massless case.
    """
    if n < 0:
        raise DomainError("level index must be non-negative")
    if units not in ("simulator", "natural"):
        raise DomainError(f"unknown unit system {units!r}")
    if variant == "weyl":
        e = math.sqrt(2 * n * params.r)
    elif variant in ("dirac", "nonrel"):
        if mass is None or mass <= 0:
            raise DomainError(f"variant {variant!r} requires mass > 0")
        if variant == "dirac":
            e = math.sqrt(mass**2 + 2 * n * params.r)
        else:
            e = n * params.r / mass
    else:
        raise DomainError(f"unknown variant {variant!r}")
    return e if units == "natural" else natural_to_simulator(e, params)


def landau_eigenstate(space: SingleModeSpec, n: int, sign: str = "zero") -> QState:
    """Eigenstate of the single-mode form.

    n = 0 with sign "zero" is |+z>|0>; n >= 1 with sign "plus"/"minus" is
    (|-z>|n-1> +- i|+z>|n>)/sqrt(2) at energy +-omega sqrt(n r).
    """
    if sign == "zero":
        if n != 0:
            raise DomainError("sign 'zero' is only the n = 0 state")
        return fs.basis_state(space, "plus_z", 0)
    if sign not in ("plus", "minus"):
        raise DomainError(f"unknown sign {sign!r}")
    if n < 1:
        raise DomainError("signed eigenstates require n >= 1")
    if n > space.n_max:
        raise DomainError(f"level {n} does not fit truncation {space.n_max}")
    d1 = space.n_max + 1
    vec = np.zeros(space.dim, dtype=complex)
    s = 1.0 if sign == "plus" else -1.0
    vec[d1 + (n - 1)] = 1 / math.sqrt(2)  # |-z>|n-1>
    vec[n] = s * 1j / math.sqrt(2)  # |+z>|n>
    return QState("pure", vec, space)


# ---------------------------------------------------------------------------
# reduction to the single-mode frame
# ---------------------------------------------------------------------------
#
# The displacement that maps the two-mode model onto the single-mode form is
# ill-conditioned as a truncated matrix, so it is never built.  Instead the
# two normal modes that diagonalize the dynamics are constructed directly:
# the cyclotron mode a (the mode the single-mode form talks about) and the
# conserved guiding-centre mode g.  Tracing out g gives the single-mode
# state whose spin dynamics reproduce the two-mode ones.


@lru_cache(maxsize=4)
def _frame_basis(pad: int, r: float, n_keep: int, n_guide: int):
    """Fock basis of the (cyclotron, guiding-centre) mode pair.

    Returns an (n_keep, n_guide, (pad+1)^2) array of basis vectors on the
    padded two-mode phonon space.
    """
    d = pad + 1
    a1 = fs._lowering_1m(d)
    ax = np.kron(a1, np.eye(d))
    ay = np.kron(np.eye(d), a1)
    sr = math.sqrt(r)
    adx = ax.conj().T
    ady = ay.conj().T
    cyc = (-(1 - r) * adx + (1 + r) * ax + 1j * ay - 1j * ady) / (2 * sr)
    gui = (1j * ax - 1j * adx + (1 + r) * ay + (r - 1) * ady) / (2 * sr)
    k = cyc.conj().T @ cyc + gui.conj().T @ gui
    vals, vecs = np.linalg.eigh(k)
    vac = vecs[:, 0]
    # residual ~3e-10 at pad 40 for r = 1; grows towards small r where the
    # mode pair is more strongly squeezed relative to the bare modes
    res = max(np.linalg.norm(cyc @ vac), np.linalg.norm(gui @ vac))
    if res > 1e-4:
        raise TruncationError(
            f"mode-pair vacuum residual {res:.2e} too large at pad {pad}"
        )
    basis = np.zeros((n_keep, n_guide, d * d), dtype=complex)
    cdag = cyc.conj().T
    gdag = gui.conj().T
    gcol = vac
    for m in range(n_guide):
        if m > 0:
            gcol = gdag @ gcol / math.sqrt(m)
        col = gcol
        for n in range(n_keep):
            if n > 0:
                col = cdag @ col / math.sqrt(n)
            basis[n, m] = col
    basis.setflags(write=False)
    return basis


def cyclotron_frame_state(
    state: QState,
    params: SimParams,
    n_keep: int = 34,
    n_guide: int = 30,
    pad: int = 40,
) -> QState:
    """Single-mode state equivalent to a two-mode one for spin dynamics.

    Traces the guiding-centre mode out of a pure two-mode state and returns
    the (generally mixed) state of qubit and cyclotron mode, expressed in
    the Fock basis the single-mode Hamiltonian uses.
    """
    if params.r <= 0:
        raise DomainError("the single-mode frame requires r > 0")
    if state.kind != "pure":
        raise DomainError("only pure two-mode states are supported")
    if not isinstance(state.space, SpaceSpec):
        raise DomainError("input must live on the two-mode space")
    basis = _frame_basis(pad, params.r, n_keep, n_guide)
    d = pad + 1
    dx, dy = state.space.mode_dims
    psi = state.data.reshape(2, dx, dy)
    big = np.zeros((2, d, d), dtype=complex)
    nx, ny = min(dx, d), min(dy, d)
    big[:, :nx, :ny] = psi[:, :nx, :ny]
    clipped = 1.0 - np.sum(np.abs(big) ** 2)
    if clipped > 1e-12:
        raise TruncationError(
            f"state weight {clipped:.2e} outside the reduction window"
        )
    phi = big.reshape(2, d * d)
    overlaps = np.einsum("nmk,sk->snm", basis.conj(), phi)
    # captured must sit at 1 from both sides: a deficit means the state
    # leaks past the retained ladder, an excess means window-edge
    # corruption amplified the high ladder states into junk (this is what
    # limits the usable range of r at a fixed window size)
    captured = float(np.sum(np.abs(overlaps) ** 2))
    if abs(captured - 1) > 1e-6:
        raise TruncationError(
            f"mode-pair expansion captured {captured:.9f} of the norm; "
            "the reduction window does not support this state or field"
        )
    rho = np.einsum("snm,tpm->sntp", overlaps, overlaps.conj())
    rho = rho.reshape(2 * n_keep, 2 * n_keep)
    rho = (rho + rho.conj().T) / 2
    rho /= np.trace(rho).real
    return QState("mixed", rho, SingleModeSpec(n_keep - 1))
