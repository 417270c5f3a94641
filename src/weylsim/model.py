"""Parameters, observables and analytic level structure of the simulated particle.

Energies are carried as angular frequencies in rad/ms throughout; a value
quoted as "2 pi x f kHz" is stored as 2*pi*f.  The dimensionless model
H = sigma_x p_x + sigma_y (p_y - r x) corresponds to the simulator operator
divided by (omega / sqrt(2)); `natural_to_simulator` converts between the
two unit systems.  The Weyl Hamiltonian itself is built only as its
p_y-sector decomposition, `evolve.weyl_sectors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fockspace as fs
from .errors import DomainError, TruncationError
from .fockspace import QState, SpaceSpec


def khz(value: float) -> float:
    """Angular frequency (rad/ms) of a linear frequency given in kHz."""
    return 2 * math.pi * value


@dataclass(frozen=True)
class SimParams:
    """Physical knobs of a run.

    omega      sideband and probe Rabi frequency, rad/ms
    r          dimensionless synthetic field strength
    tau_d_x/y  motional dephasing times in ms, math.inf for noiseless
    """

    omega: float
    r: float = 0.0
    tau_d_x: float = math.inf
    tau_d_y: float = math.inf

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise DomainError("omega must be positive and finite")
        if not 0 <= self.r < math.inf:
            raise DomainError("r must be non-negative and finite")
        if not (self.tau_d_x > 0 and self.tau_d_y > 0):
            raise DomainError("dephasing times must be positive (inf for none)")

    @classmethod
    def from_khz(
        cls,
        omega_khz: float,
        r: float = 0.0,
        tau_d_x: float = math.inf,
        tau_d_y: float = math.inf,
    ) -> "SimParams":
        return cls(
            omega=khz(omega_khz),
            r=r,
            tau_d_x=tau_d_x,
            tau_d_y=tau_d_y,
        )


def field_observables(space: SpaceSpec, params: SimParams) -> dict[str, list]:
    """The field runs' observables as sums of products (A, B), A on qubit (x)
    mode x and B on mode y; pi_x = p_x and pi_y = p_y - r x are the kinetic
    momenta in the field's gauge.  Every B except y's position commutes
    with p_y.
    """
    dx, dy = space.n_max_x + 1, space.n_max_y + 1
    one_s, one_m, one_y = np.eye(2), np.eye(2 * dx), np.eye(dy)
    x = np.kron(one_s, fs.mode_matrix(dx, "position"))
    p_y = [(one_m, fs.mode_matrix(dy, "momentum"))]
    return {
        **{f"sigma_{k}": [(np.kron(fs.PAULI[k], np.eye(dx)), one_y)] for k in "xyz"},
        "x": [(x, one_y)],
        "y": [(one_m, fs.mode_matrix(dy, "position"))],
        "pi_x": [(np.kron(one_s, fs.mode_matrix(dx, "momentum")), one_y)],
        "pi_y": p_y + [(-params.r * x, one_y)],
        "p_y": p_y,
    }


# ---------------------------------------------------------------------------
# analytic level structure
# ---------------------------------------------------------------------------


def natural_to_simulator(energy: float, params: SimParams) -> float:
    """Convert a dimensionless model energy to rad/ms."""
    return energy * params.omega / math.sqrt(2)


def landau_level(n: int, params: SimParams) -> float:
    """Energy omega sqrt(n r) of level n, sqrt(2 n r) in natural units."""
    if n < 0:
        raise DomainError("level index must be non-negative")
    return natural_to_simulator(math.sqrt(2 * n * params.r), params)


def landau_eigenstate(space: SpaceSpec, n: int, sign: str = "zero") -> QState:
    """Eigenstate of the single-mode form omega sqrt(r) (i sigma_+ a^dag - i sigma_- a).

    The space is the cyclotron frame's, n_max_y = 0, with a on mode x.
    n = 0 with sign "zero" is |+z>|0>; n >= 1 with sign "plus"/"minus" is
    (|-z>|n-1> +- i|+z>|n>)/sqrt(2) at energy +-omega sqrt(n r).
    """
    if space.n_max_y != 0:
        raise DomainError("the single-mode eigenstates need n_max_y = 0")
    if sign == "zero":
        if n != 0:
            raise DomainError("sign 'zero' is only the n = 0 state")
        return fs.basis_state(space, "plus_z", 0, 0)
    if sign not in ("plus", "minus"):
        raise DomainError(f"unknown sign {sign!r}")
    if n < 1:
        raise DomainError("signed eigenstates require n >= 1")
    if n > space.n_max_x:
        raise DomainError(f"level {n} does not fit truncation {space.n_max_x}")
    d1 = space.n_max_x + 1
    vec = np.zeros(space.dim, dtype=complex)
    s = 1.0 if sign == "plus" else -1.0
    vec[d1 + (n - 1)] = 1 / math.sqrt(2)  # |-z>|n-1>
    vec[n] = s * 1j / math.sqrt(2)  # |+z>|n>
    return QState("pure", vec, space)


# ---------------------------------------------------------------------------
# reduction to the single-mode frame
# ---------------------------------------------------------------------------
#
# p_y commutes with the cyclotron operator
# a_c = mu a_x + nu a_x^dag - p_y / sqrt(2 r),
# mu = (1 + r) / (2 sqrt r), nu = -(1 - r) / (2 sqrt r), and in each p_y
# sector the Hamiltonian is omega sqrt(r) (i sigma_+ a_c^dag - i sigma_- a_c).
# Tracing out the guiding-centre mode is therefore an average over p_y of
# the input's mode-x state written in that sector's a_c Fock basis.

FRAME_LADDER = 34  # cyclotron Fock levels kept by the reduction
FRAME_NODES = 80  # Gauss-Hermite nodes over the p_y distribution


def _cyclotron_amplitudes(alpha: complex, r: float, p: np.ndarray) -> np.ndarray:
    """<n_c|alpha> on the cyclotron ladder of each sector p, n < FRAME_LADDER.

    <0_c|alpha> is the Bargmann-space overlap with the a_c vacuum; the rest
    follow from a_x |alpha> = alpha |alpha> as the three-term recurrence
    mu sqrt(n+1) c_{n+1} = (alpha - (mu - nu) s) c_n + nu sqrt(n) c_{n-1},
    s = p / sqrt(2 r).  The amplitudes are exact, so their squared norm is
    the weight the kept ladder captures.  Returns shape (len(p), FRAME_LADDER).
    """
    mu = (1 + r) / (2 * math.sqrt(r))
    nu = -(1 - r) / (2 * math.sqrt(r))
    s = p / math.sqrt(2 * r)
    a, b = s / mu, -nu / mu
    c = np.zeros((len(p), FRAME_LADDER), dtype=complex)
    c[:, 0] = np.exp(
        -0.5 * math.log(mu) - a * a / (2 * (1 - b))
        - abs(alpha) ** 2 / 2 + a * alpha + b * alpha**2 / 2
    )
    drive = alpha - (mu - nu) * s
    for n in range(FRAME_LADDER - 1):
        below = nu * math.sqrt(n) * c[:, n - 1] if n else 0.0
        c[:, n + 1] = (drive * c[:, n] + below) / (mu * math.sqrt(n + 1))
    return c


def cyclotron_frame_state(
    spin: str, alpha_x: complex, alpha_y: complex, params: SimParams
) -> QState:
    """Single-mode state equivalent to |spin>|alpha_x>|alpha_y> for spin dynamics.

    The guiding-centre mode is traced out by Gauss-Hermite quadrature over
    the p_y distribution of |alpha_y> (mean sqrt(2) Im alpha_y, variance
    1/2), giving the mixture sum_k w_k |spin><spin| (x) |c_k><c_k| on the
    cyclotron ladder the single-mode Hamiltonian uses.
    """
    if params.r <= 0:
        raise DomainError("the single-mode frame requires r > 0")
    sv = fs.spin_vector(spin)
    # Golub and Welsch (Math. Comp. 23 (1969) 221): the Jacobi matrix of the
    # Gauss-Hermite rule (weight e^(-x^2)) is the position quadrature on
    # FRAME_NODES levels; its eigenvalues are the nodes and sqrt(pi) |v_0k|^2
    # the weights, of which the mixture takes the normalized |v_0k|^2
    nodes, vectors = fs.quadrature_eigenbasis(FRAME_NODES, "position")
    p = math.sqrt(2) * complex(alpha_y).imag + nodes
    c = _cyclotron_amplitudes(alpha_x, params.r, p)
    rho_c = (c.T * np.abs(vectors[0]) ** 2) @ c.conj()
    captured = float(np.trace(rho_c).real)
    if not abs(captured - 1) <= 1e-6:
        raise TruncationError(
            f"the {FRAME_LADDER} kept cyclotron levels capture {captured:.9f} "
            "of the norm"
        )
    rho = np.kron(np.outer(sv, sv.conj()), rho_c / captured)
    return QState("mixed", rho, SpaceSpec(FRAME_LADDER - 1, 0))
