"""Hamiltonians, rate constants, and analytic states of the collision model.

A three-level system (levels 0, 1, 2) collides pairwise with one fresh
qubit from each of two thermal baths.  Bath-1 ancillas drive the 0<->2
system transition and bath-2 ancillas the 1<->2 transition, both detuned
by ``delta``.  For large detuning the top level is only virtually
populated and can be eliminated, leaving an effective qubit whose two
levels are jointly driven by ancilla pairs.

Every builder works in the fixed tensor order A1 (x) A2 (x) S and in
coupling-strength units: ``g = 1`` is the frequency unit, times are in
``1/g``, and all derived rates come out in units of ``g``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operators import DensityOperator, kron, thermal_qubit, transition

# Tensor order A1 (x) A2 (x) S with dims 2, 2, 3.
TRIPARTITE_SPACE = (("A1", 2), ("A2", 2), ("S", 3))
QUTRIT_SPACE = (("S", 3),)

# Documented heuristic floor for the far-off-resonant regime.  The
# elimination error shrinks quadratically in g/delta; below this ratio
# the effective description degrades visibly.
FAR_OFF_THRESHOLD = 20.0

_I2 = np.eye(2, dtype=complex)
_I3 = np.eye(3, dtype=complex)


def basis_index(a1: int, a2: int, s: int) -> int:
    """Flat index of the product basis state |a1, a2, s>."""
    return a1 * 6 + a2 * 3 + s


def op_a1(op: np.ndarray) -> np.ndarray:
    return kron(op, _I2, _I3)

def op_a2(op: np.ndarray) -> np.ndarray:
    return kron(_I2, op, _I3)

def op_s(op: np.ndarray) -> np.ndarray:
    return kron(_I2, _I2, op)


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs for a collision run.

    Attributes
    ----------
    g : coupling strength; the frequency unit (default 1).
    delta : detuning of both collision channels, in units of g.
    x1, x2 : ancilla thermal exponents (level splitting times inverse
        temperature) for bath 1 and bath 2; dimensionless.
    tau : collision duration in units of 1/g.
    n_steps : number of collisions.
    omega_a1, omega_a2 : ancilla transition frequencies in units of g.
        Only needed to report the effective inverse temperature itself;
        effective-qubit populations depend on x1 - x2 alone.
    """

    delta: float
    x1: float = 0.0
    x2: float = 0.0
    tau: float = 1.0
    n_steps: int = 1
    g: float = 1.0
    omega_a1: float | None = None
    omega_a2: float | None = None

    def __post_init__(self):
        # Zero coupling / zero duration are degenerate but representable
        # (they realize the exact no-interaction identity limits); a
        # collision run still needs tau > 0, see `run_collisions`.
        if not (self.g >= 0):
            raise ValueError(f"coupling strength g must be nonnegative, got {self.g}")
        if not (self.tau >= 0):
            raise ValueError(f"collision duration tau must be nonnegative, got {self.tau}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        for name in ("delta", "x1", "x2", "tau", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def far_off_resonant(self) -> bool:
        return self.delta >= FAR_OFF_THRESHOLD * self.g


@dataclass(frozen=True)
class DerivedRates:
    """Rates and effective-bath quantities derived from ModelParams.

    ``beta_s`` is None when the ancilla frequencies were not supplied;
    ``x_s = x1 - x2`` is always available because the effective level
    splitting equals the difference of the ancilla frequencies, which
    cancels out of the populations.  ``x_s`` (and ``beta_s``) may be
    negative: that is the negative-absolute-temperature regime.
    """

    alpha: float
    capital_gamma: float
    x_s: float
    beta_s: float | None = None


def compute_alpha(g_m: float, g_n: float, delta_m: float, delta_n: float) -> float:
    """Effective two-channel coupling ``(g_m g_n / 2)(1/delta_m + 1/delta_n)``.

    Symmetric in the two channels.  Raises ValueError at zero detuning,
    where the elimination of the virtual level is invalid.
    """
    if delta_m == 0 or delta_n == 0:
        raise ValueError("zero detuning: adiabatic elimination is singular")
    return 0.5 * g_m * g_n * (1.0 / delta_m + 1.0 / delta_n)


def build_h_prime(p: ModelParams) -> np.ndarray:
    """Collision Hamiltonian in the frame where it is time independent.

    ``H' = delta |2><2|_S + g (|1><0|_A1 |0><2|_S + |0><1|_A1 |2><0|_S)
    + g (|1><0|_A2 |1><2|_S + |0><1|_A2 |2><1|_S)``:
    a diagonal shift on the top system level plus one exchange block per
    bath channel.  No approximation is involved; this generates the
    accurate collision dynamics.
    """
    coupling = p.g * op_a1(transition(2, 1, 0)) @ op_s(transition(3, 0, 2))
    coupling = coupling + p.g * op_a2(transition(2, 1, 0)) @ op_s(transition(3, 1, 2))
    return p.delta * op_s(transition(3, 2, 2)) + coupling + coupling.conj().T


def _warn_if_not_far_off(p: ModelParams) -> None:
    if not p.far_off_resonant:
        warnings.warn(
            f"delta = {p.delta}g is below the far-off-resonant threshold "
            f"({FAR_OFF_THRESHOLD}g); the eliminated-level dynamics may be inaccurate",
            stacklevel=3,
        )


def _exchange(p: ModelParams) -> np.ndarray:
    """`build_v` without its far-off-resonant warning."""
    alpha = compute_alpha(p.g, p.g, p.delta, p.delta)
    exchange = -alpha * (
        op_a1(transition(2, 0, 1)) @ op_a2(transition(2, 1, 0)) @ op_s(transition(3, 1, 0))
    )
    return exchange + exchange.conj().T


def build_h_eff(p: ModelParams) -> np.ndarray:
    """Effective Hamiltonian after eliminating the top system level.

    Each ancilla shifts the system level it addresses by ``-alpha``
    (single weight: the level shift appears once in the second-order
    elimination, and doubling it breaks the closed-dynamics agreement
    with `build_h_prime` -- see the variant regression test), and the
    ancilla pair jointly exchanges one excitation with the effective
    qubit at amplitude ``-alpha``: the exchange term is `build_v`.
    Every matrix element touching system level 2 is zero.

    Warns if the parameters are not in the far-off-resonant regime,
    where this description degrades.
    """
    v = _exchange(p)
    shift = -compute_alpha(p.g, p.g, p.delta, p.delta) * (
        op_a1(transition(2, 1, 1)) @ op_s(transition(3, 0, 0))
        + op_a2(transition(2, 1, 1)) @ op_s(transition(3, 1, 1))
    )
    _warn_if_not_far_off(p)
    return shift + v


def build_v(p: ModelParams) -> np.ndarray:
    """Exchange part of the effective Hamiltonian, in the frame rotating
    with the level shifts.

    Exactly two nonzero elements: ``<0_A1,1_A2,1_S| V |1_A1,0_A2,0_S>``
    and its conjugate, both ``-alpha``.  The rotation is diagonal in the
    product basis, so level populations evolve identically under V and
    under `build_h_eff`.
    """
    v = _exchange(p)
    _warn_if_not_far_off(p)
    return v


def bath_rate(p: ModelParams, x: float) -> float:
    """Per-bath rate ``g^2 tau / (1 + e^x)`` of a bath with thermal exponent ``x``.

    Defined at every detuning, including ``delta = 0``.
    """
    return p.g**2 * p.tau / (1.0 + math.exp(x))


def derive_rates(p: ModelParams) -> DerivedRates:
    """All scalar rates of the continuous-time descriptions.

    ``capital_gamma`` is the effective-qubit relaxation rate
    ``R^2 g^2 tau / ((1+e^x1)(1+e^-x2))`` with ``R = g/delta``; the
    per-bath rates of the qutrit two-bath description are `bath_rate`.
    ``x_s = x1 - x2`` is the effective thermal exponent;
    ``beta_s = (x1 - x2)/(omega_a1 - omega_a2)`` is reported only when
    both ancilla frequencies are given, and raises if they are degenerate
    (the effective level splitting would vanish).
    """
    alpha = compute_alpha(p.g, p.g, p.delta, p.delta)  # raises at zero detuning
    r = p.g / p.delta
    capital_gamma = (r**2 * p.g**2 * p.tau) / ((1.0 + math.exp(p.x1)) * (1.0 + math.exp(-p.x2)))
    beta_s = None
    if p.omega_a1 is not None and p.omega_a2 is not None:
        if p.omega_a1 == p.omega_a2:
            raise ValueError(
                "degenerate ancilla frequencies: effective inverse temperature undefined"
            )
        beta_s = (p.x1 - p.x2) / (p.omega_a1 - p.omega_a2)
    return DerivedRates(
        alpha=alpha,
        capital_gamma=capital_gamma,
        x_s=p.x1 - p.x2,
        beta_s=beta_s,
    )


def steady_state_qubit(x_s: float) -> DensityOperator:
    """Thermal state of the effective qubit at exponent ``x_s``.

    ``diag(p0, p1)`` with ``p0 = e^x_s/(1+e^x_s)`` and
    ``p1 = 1/(1+e^x_s)``; for ``x_s < 0`` the populations are inverted.
    """
    return thermal_qubit(x_s, label="S")


def ancilla_pair(p: ModelParams) -> tuple[DensityOperator, DensityOperator]:
    """Fresh thermal ancillas for one collision step, one per bath."""
    return thermal_qubit(p.x1, label="A1"), thermal_qubit(p.x2, label="A2")
