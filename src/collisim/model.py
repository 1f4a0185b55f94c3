"""Hamiltonians, rate constants, and analytic states of the collision model.

A three-level system (levels 0, 1, 2) collides pairwise with one fresh
qubit from each of two thermal baths.  Bath-1 ancillas drive the 0<->2
system transition and bath-2 ancillas the 1<->2 transition, both detuned
by ``delta``.  For large detuning the top level is only virtually
populated and can be eliminated, leaving an effective qubit whose two
levels are jointly driven by ancilla pairs.

Every builder works in the fixed tensor order A1 (x) A2 (x) S, writing
each term as one `kron` of its three local factors, and in
coupling-strength units: ``g = 1`` is the frequency unit, times are in
``1/g``, and all derived rates come out in units of ``g``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .config import compute_alpha  # numpy-free, so that validation computes alpha the same way
from .operators import kron, thermal_populations, thermal_qubit, transition

# The system qutrit's space, as `operators.density_operator` takes it.
QUTRIT_SPACE = (("S", 3),)

# Documented heuristic floor on |delta|, in units of g, for the far-off-resonant
# regime.  The elimination error shrinks quadratically in 1/delta; below this
# detuning the effective description degrades visibly.
FAR_OFF_THRESHOLD = 20.0

_I2 = np.eye(2, dtype=complex)


def basis_index(a1: int, a2: int, s: int) -> int:
    """Flat index of the product basis state |a1, a2, s>."""
    return a1 * 6 + a2 * 3 + s


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs for a collision run.

    Attributes
    ----------
    delta : detuning of both collision channels, in units of g.
    x1, x2 : ancilla thermal exponents (level splitting times inverse
        temperature) for bath 1 and bath 2; dimensionless.
    tau : collision duration in units of 1/g.
    n_steps : number of collisions.
    """

    delta: float
    x1: float = 0.0
    x2: float = 0.0
    tau: float = 1.0
    n_steps: int = 1

    def __post_init__(self):
        # A zero duration is degenerate but representable (it realizes the
        # exact identity limit); a collision run still needs tau > 0, see
        # `run_collisions`.
        if not (self.tau >= 0):
            raise ValueError(f"collision duration tau must be nonnegative, got {self.tau}")
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, Integral):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        for name in ("delta", "x1", "x2", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def far_off_resonant(self) -> bool:
        return abs(self.delta) >= FAR_OFF_THRESHOLD


@dataclass(frozen=True)
class DerivedRates:
    """Rates and effective-bath quantities derived from ModelParams.

    ``capital_gamma`` is the effective qubit's raising rate (0 -> 1) and
    ``lowering_rate`` its lowering rate (1 -> 0); their ratio is
    ``e^x_s``.  ``x_s = x1 - x2`` is the effective thermal exponent.  Level 1
    lies above level 0 by ``w1 - w2 > 0``, the ancilla frequencies' difference,
    which cancels out of every population; the effective inverse temperature
    ``x_s / (w1 - w2)`` has the sign of ``x_s``, negative at negative temperature.
    """

    alpha: float
    capital_gamma: float
    lowering_rate: float
    x_s: float


def build_h_prime(p: ModelParams) -> np.ndarray:
    """Collision Hamiltonian in the frame where it is time independent.

    ``H' = delta |2><2|_S + (|1><0|_A1 |0><2|_S + |0><1|_A1 |2><0|_S)
    + (|1><0|_A2 |1><2|_S + |0><1|_A2 |2><1|_S)`` in units of g:
    a diagonal shift on the top system level plus one exchange block per
    bath channel.  No approximation is involved; this generates the
    accurate collision dynamics.
    """
    coupling = kron(transition(2, 1, 0), _I2, transition(3, 0, 2))
    coupling = coupling + kron(_I2, transition(2, 1, 0), transition(3, 1, 2))
    return p.delta * kron(_I2, _I2, transition(3, 2, 2)) + coupling + coupling.conj().T


def _warn_if_not_far_off(p: ModelParams) -> None:
    if not p.far_off_resonant:
        warnings.warn(
            f"delta = {float(p.delta)}g is below the far-off-resonant "
            f"threshold ({FAR_OFF_THRESHOLD}g); the eliminated-level dynamics may be inaccurate",
            stacklevel=3,
        )


def _exchange(p: ModelParams) -> np.ndarray:
    """`build_v` without its far-off-resonant warning."""
    alpha = compute_alpha(p.delta)
    exchange = -alpha * kron(transition(2, 0, 1), transition(2, 1, 0), transition(3, 1, 0))
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
    shift = -compute_alpha(p.delta) * (
        kron(transition(2, 1, 1), _I2, transition(3, 0, 0))
        + kron(_I2, transition(2, 1, 1), transition(3, 1, 1))
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


def bath_rates(p: ModelParams, x: float) -> tuple[float, float]:
    """Lowering and raising rates ``tau (p0, p1)`` of a bath with thermal exponent
    ``x``, from `thermal_populations`; defined at every detuning, ``delta = 0`` included.

    Each is its population times ``tau``: an empty level has rate 0, and no rate
    is NaN or raises.
    """
    return tuple(pop * p.tau for pop in thermal_populations(x))


def derive_rates(p: ModelParams) -> DerivedRates:
    """All scalar rates of the effective-qubit description.

    With the populations of `thermal_populations`, the effective qubit is raised
    at ``capital_gamma = tau p1(x1) p0(x2) / delta^2`` (bath 1 gives up an
    excitation that bath 2 takes) and lowered at ``lowering_rate = tau p0(x1)
    p1(x2) / delta^2``; each is its population product divided by ``delta``
    twice, then times ``tau``, so finite or inf at ``tau > 0``, never NaN, and
    0 at ``tau = 0``, where ``pop / delta^2`` may be inf.
    ``x_s = x1 - x2`` is the effective thermal exponent; with level 1 above
    level 0 it has the sign of the effective inverse temperature, so
    ``x_s < 0`` is a negative-temperature bath.
    """
    alpha = compute_alpha(p.delta)  # raises at zero detuning
    (ground1, excited1), (ground2, excited2) = thermal_populations(p.x1), thermal_populations(p.x2)
    capital_gamma, lowering_rate = (pop / p.delta / p.delta * p.tau if p.tau > 0 else 0.0
                                    for pop in (excited1 * ground2, ground1 * excited2))
    return DerivedRates(
        alpha=alpha,
        capital_gamma=capital_gamma,
        lowering_rate=lowering_rate,
        x_s=p.x1 - p.x2,
    )


def ancilla_pair(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Fresh read-only thermal ancilla states for one collision step, one per bath."""
    return thermal_qubit(p.x1), thermal_qubit(p.x2)
