"""Continuous-time master equations in GKSL form.

Two generators are shipped: the effective-qubit equation that the
far-off-resonant collision sequence coarse-grains into, and the qutrit
two-bath equation valid for short collisions at modest detuning.  Both
are linear and autonomous, so `integrate` steps them with one fixed map,
``exp(G dt)`` of the superoperator ``G`` (`exp_step_map`), on the shared
stepping engine `collision.propagate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import propagate
from .errors import HAMILTONIAN_HERMITICITY_TOL, INTEGRATOR_BOUNDS, NumericError
from .model import DerivedRates, ModelParams, bath_rates
from .operators import density_operator, kron, require_hermitian, transition
# Unused here: bench/spans.py still wraps lindblad.batch_check_states by name.
from .operators import batch_check_states  # noqa: F401
from .trajectory import Trajectory

# `exp_step_map`'s Taylor degree on a 1-norm <= 1 (remainder < 1/19! ~ 8e-18),
# and its most squarings: the range its accuracy was measured in.
TAYLOR_DEGREE = 18
MAX_SQUARINGS = 32


@dataclass(frozen=True)
class LindbladGenerator:
    """``rho' = -i[H, rho] + sum_k r_k (L rho L+ - [L+L, rho]_+ / 2)``.

    ``dissipators`` holds (jump operator, nonnegative rate) pairs; the
    Hamiltonian part may be zero.
    """

    hamiltonian_part: np.ndarray
    dissipators: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        h = np.array(self.hamiltonian_part, dtype=complex)  # copies: the caller's arrays stay writable
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"Hamiltonian part must be square, got {h.shape}")
        require_hermitian(h, HAMILTONIAN_HERMITICITY_TOL)
        h.flags.writeable = False
        object.__setattr__(self, "hamiltonian_part", h)
        ops = []
        for op, rate in self.dissipators:
            op = np.array(op, dtype=complex)
            if op.shape != h.shape:
                raise ValueError(f"jump operator shape {op.shape} != generator dim {h.shape}")
            if not rate >= 0:  # NaN-safe
                raise ValueError(f"dissipator rate must be nonnegative, got {rate}")
            op.flags.writeable = False
            ops.append((op, float(rate)))
        object.__setattr__(self, "dissipators", tuple(ops))

    @property
    def dim(self) -> int:
        return self.hamiltonian_part.shape[0]


def generator_effective_qubit(rates: DerivedRates) -> LindbladGenerator:
    """Effective-qubit thermal generator: zero Hamiltonian, two dissipators.

    Lowering at ``rates.lowering_rate`` and raising at
    ``rates.capital_gamma``, the rates of `derive_rates`; their ratio
    ``e^x_s`` fixes the detailed-balance steady state ``p1/p0 = e^-x_s``,
    so a negative ``x_s`` yields inversion.
    """
    return LindbladGenerator(np.zeros((2, 2), dtype=complex),
                             ((transition(2, 0, 1), rates.lowering_rate),
                              (transition(2, 1, 0), rates.capital_gamma)))


def generator_qutrit_two_bath(p: ModelParams) -> LindbladGenerator:
    """Qutrit generator with both baths attached to the top level.

    Bath 1 drives 2->0 and 0->2 at its `bath_rates` (lowering, raising),
    bath 2 drives 2->1 and 1->2 at its own, and the detuning adds the
    coherent term ``i delta [rho, |2><2|]`` plus top-level dephasing at
    rate ``tau delta^2``.  At ``delta = 0`` the coherent and dephasing
    parts vanish and the generator reduces to a plain two-bath thermal
    qutrit.  Valid for short collisions; the dephasing rate grows with
    the detuning, so keep ``delta`` modest.  A rate past the float range is
    inf, which `exp_step_map` rejects.
    """
    (down1, up1), (down2, up2) = bath_rates(p, p.x1), bath_rates(p, p.x2)
    sigma22 = transition(3, 2, 2)
    dissipators = ((transition(3, 0, 2), down1), (transition(3, 2, 0), up1),
                   (transition(3, 1, 2), down2), (transition(3, 2, 1), up2))
    if p.delta != 0:
        dissipators = ((sigma22, p.tau * (p.delta * p.delta)), *dissipators)
    return LindbladGenerator(p.delta * sigma22, dissipators)


def generator_superoperator(gen: LindbladGenerator) -> np.ndarray:
    """Matrix of the generator on row-major vectorized states."""
    eye = np.eye(gen.dim, dtype=complex)
    h = gen.hamiltonian_part
    g = -1j * (kron(h, eye) - kron(eye, h.T))
    for op, rate in gen.dissipators:
        opdop = op.conj().T @ op
        g = g + rate * (
            kron(op, op.conj())
            - 0.5 * (kron(opdop, eye) + kron(eye, opdop.T))
        )
    return g


def exp_step_map(g: np.ndarray, dt: float) -> np.ndarray:
    """``exp(g dt)`` by scaling and squaring, with numpy alone.

    ``a = g dt`` is halved ``s`` times to a 1-norm <= 1, and the Horner-form
    Taylor polynomial of ``E = exp(a / 2^s) - 1`` is squared back by
    ``E -> 2 E + E^2``, which keeps the slow modes' relative accuracy.
    Against a 40-digit reference its entries were within 2.3e-16 on the
    workloads' generators (no squaring), and 1.1e-13 at the stiff two-bath
    corner delta = 250, tau = 80 (28 squarings).  A ``|g dt|_1`` that is
    not finite or not below ``2^MAX_SQUARINGS`` raises `NumericError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm raises below
        a = g * dt
        norm = float(np.max(np.sum(np.abs(a), axis=0)))
    if not norm < 2.0**MAX_SQUARINGS:  # NaN-safe
        raise NumericError(f"master-equation step map exp(G dt): |G dt|_1 = {norm:.3e} is not "
                           f"finite or not below 2^{MAX_SQUARINGS}, the range its accuracy holds in")
    squarings = max(0, math.frexp(norm)[1])  # norm / 2^squarings < 1
    a = a / 2.0**squarings
    eye = np.eye(len(a), dtype=complex)
    e = a / TAYLOR_DEGREE
    for k in range(TAYLOR_DEGREE - 1, 0, -1):
        e = a @ (eye + e) / k
    for _ in range(squarings):
        e = 2 * e + e @ e
    return eye + e


def integrate(gen: LindbladGenerator, rho0: np.ndarray, t_end: float, dt: float,
              *, snapshot_stride: int = 10) -> Trajectory:
    """The master equation from 0 to ``t_end`` in steps of the exact map
    ``exp(G dt)`` (see `exp_step_map`), rounded up to whole steps unless
    ``t_end / dt`` is within a relative 1e-9 of a whole number.

    Requires ``0 < dt <= t_end < inf``, a ``rho0`` that `density_operator`
    accepts as a state of the generator's dimension and a step map in
    `exp_step_map`'s range; anything else raises before any step.  Every
    step is checked against `INTEGRATOR_BOUNDS`: the trace within 1e-9 of
    1 and the Hermiticity defect within 1e-12.  Populations of two-level
    generators are zero-padded to the common three-level trajectory shape.
    """
    if not 0 < dt <= t_end < math.inf:  # NaN-safe
        raise ValueError(f"need 0 < dt <= t_end < inf, got dt={dt}, t_end={t_end}")
    mat = density_operator(rho0, (("S", gen.dim),))

    ratio = t_end / dt  # >= 1; rounding can leave a whole step count a relative 1e-9 off
    n = round(ratio) if abs(ratio - round(ratio)) <= 1e-9 * ratio else math.ceil(ratio)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite rate fails the norm check
        g = generator_superoperator(gen)
    return propagate(exp_step_map(g, dt), mat, n, dt, INTEGRATOR_BOUNDS,
                     snapshot_stride=snapshot_stride)


def steady_residual(gen: LindbladGenerator, rho: np.ndarray) -> float:
    """Max-norm of the generator applied to ``rho`` (zero iff stationary)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError(f"state shape {rho.shape} != generator dim {gen.dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # a rate past the float range reads as NaN
        return float(np.max(np.abs(generator_superoperator(gen) @ rho.reshape(gen.dim**2))))
