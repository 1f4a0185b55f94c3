"""Continuous-time master equations in GKSL form.

Two generators are shipped: the effective-qubit equation that the
far-off-resonant collision sequence coarse-grains into, and the qutrit
two-bath equation valid for short collisions at modest detuning.  Both
are integrated with fixed-step classical RK4; since the right-hand side
is linear and autonomous, one RK4 step equals the degree-4 Taylor
polynomial of the step propagator (`rk4_step_matrix`), applied
as a precomputed matrix on the vectorized state by the shared stepping
engine `collision.propagate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import propagate
from .model import DerivedRates, ModelParams, bath_rate
from .operators import DensityOperator, is_hermitian, kron, transition
# Unused here: bench/spans.py still wraps lindblad.batch_check_states by name.
from .operators import batch_check_states  # noqa: F401
from .trajectory import Trajectory

TRACE_DRIFT_TOL = 1e-9
HERMITICITY_DRIFT_TOL = 1e-12
STABILITY_GUARD = 0.1

# Step sizes keep dt * (rate scale) <= DT_MARGIN, a 5x margin under the
# stability guard.
DT_MARGIN = 0.02


@dataclass(frozen=True)
class LindbladGenerator:
    """``rho' = -i[H, rho] + sum_k r_k (L rho L+ - [L+L, rho]_+ / 2)``.

    ``dissipators`` holds (jump operator, nonnegative rate) pairs; the
    Hamiltonian part may be zero.
    """

    hamiltonian_part: np.ndarray
    dissipators: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        h = np.asarray(self.hamiltonian_part, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"Hamiltonian part must be square, got {h.shape}")
        if not is_hermitian(h, 1e-12):
            raise ValueError("Hamiltonian part must be Hermitian")
        h.flags.writeable = False
        object.__setattr__(self, "hamiltonian_part", h)
        ops = []
        for op, rate in self.dissipators:
            op = np.asarray(op, dtype=complex)
            if op.shape != h.shape:
                raise ValueError(f"jump operator shape {op.shape} != generator dim {h.shape}")
            if rate < 0:
                raise ValueError(f"dissipator rate must be nonnegative, got {rate}")
            op.flags.writeable = False
            ops.append((op, float(rate)))
        object.__setattr__(self, "dissipators", tuple(ops))

    @property
    def dim(self) -> int:
        return self.hamiltonian_part.shape[0]

    @property
    def rate_scale(self) -> float:
        """Sum of dissipator rates plus the Hamiltonian spectral radius."""
        h_norm = float(np.max(np.abs(np.linalg.eigvalsh(self.hamiltonian_part)))) if self.dim else 0.0
        return sum(rate for _, rate in self.dissipators) + h_norm


def generator_effective_qubit(rates: DerivedRates) -> LindbladGenerator:
    """Effective-qubit thermal generator: zero Hamiltonian, two dissipators.

    Lowering at rate ``Gamma e^x_s`` and raising at rate ``Gamma``; the
    rate ratio fixes the detailed-balance steady state
    ``p1/p0 = e^-x_s``, so a negative ``x_s`` yields inversion.
    """
    gamma = rates.capital_gamma
    return LindbladGenerator(
        hamiltonian_part=np.zeros((2, 2), dtype=complex),
        dissipators=(
            (transition(2, 0, 1), gamma * math.exp(rates.x_s)),
            (transition(2, 1, 0), gamma),
        ),
    )


def generator_qutrit_two_bath(p: ModelParams) -> LindbladGenerator:
    """Qutrit generator with both baths attached to the top level.

    Bath 1 drives 0<->2 at rates ``gamma1 e^x1`` (down) / ``gamma1``
    (up), bath 2 drives 1<->2 analogously, and the detuning adds the
    coherent term ``i delta [rho, |2><2|]`` plus top-level dephasing at
    rate ``tau delta^2``.  At ``delta = 0`` the coherent and dephasing
    parts vanish and the generator reduces to a plain two-bath thermal
    qutrit.  Valid for short collisions; the dephasing rate grows with
    the detuning, so keep ``delta`` modest.
    """
    gamma1 = bath_rate(p, p.x1)
    gamma2 = bath_rate(p, p.x2)
    sigma22 = transition(3, 2, 2)
    dissipators = [
        (transition(3, 0, 2), gamma1 * math.exp(p.x1)),
        (transition(3, 2, 0), gamma1),
        (transition(3, 1, 2), gamma2 * math.exp(p.x2)),
        (transition(3, 2, 1), gamma2),
    ]
    if p.delta != 0:
        dissipators.insert(0, (sigma22, p.tau * p.delta**2))
    return LindbladGenerator(
        hamiltonian_part=p.delta * sigma22,
        dissipators=tuple(dissipators),
    )


def rhs(gen: LindbladGenerator, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation at state ``rho``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError(f"state shape {rho.shape} != generator dim {gen.dim}")
    h = gen.hamiltonian_part
    out = -1j * (h @ rho - rho @ h)
    for op, rate in gen.dissipators:
        opd = op.conj().T
        opdop = opd @ op
        out = out + rate * (op @ rho @ opd - 0.5 * (opdop @ rho + rho @ opdop))
    return out


def rk4_step_matrix(a: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of ``x' = a x``: the degree-4 Taylor polynomial of ``exp(a dt)``."""
    dim = a.shape[0]
    m = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 5):
        term = term @ a * (dt / k)
        m = m + term
    return m


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


def integrate(gen: LindbladGenerator, rho0: DensityOperator, t_end: float, dt: float,
              *, snapshot_stride: int = 10) -> Trajectory:
    """Fixed-step RK4 integration from 0 to (at least) ``t_end``.

    Requires ``dt <= t_end`` and the stability guard
    ``dt * (rate scale) <= 0.1``; violating either raises ValueError
    before any work.  The trace must stay within 1e-9 of 1 and the
    Hermiticity defect within 1e-12 over the whole run, monitored every
    step.  Populations of two-level generators are zero-padded to the
    common three-level trajectory shape.
    """
    if dt <= 0 or dt > t_end:
        raise ValueError(f"need 0 < dt <= t_end, got dt={dt}, t_end={t_end}")
    if dt * gen.rate_scale > STABILITY_GUARD:
        raise ValueError(
            f"stability guard violated: dt * rate scale = {dt * gen.rate_scale:.3f} > {STABILITY_GUARD}"
        )
    if rho0.dim != gen.dim:
        raise ValueError(f"state dim {rho0.dim} != generator dim {gen.dim}")

    n = max(1, math.ceil(t_end / dt - 1e-9))
    step = rk4_step_matrix(generator_superoperator(gen), dt)
    return propagate(step, rho0.matrix, n, dt, snapshot_stride=snapshot_stride,
                     step_trace_tol=math.inf,
                     cumulative_trace_tol=TRACE_DRIFT_TOL,
                     hermiticity_tol=HERMITICITY_DRIFT_TOL,
                     context="integrator step")


def steady_residual(gen: LindbladGenerator, rho: DensityOperator | np.ndarray) -> float:
    """Max-norm of the generator applied to ``rho`` (zero iff stationary)."""
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    return float(np.max(np.abs(rhs(gen, mat))))
