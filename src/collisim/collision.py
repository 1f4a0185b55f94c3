"""Stroboscopic repeated-interaction dynamics.

One collision step: prepare fresh thermal ancillas, evolve the joint
state ``eta1 (x) eta2 (x) rho_S`` unitarily for the collision duration,
then trace the ancillas out.  Because each step applies the same unitary
to the same ancilla preparation, the whole step is one fixed linear map
on the reduced system state; that map is precomputed once per run and
applied per step, which keeps hundred-thousand-collision runs cheap.

Two propagators generate the collision unitary:

* ``spectral`` -- eigendecompose the (time-independent) Hamiltonian and
  build ``exp(-i H tau)`` exactly from its spectrum;
* ``runge_kutta`` -- integrate the Liouville equation with fixed-step
  classical RK4.  For a linear autonomous equation one RK4 substep is
  exactly the degree-4 Taylor polynomial of the step propagator, so the
  composed map over all substeps is that polynomial raised to the
  substep count; it is evaluated by binary matrix powers, which is
  algebraically the same iteration without the Python-loop cost.

The default substep count keeps (spectral radius of H) * dt <= 1/30, so
the integrator resolves the fast oscillation of period ~ 1/delta that
far-off-resonant collisions carry.

`propagate` steps any fixed linear map with per-step checks; the collision
sequence and the master equations of `lindblad` both run on it, and share
`rk4_step_matrix` for their RK4 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NumericError
from .model import ModelParams, QUTRIT_SPACE, ancilla_pair, build_h_prime, build_v
from .operators import (
    DensityOperator,
    anticommutator,
    batch_check_states,
    commutator,
    density_operator,
    expm_hermitian_propagator,
    kron,
    partial_trace_matrix,
)
from .trajectory import Trajectory

STEP_TRACE_TOL = 1e-10
CUMULATIVE_TRACE_TOL = 1e-8
STEP_HERMITICITY_TOL = 1e-10
# The collision tolerances, as keyword arguments of `batch_check_states`.
STEP_TOLERANCES = dict(step_trace_tol=STEP_TRACE_TOL, cumulative_trace_tol=CUMULATIVE_TRACE_TOL,
                       hermiticity_tol=STEP_HERMITICITY_TOL)

# Invariants are verified for every step, but in blocks of this many
# states so the eigenvalue checks run as one batched LAPACK call.
CHECK_BLOCK = 4096


@dataclass(frozen=True)
class PropagatorChoice:
    """Evolution strategy for a collision unitary.

    ``substeps`` applies to the runge_kutta variant only; ``None`` means
    the documented default rule (see `default_substeps`).
    """

    variant: str = "spectral"
    substeps: int | None = None

    def __post_init__(self):
        if self.variant not in ("spectral", "runge_kutta"):
            raise ValueError(f"unknown propagator variant {self.variant!r}")
        if self.substeps is not None and self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")


def default_substeps(h: np.ndarray, tau: float) -> int:
    """Substep count such that (spectral radius of h) * dt <= 1/30.

    The spectral radius is at least the detuning for the original
    collision Hamiltonian, so the rule resolves the fast oscillation;
    basing it on the actual spectrum also covers zero-detuning and
    effective-Hamiltonian propagation, whose fast scale is set by the
    coupling instead.  The 30x oversampling keeps the accumulated
    phase error of the degree-4 substep under 1e-7 across the longest
    shipped runs (300 collisions at detuning 200).
    """
    radius = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return max(1, math.ceil(30.0 * radius * tau))


def liouvillian_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of ``x -> -i[h, x]`` acting on row-major vectorized operators."""
    dim = h.shape[0]
    eye = np.eye(dim, dtype=complex)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def rk4_step_matrix(a: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of ``x' = a x``: the degree-4 Taylor polynomial of ``exp(a dt)``."""
    dim = a.shape[0]
    m = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 5):
        term = term @ a * (dt / k)
        m = m + term
    return m


def collision_superoperator(h: np.ndarray, eta1: np.ndarray, eta2: np.ndarray,
                            tau: float, prop: PropagatorChoice) -> np.ndarray:
    """The 9x9 map ``vec(rho_S) -> vec(Tr_A[U (eta1 (x) eta2 (x) rho_S) U+])``.

    ``h`` acts on the 12-dimensional joint space in A1 (x) A2 (x) S order.
    """
    if h.shape != (12, 12):
        raise ValueError(f"collision Hamiltonian must be 12x12, got {h.shape}")
    eta12 = np.kron(eta1, eta2)
    try:
        if prop.variant == "spectral":
            w = expm_hermitian_propagator(h, tau)
            w4 = w.reshape(4, 3, 4, 3)
            m = np.einsum("aick,cd,ajdl->ijkl", w4, eta12, w4.conj())
        else:
            substeps = prop.substeps if prop.substeps is not None else default_substeps(h, tau)
            step = rk4_step_matrix(liouvillian_superop(h), tau / substeps)
            full = np.linalg.matrix_power(step, substeps)
            p8 = full.reshape(4, 3, 4, 3, 4, 3, 4, 3)
            m = np.einsum("aiajckdl,cd->ijkl", p8, eta12)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"collision propagator failed: {exc}") from exc
    return m.reshape(9, 9)


def as_qutrit_matrix(rho_s: DensityOperator | np.ndarray) -> np.ndarray:
    """Coerce a system state, or a stack of them, to 3x3, zero-padding 2-level ones."""
    mat = rho_s.matrix if isinstance(rho_s, DensityOperator) else np.asarray(rho_s, dtype=complex)
    if mat.shape[-2:] == (3, 3):
        return np.array(mat, dtype=complex)
    if mat.shape[-2:] == (2, 2):
        out = np.zeros(mat.shape[:-2] + (3, 3), dtype=complex)
        out[..., :2, :2] = mat
        return out
    raise ValueError(f"system state must be 2x2 or 3x3, got {mat.shape}")


def propagate(step_map: np.ndarray, mat0: np.ndarray, n: int, dt: float,
              space: tuple[tuple[str, int], ...], *, snapshot_stride: int,
              step_trace_tol: float, cumulative_trace_tol: float,
              hermiticity_tol: float, context: str) -> Trajectory:
    """Apply ``step_map`` ``n`` times to the row-major vectorized ``mat0``.

    Entry ``i`` is the state after ``i`` steps, at time ``i * dt``; each is
    checked by `batch_check_states`, whose errors name ``context`` and the
    step.  Two-level populations are zero-padded to three levels, and
    every ``snapshot_stride``-th state (0: none) is kept in ``space``.
    """
    d = mat0.shape[0]
    pops = np.zeros((n + 1, 3))
    pops[0, :d] = np.real(np.diag(mat0))
    snapshots: list[tuple[int, DensityOperator]] = []
    if snapshot_stride:
        snapshots.append((0, density_operator(mat0.copy(), space, validate=False)))

    vec = mat0.reshape(d * d)
    trace = float(np.real(np.trace(mat0)))
    buf = np.empty((min(CHECK_BLOCK, n), d * d), dtype=complex)
    done = 0
    while done < n:
        block = min(CHECK_BLOCK, n - done)
        for i in range(block):
            vec = step_map @ vec
            buf[i] = vec
        states = buf[:block].reshape(block, d, d)
        trace = batch_check_states(
            states, done + 1, trace,
            step_trace_tol=step_trace_tol,
            cumulative_trace_tol=cumulative_trace_tol,
            hermiticity_tol=hermiticity_tol,
            context=context,
        )
        pops[done + 1: done + 1 + block, :d] = np.real(np.einsum("nii->ni", states))
        if snapshot_stride:
            # first block index whose absolute step lands on the stride
            first_kept = (-(done + 1)) % snapshot_stride
            for i in range(first_kept, block, snapshot_stride):
                snapshots.append((done + 1 + i, density_operator(
                    states[i].copy(), space, validate=False)))
        done += block

    times = np.arange(n + 1) * dt
    return Trajectory(steps=np.arange(n + 1), times=times, populations=pops,
                      snapshots=tuple(snapshots)).validate()


def collision_step(rho_s: DensityOperator, p: ModelParams, h: np.ndarray,
                   prop: PropagatorChoice = PropagatorChoice()) -> DensityOperator:
    """One ancilla-refresh / collide / trace-out cycle on the system state.

    Preserves the trace to 1e-10 and returns a state passing all
    density-operator invariants.
    """
    mat = as_qutrit_matrix(rho_s)
    eta1, eta2 = ancilla_pair(p)
    m = collision_superoperator(h, eta1.matrix, eta2.matrix, p.tau, prop)
    out = (m @ mat.reshape(9)).reshape(3, 3)
    batch_check_states(out[None], 1, float(np.real(np.trace(mat))), **STEP_TOLERANCES)
    return density_operator(out, QUTRIT_SPACE)


def run_collisions(rho0: DensityOperator, p: ModelParams, mode: str,
                   prop: PropagatorChoice = PropagatorChoice(), *,
                   snapshot_stride: int = 10) -> Trajectory:
    """Iterate ``p.n_steps`` collisions and record populations per step.

    ``mode`` selects the collision Hamiltonian: ``"original"`` uses the
    accurate three-level Hamiltonian, ``"effective"`` the eliminated-level
    exchange Hamiltonian (whose dynamics never touch level 2).  The
    returned trajectory has ``n_steps + 1`` entries including the initial
    state; every intermediate state is checked against the
    density-operator invariants, and a violation aborts with the
    offending step index.  ``snapshot_stride = 0`` disables full-state
    snapshots.
    """
    if mode == "original":
        h = build_h_prime(p)
    elif mode == "effective":
        h = build_v(p)
    else:
        raise ValueError(f"mode must be 'original' or 'effective', got {mode!r}")

    eta1, eta2 = ancilla_pair(p)
    m = collision_superoperator(h, eta1.matrix, eta2.matrix, p.tau, prop)

    mat = as_qutrit_matrix(rho0)
    density_operator(mat, QUTRIT_SPACE)  # validate the initial state
    return propagate(m, mat, p.n_steps, p.tau, QUTRIT_SPACE,
                     snapshot_stride=snapshot_stride, context="step", **STEP_TOLERANCES)


def closed_evolution(sigma0: DensityOperator, h: np.ndarray, t_grid,
                     *, snapshot_stride: int = 0) -> Trajectory:
    """Evolve a joint state unitarily and sample system populations.

    No ancilla refresh: ``sigma(t) = exp(-i h t) sigma0 exp(+i h t)``
    evaluated spectrally on each grid point.  When ``sigma0`` is pure,
    the global purity is monitored and must stay constant to 1e-10.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d time list")
    if t[0] < 0:
        raise ValueError("t_grid must start at a nonnegative time")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if sigma0.dim != h.shape[0]:
        raise ValueError(f"state dim {sigma0.dim} does not match Hamiltonian {h.shape}")
    if "S" not in sigma0.labels:
        raise ValueError("joint state must contain the system label 'S'")

    herm = float(np.max(np.abs(h - h.conj().T)))
    if herm > 1e-10:
        raise ValueError(f"Hamiltonian is not Hermitian (deviation {herm:.3e})")
    try:
        evals, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolve failed: {exc}") from exc

    sig0 = q.conj().T @ sigma0.matrix @ q
    purity0 = sigma0.purity()
    track_purity = purity0 >= 1.0 - 1e-12

    dims = tuple(d for _, d in sigma0.space)
    s_pos = sigma0.labels.index("S")
    s_dim = dims[s_pos]

    pops = np.zeros((t.size, 3))
    snapshots: list[tuple[int, DensityOperator]] = []
    for i, ti in enumerate(t):
        phases = np.exp(-1j * evals * ti)
        sig_t = (phases[:, None] * phases.conj()[None, :]) * sig0
        if track_purity:
            purity = float(np.real(np.sum(np.abs(sig_t) ** 2)))
            if abs(purity - purity0) > 1e-10:
                raise InvariantViolation(
                    f"purity drifted by {purity - purity0:.3e} at grid point {i}"
                )
        full = q @ sig_t @ q.conj().T
        reduced = partial_trace_matrix(full, dims, (s_pos,))
        pops[i, :s_dim] = np.real(np.diag(reduced))
        if snapshot_stride and i % snapshot_stride == 0:
            snapshots.append((i, density_operator(reduced, (("S", s_dim),), validate=False)))

    return Trajectory(steps=np.arange(t.size), times=t, populations=pops,
                      snapshots=tuple(snapshots)).validate()


def second_order_map(rho_s: DensityOperator | np.ndarray, p: ModelParams) -> np.ndarray:
    """Second-order-in-tau increment of one effective collision.

    Returns the traceless Hermitian 3x3 increment
    ``Tr_A(-i tau [V, sigma] + tau^2 (V sigma V - [sigma, V^2]_+ / 2))``
    with ``sigma`` the joint pre-collision product state.  The linear
    term vanishes under the ancilla trace for thermal (diagonal)
    ancillas, which is what makes the continuous-time limit purely
    dissipative.
    """
    v = build_v(p)
    eta1, eta2 = ancilla_pair(p)
    sigma = kron(eta1.matrix, eta2.matrix, as_qutrit_matrix(rho_s))
    first = -1j * p.tau * commutator(v, sigma)
    second = p.tau**2 * (v @ sigma @ v - 0.5 * anticommutator(sigma, v @ v))
    return partial_trace_matrix(first + second, (2, 2, 3), (2,))
