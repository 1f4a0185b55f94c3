"""Stroboscopic repeated-interaction dynamics.

One collision step: prepare fresh thermal ancillas, evolve the joint
state ``eta1 (x) eta2 (x) rho_S`` unitarily for the collision duration,
then trace the ancillas out.  Because each step applies the same unitary
to the same ancilla preparation, the whole step is one fixed linear map
on the reduced system state.  That map is precomputed once per run, and
`propagate` applies its powers to whole blocks of steps at once, which
keeps hundred-thousand-collision runs cheap.

Both propagators build that map from one formula.  With the collision
Hamiltonian ``H = q diag(e) q+``, each eigenbasis entry ``|j><k|`` of the
joint state is scaled by a factor ``F_jk`` of the gap ``e_j - e_k``, and
then the ancillas are traced out:

* ``spectral`` -- ``F_jk = exp(-i (e_j - e_k) tau)``, exact unitary evolution;
* ``runge_kutta`` -- fixed-step classical RK4 on the Liouville equation.
  The Liouvillian ``x -> -i[H, x]`` has eigenvalue ``-i(e_j - e_k)`` on
  ``|j><k|``, so each substep multiplies that entry by RK4's stability
  function ``T4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` at
  ``z = -i(e_j - e_k) dt``, and ``F_jk`` is that factor raised to the
  substep count: the same iteration, evaluated in closed form.

The default substep count keeps (spectral radius of H) * dt <= 1/30, so
the integrator resolves the fast oscillation of period ~ 1/delta that
far-off-resonant collisions carry.

`propagate` steps any fixed linear map with per-step checks; the collision
sequence and the master equations of `lindblad` both run on it.  It
reaches each block of ``STEP_BLOCK`` states with one product against a
table of the map's powers, and hops from block to block with the map's
``STEP_BLOCK``-th power taken in extended precision, so that rounding
does not compound over a long relaxation (see `propagate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NumericError
from .model import ModelParams, QUTRIT_SPACE, ancilla_pair, build_h_prime, build_v
from .operators import (
    DensityOperator,
    TRACE_TOL,
    anticommutator,
    batch_check_states,
    commutator,
    density_operator,
    kron,
    partial_trace_matrix,
    require_hermitian,
)
from .trajectory import Trajectory

STEP_TRACE_TOL = 1e-10
CUMULATIVE_TRACE_TOL = 1e-8
STEP_HERMITICITY_TOL = 1e-10
# The collision tolerances, as keyword arguments of `batch_check_states`.
STEP_TOLERANCES = dict(step_trace_tol=STEP_TRACE_TOL, cumulative_trace_tol=CUMULATIVE_TRACE_TOL,
                       hermiticity_tol=STEP_HERMITICITY_TOL)

# RK4 on x' = -i theta x / dt keeps |T4(-i theta)| <= 1 only for |theta| <= 2 sqrt(2).
RK4_STABILITY_BOUND = 2.0 * math.sqrt(2.0)

# Invariants are verified for every step, but in blocks of this many
# states so each check runs as one vectorized pass, and the few states
# whose positivity the Gershgorin discs cannot certify share one
# batched `eigvalsh` call.
CHECK_BLOCK = 4096
# `propagate` computes this many consecutive states with one product.
STEP_BLOCK = 128
# `closed_evolution` evaluates this many grid points per batched product,
# and the last block also takes a lone point left over, so that no block of
# a grid of 2 or more points is a one-point vector-matrix product.
# A block's phases and amplitudes take at most 12 complex numbers per point
# each, about 100 kB; on a 2000-point grid 64 runs about 2x slower than 512,
# and 2048 is no faster (timings in CHANGES.md).
GRID_BLOCK = 512


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
    return _substeps_for_spectrum(np.linalg.eigvalsh(h), tau)


def _substeps_for_spectrum(e: np.ndarray, tau: float) -> int:
    """The `default_substeps` rule for a Hamiltonian with eigenvalues ``e``."""
    radius = float(np.max(np.abs(e)))
    return max(1, math.ceil(30.0 * radius * tau))


def _rk4_power_factors(e: np.ndarray, dt: float, substeps: int) -> np.ndarray:
    """``F_jk = T4(-i (e_j - e_k) dt) ** substeps`` for RK4's stability function ``T4``.

    With ``theta = (e_j - e_k) dt``, ``T4(-i theta) = 1 - theta^2/2 +
    theta^4/24 - i (theta - theta^3/6)`` and ``|T4|^2 = 1 - theta^6/72 +
    theta^8/576``.  The power is taken in polar form from these exact
    polynomials, so the per-substep gain, which differs from 1 by about
    theta^6, keeps its relative accuracy over many substeps.
    """
    theta = (e[:, None] - e[None, :]) * dt
    t2 = theta * theta
    log_gain = 0.5 * np.log1p(t2**3 * (t2 / 576 - 1 / 72))
    phase = np.arctan2(-theta * (1 - t2 / 6), 1 - t2 / 2 * (1 - t2 / 12))
    return np.exp(substeps * (log_gain + 1j * phase))


def collision_superoperator(h: np.ndarray, eta1: np.ndarray, eta2: np.ndarray,
                            tau: float, prop: PropagatorChoice) -> np.ndarray:
    """The 9x9 map ``vec(rho_S) -> vec(Tr_A[U (eta1 (x) eta2 (x) rho_S) U+])``.

    ``h`` acts on the 12-dimensional joint space in A1 (x) A2 (x) S order
    and must be Hermitian; ``prop`` selects the factor ``F`` of the module's
    eigenbasis formula.  Raises `NumericError` when the eigensolve fails or
    a runge_kutta substep count is unstable: the map is not finite, or some
    ``|e_j - e_k| dt`` exceeds RK4's stability bound ``2 sqrt(2)``.
    """
    if h.shape != (12, 12):
        raise ValueError(f"collision Hamiltonian must be 12x12, got {h.shape}")
    try:
        e, q = np.linalg.eigh(require_hermitian(h))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"collision propagator failed: {exc}") from exc
    # x -> q (F o (q+ x q)) q+ on x = eta12 (x) rho_S, then the ancilla trace
    q4 = q.reshape(4, 3, 12)
    out = np.einsum("aij,alk->iljk", q4, q4.conj()).reshape(9, 144)
    into = np.einsum("bij,bc,clk->jkil", q4.conj(), kron(eta1, eta2), q4)
    with np.errstate(over="ignore", invalid="ignore"):  # runge_kutta failures are flagged below
        if prop.variant == "spectral":
            f = np.exp(-1j * tau * (e[:, None] - e[None, :]))
        else:
            substeps = prop.substeps if prop.substeps is not None else _substeps_for_spectrum(e, tau)
            dt = tau / substeps
            f = _rk4_power_factors(e, dt, substeps)
        m = out @ (f[:, :, None, None] * into).reshape(144, 9)
    if prop.variant == "runge_kutta":
        if not np.all(np.isfinite(m)):
            raise NumericError(f"collision map is not finite: {substeps} runge_kutta "
                               "substeps are unstable for this collision")
        # |T4(-i theta)| > 1 exactly when |theta| > 2 sqrt(2): such a map is finite but wrong
        theta_max = (e[-1] - e[0]) * dt
        if theta_max > RK4_STABILITY_BOUND:
            raise NumericError(
                f"{substeps} runge_kutta substeps are unstable for this collision: "
                f"max |e_j - e_k| dt = {theta_max:.4g} exceeds RK4's stability "
                f"bound 2*sqrt(2) = {RK4_STABILITY_BOUND:.4g}")
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


def _snapshot_steps(count: int, stride: int) -> np.ndarray:
    """Every ``stride``-th index below ``count`` (0: none); any stride past the end keeps index 0."""
    return np.arange(0, count, min(stride, count)) if stride else np.zeros(0, int)


def propagate(step_map: np.ndarray, mat0: np.ndarray, n: int, dt: float, *,
              snapshot_stride: int, step_trace_tol: float, cumulative_trace_tol: float,
              hermiticity_tol: float, context: str) -> Trajectory:
    """Apply ``step_map`` ``n`` times to the row-major vectorized ``mat0``.

    Entry ``i`` is the state after ``i`` steps, at time ``i * dt`` for a
    positive finite ``dt``; each is checked by `batch_check_states`, whose
    errors name ``context`` and the step.  Two-level populations are
    zero-padded to three levels, and every ``snapshot_stride``-th state
    (0: none) is kept.

    States are computed ``STEP_BLOCK`` at a time from the state ``s``
    before the block: state ``s + j`` is ``step_map^j`` from a
    double-precision power table applied to state ``s``, and the last
    state of a full block, from which the next block starts, is the hop
    ``step_map^STEP_BLOCK`` applied to state ``s``.  A rounding error in
    a power acts like a perturbed map.  In the table it reaches only the
    states of one block, but a perturbed hop is applied again in every
    block and would compound over a long relaxation (to about 1e-12 in
    50 000 steps), so the hop is powered in ``np.clongdouble`` and
    rounded once.
    """
    if n and not 0 < dt < math.inf:
        raise InvariantViolation(f"times are not strictly increasing and finite: dt = {dt}")
    d = mat0.shape[0]
    dd = d * d
    pops = np.zeros((n + 1, 3))
    pops[0, :d] = np.real(np.diag(mat0))
    snapshot_steps = _snapshot_steps(n + 1, snapshot_stride)
    snapshot_states = np.empty((len(snapshot_steps), d, d), dtype=complex)
    snapshot_states[:1] = mat0  # step 0, when snapshots are kept

    b = min(STEP_BLOCK, n)
    powers = np.empty((b, dd, dd), dtype=complex)  # powers[k] = step_map^(k + 1)
    powers[:1] = step_map  # empty when n = 0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite states fail the checks
        filled = 1
        while filled < b:
            k = min(filled, b - filled)
            np.matmul(powers[filled - 1], powers[:k], out=powers[filled:filled + k])
            filled += k
        if n >= STEP_BLOCK:
            hop = np.linalg.matrix_power(step_map.astype(np.clongdouble), STEP_BLOCK).astype(complex)
    table = powers.reshape(b * dd, dd)

    vec = mat0.reshape(dd)
    trace = float(np.real(np.trace(mat0)))
    buf = np.empty((min(CHECK_BLOCK, n), dd), dtype=complex)
    done = 0
    while done < n:
        block = min(CHECK_BLOCK, n - done)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, block, STEP_BLOCK):
                m = min(STEP_BLOCK, block - start)
                np.matmul(table[:m * dd], vec, out=buf[start:start + m].reshape(m * dd))
                if m == STEP_BLOCK:
                    np.matmul(hop, vec, out=buf[start + m - 1])
                vec = buf[start + m - 1].copy()
        states = buf[:block].reshape(block, d, d)
        trace = batch_check_states(
            states, done + 1, trace,
            step_trace_tol=step_trace_tol,
            cumulative_trace_tol=cumulative_trace_tol,
            hermiticity_tol=hermiticity_tol,
            context=context,
        )
        pops[done + 1: done + 1 + block, :d] = np.real(np.einsum("nii->ni", states))
        lo, hi = np.searchsorted(snapshot_steps, (done + 1, done + block + 1))
        snapshot_states[lo:hi] = states[snapshot_steps[lo:hi] - (done + 1)]
        done += block

    return Trajectory(steps=np.arange(n + 1), times=np.arange(n + 1) * dt, populations=pops,
                      snapshot_steps=snapshot_steps, snapshot_states=snapshot_states)


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
    snapshots.  A non-positive or non-finite ``p.tau`` raises `ValueError`
    before the map is built.
    """
    if not (math.isfinite(p.tau) and p.tau > 0):
        raise ValueError(f"collision runs need a positive, finite tau, got {p.tau}")
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
    return propagate(m, mat, p.n_steps, p.tau, snapshot_stride=snapshot_stride,
                     context="step", **STEP_TOLERANCES)


def closed_evolution(psi0, h: np.ndarray, t_grid, *, snapshot_stride: int = 0) -> Trajectory:
    """Evolve pure joint start amplitudes unitarily and sample system populations.

    ``psi0`` holds the 12 amplitudes in the A1 (x) A2 (x) S order of
    `model.basis_index`; another shape, or ``||psi0||^2`` off 1 by more
    than `TRACE_TOL`, raises `ValueError`.  No ancilla refresh: ``psi(t) =
    q (exp(-i e t) o q+ psi0)`` comes from the spectrum ``h = q diag(e)
    q+`` for ``GRID_BLOCK`` grid points at a time, over the eigenvectors
    with a nonzero overlap ``q+ psi0`` only.  The system populations are
    ``sum_a |psi_{a,s}|^2`` over the ancilla index ``a``, and snapshots
    are the reduced states ``sum_a psi_{a,s} psi*_{a,s'}``.  The global
    purity ``||psi(t)||^4`` must stay within 1e-10 of ``||psi0||^4``.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d time list")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_grid must be finite")
    if t[0] < 0:
        raise ValueError("t_grid must start at a nonnegative time")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (12,) or h.shape != (12, 12):
        raise ValueError(f"need 12 start amplitudes and a 12x12 h, got {psi0.shape}, {h.shape}")
    norm2 = float(np.vdot(psi0, psi0).real)
    if not abs(norm2 - 1.0) <= TRACE_TOL:
        raise ValueError(f"start amplitudes must have unit norm, got |psi0|^2 = {norm2:.12g}")
    purity0 = norm2**2

    try:
        evals, q = np.linalg.eigh(require_hermitian(h))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolve failed: {exc}") from exc

    c0 = q.conj().T @ psi0
    # eigencomponents psi0 does not occupy add exact zeros to psi(t): skip them
    occupied = c0 != 0
    evals, c0, q = evals[occupied], c0[occupied], q[:, occupied]

    pops = np.zeros((t.size, 3))
    snapshot_steps = _snapshot_steps(t.size, snapshot_stride)
    snapshot_states = np.empty((len(snapshot_steps), 3, 3), dtype=complex)
    edges = [*range(0, max(t.size - 1, 1), GRID_BLOCK), t.size]
    for start, stop in zip(edges, edges[1:]):
        tb = t[start:stop]
        psi = ((np.exp(-1j * evals * tb[:, None]) * c0) @ q.T).reshape(len(tb), 4, 3)
        block_pops = np.sum(psi.real**2 + psi.imag**2, axis=1)
        purity = np.sum(block_pops, axis=1) ** 2
        bad = np.flatnonzero(~(np.abs(purity - purity0) <= 1e-10))
        if bad.size:
            i = int(bad[0])
            raise InvariantViolation(
                f"purity drifted by {purity[i] - purity0:.3e} at grid point {start + i}"
            )
        pops[start:stop] = block_pops
        lo, hi = np.searchsorted(snapshot_steps, (start, stop))
        kept = psi[snapshot_steps[lo:hi] - start]
        snapshot_states[lo:hi] = np.einsum("nas,nat->nst", kept, kept.conj())

    return Trajectory(steps=np.arange(t.size), times=t, populations=pops,
                      snapshot_steps=snapshot_steps, snapshot_states=snapshot_states)


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
