"""Dense complex linear algebra and quantum-state primitives.

Everything operates on square ``complex128`` numpy arrays.  Multipartite
operators follow a fixed row-major tensor convention: the joint space is
ordered ancilla-1 (dim 2), ancilla-2 (dim 2), system qutrit (dim 3), so a
product basis state ``|a1, a2, s>`` has flat index ``a1*6 + a2*3 + s``.
All Hilbert-space dimensions in this package are small (<= 16), so every
matrix is dense.  The ``spectral`` collision map and closed evolution
exponentiate a dense eigendecomposition, so their joint evolution is
unitary up to solver accuracy.  The ``runge_kutta`` collision map is a
power of RK4's stability function ``T4``, whose gain ``|T4(-i theta)|`` is
below 1 for real ``theta != 0``, so it is not unitary, and neither is a
master-equation step, the dissipative map ``exp(G dt)``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CERT_SLACK, HERMITICITY_TOL, MIN_EIGENVALUE, START_BOUNDS, Bounds, InvariantViolation


def transition(dim: int, k: int, kp: int) -> np.ndarray:
    """Level transition / population operator ``|k><kp|`` on a dim-level space."""
    op = np.zeros((dim, dim), dtype=complex)
    op[k, kp] = 1.0
    return op


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of one or more operators, left factor slowest (row-major)."""
    out = np.asarray(ops[0], dtype=complex)
    for op in map(np.asarray, ops[1:]):
        # numpy's kron multiply, broadcast without its set-up cost: the same bits
        out = (out[:, None, :, None] * op[None, :, None, :]).reshape(
            out.shape[0] * op.shape[0], out.shape[1] * op.shape[1])
    return out


def require_hermitian(h: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """``h`` as a complex array; ValueError unless Hermitian within ``tol``.

    ``eigh`` reads one triangle only, so every eigendecomposition of a
    generator goes through this check first.
    """
    h = np.asarray(h, dtype=complex)
    dev = float(hermiticity_defect(h))
    if not dev <= tol:
        raise ValueError(f"generator is not Hermitian (max deviation {dev:.3e} > {tol:.0e})")
    return h


def density_operator(matrix: np.ndarray, space: tuple[tuple[str, int], ...]) -> np.ndarray:
    """A read-only complex copy of ``matrix``, checked as a state on ``space``.

    ``space`` is a tuple of ``(label, dim)`` pairs in tensor order, e.g.
    ``(("S", 3),)``; a shape other than the product of its dims raises
    `ValueError`.  `batch_check_states` checks it under `START_BOUNDS`, and a
    failure raises `InvariantViolation` naming "start state 0": states are
    never silently renormalized, so integrator bugs stay visible.
    """
    mat = np.array(matrix, dtype=complex)
    dim = math.prod(d for _, d in space)
    if mat.shape != (dim, dim):
        raise ValueError(
            f"matrix shape {mat.shape} does not match space {tuple(space)} (total dim {dim})")
    batch_check_states(mat[None], 0, 1.0, START_BOUNDS)
    mat.flags.writeable = False
    return mat


def thermal_populations(x: float) -> tuple[float, float]:
    """Ground and excited populations ``(p0, p1)`` of a qubit with thermal exponent ``x``.

    ``x`` is the level splitting times the inverse temperature: ``p1 = 1/(e^x + 1)``
    and ``p1/p0 = e^-x``, so a negative ``x`` inverts the pair.  Each population
    takes the logistic form, finite for any finite ``x``, but ``p0 = 1 - p1`` at
    ``x >= 0``, where ``p1 <= 1/2`` cancels nothing: each is accurate to a few
    ulp of itself, however small.  This is the one ``exp`` of a thermal
    exponent: every ancilla state and every rate comes from it.  A non-finite
    ``x`` raises ValueError.
    """
    if not math.isfinite(x):
        raise ValueError(f"thermal exponent must be finite, got {x}")
    if x >= 0:
        w = math.exp(-x)
        p_excited = w / (1.0 + w)
        return 1.0 - p_excited, p_excited
    w = math.exp(x)
    return w / (1.0 + w), 1.0 / (1.0 + w)


def thermal_qubit(x: float) -> np.ndarray:
    """Read-only Gibbs state ``diag(p0, p1)`` from `thermal_populations`, basis order
    (ground, excited): each bath's ancilla and, at ``x = x_s``, the effective qubit's
    analytic fixed point."""
    mat = np.diag(thermal_populations(x)).astype(complex)
    mat.flags.writeable = False
    return mat


def partial_trace_matrix(mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of a raw matrix, or a stack of them, over the factors not in ``keep``.

    ``mat`` has shape ``(..., D, D)`` with ``D = prod(dims)``; the leading
    axes are a stack and are kept.  ``dims`` are the factor dimensions in
    tensor order; ``keep`` holds the indices of the factors to retain, in
    their original order.
    """
    n = len(dims)
    tensor = mat.reshape(mat.shape[:-2] + dims + dims)
    # einsum index layout: bra indices 0..n-1, ket indices n..2n-1; traced
    # factors share one index on both sides.
    bra = list(range(n))
    ket = [i + n if i in keep else i for i in range(n)]
    out = np.einsum(tensor, [Ellipsis] + bra + ket)
    kept_dim = math.prod(dims[i] for i in keep)
    return out.reshape(mat.shape[:-2] + (kept_dim, kept_dim))


def fold(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)`` with the same bits, up to the sign of a NaN.

    numpy takes about 60 ns a row to reduce a short last axis, so rows shorter
    than 8, which numpy sums in index order from the identity, are folded one
    column at a time.  1-D input and longer rows are one ``ufunc.reduce``."""
    if a.ndim < 2 or not 0 < a.shape[-1] < 8:
        return ufunc.reduce(a, axis=-1)
    out = a[..., 0].copy() if ufunc.identity is None else ufunc(ufunc.identity, a[..., 0])
    for k in range(1, a.shape[-1]):
        ufunc(out, a[..., k], out=out)
    return out


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of ``a - b``.

    Either argument may be a stack of shape ``(..., d, d)``; the two
    broadcast against each other and one ``eigvalsh`` call covers the
    whole stack.  Returns a float for a single pair of matrices and an
    array of distances for a stack.
    """
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    evals = np.linalg.eigvalsh(0.5 * (diff + np.swapaxes(diff, -1, -2).conj()))
    dist = 0.5 * fold(np.add, np.abs(evals))
    return float(dist) if dist.ndim == 0 else dist


@functools.cache
def _disc_layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of a d x d matrix that `eigvalsh` reads, as flat indices:
    the diagonal, then the strict lower triangle; the flat indices of their
    mirrors across the diagonal; and the 0/1 matrix that adds the modulus of
    each lower entry to the Gershgorin radii of its row and of its column."""
    rows, cols = np.tril_indices(d, -1)
    incidence = np.zeros((len(rows), d))
    incidence[np.arange(len(rows)), rows] = 1.0
    incidence[np.arange(len(rows)), cols] = 1.0
    diag = np.arange(d) * (d + 1)
    layout = (np.r_[diag, rows * d + cols], np.r_[diag, cols * d + rows], incidence)
    for a in layout:
        a.flags.writeable = False
    return layout


def hermiticity_defect(a: np.ndarray) -> np.ndarray:
    """``max_ij |a_ij - conj(a_ji)|`` of each matrix of a ``(..., d, d)`` stack.

    Read from the entries `eigvalsh` reads against their mirrors: the same
    bits as the full matrix, as ``|x - conj(y)| = |y - conj(x)|``.  A
    non-finite entry makes it NaN or inf, which fails ``defect <= tol``."""
    d = a.shape[-1]
    read, mirror, _ = _disc_layout(d)
    flat = a.reshape(a.shape[:-2] + (d * d,))
    with np.errstate(over="ignore", invalid="ignore"):
        if a.shape[:-2] in ((), (1,)):  # one gathered max; the pair loop below is slower here
            return np.max(np.abs(flat[..., read] - flat[..., mirror].conj()), axis=-1)
        out = np.zeros(a.shape[:-2])  # every |.| is +0 or more, or NaN
        for r, m in zip(read.tolist(), mirror.tolist()):
            np.maximum(out, np.abs(flat[..., r] - flat[..., m].conj()), out=out)
        return out


def _first_not_positive(states: np.ndarray) -> tuple[int, float] | None:
    """Index and smallest eigenvalue of the first state below `MIN_EIGENVALUE`, or None.

    ``states`` is a finite ``(n, d, d)`` stack of states that passed a
    trace check, so each has trace close to 1.  A state passes without an
    eigensolve when its Gershgorin bound ``min_i(a_ii - sum_{j!=i} |a_ij|)``
    clears ``MIN_EIGENVALUE`` by ``CERT_SLACK``; the rest go to one batched
    `eigvalsh`.  The bound is taken from the matrix that `eigvalsh`
    diagonalizes (lower triangle mirrored, real diagonal), so it is a sound
    lower bound for it.  Once every disc clears, the spectral norm is at
    most the trace plus ``(d - 1) |MIN_EIGENVALUE|``, so the slack exceeds
    the rounding error of both sides and the verdict, the index and the
    eigenvalue are those of `eigvalsh` on the whole stack.
    """
    n, d = states.shape[0], states.shape[-1]
    read, _, incidence = _disc_layout(d)
    flat = states.reshape(n, d * d)
    bound = fold(np.minimum, flat[:, read[:d]].real - np.abs(flat[:, read[d:]]) @ incidence)
    pending = np.flatnonzero(~(bound >= MIN_EIGENVALUE + CERT_SLACK))
    if not pending.size:
        return None
    min_eigs = np.linalg.eigvalsh(states[pending])[:, 0]
    not_positive = ~(min_eigs >= MIN_EIGENVALUE)
    if not np.any(not_positive):
        return None
    i = int(np.argmax(not_positive))
    return int(pending[i]), float(min_eigs[i])


def batch_check_states(states: np.ndarray, first_step: int, prev_trace: float,
                       bounds: Bounds) -> float:
    """Density-operator invariant checks over a block of consecutive states.

    ``states`` has shape (n, d, d); entry i is the state after step
    ``first_step + i``.  Raises `InvariantViolation` naming the first
    offending step as ``bounds.context``; a state with a non-finite entry,
    and any NaN, fails.
    Returns the trace of the last state so the caller can chain blocks.
    Every state is checked for its step and cumulative trace and its
    Hermiticity; positivity is certified by Gershgorin discs, and only the
    states the discs cannot certify go to one batched `eigvalsh`, with the
    same verdict and message as an eigensolve of every state.
    """
    step_trace_tol, cumulative_trace_tol, hermiticity_tol, context = bounds
    # Overflowing or NaN results fail the `~(value <= tol)` tests below; a
    # non-finite entry always makes the Hermiticity defect NaN or inf.
    with np.errstate(over="ignore", invalid="ignore"):
        traces = np.real(np.einsum("nii->n", states))
        prev = np.concatenate(([prev_trace], traces[:-1]))
        drift = np.abs(traces - prev)
        trace_err = np.abs(traces - 1.0)
    herm = hermiticity_defect(states)
    bad = (
        ~(drift <= step_trace_tol)
        | ~(trace_err <= cumulative_trace_tol)
        | ~(herm <= hermiticity_tol)
    )
    # Positivity is checked up to the first state failing the tests above,
    # so no non-finite state reaches the certificate or `eigvalsh`.
    n_ok = int(np.argmax(bad)) if np.any(bad) else len(states)
    failure = _first_not_positive(states[:n_ok])
    if failure is not None:
        i, min_eig = failure
        raise InvariantViolation(f"min eigenvalue {min_eig:.3e} at {context} {first_step + i}")
    if n_ok < len(states):
        i, step = n_ok, first_step + n_ok
        if not np.all(np.isfinite(states[i])):
            raise InvariantViolation(f"non-finite entry at {context} {step}")
        if not drift[i] <= step_trace_tol:
            raise InvariantViolation(f"trace drifted by {traces[i] - prev[i]:.3e} at {context} {step}")
        if not trace_err[i] <= cumulative_trace_tol:
            raise InvariantViolation(f"trace {traces[i]:.12f} != 1 at {context} {step}")
        raise InvariantViolation(f"Hermiticity defect {herm[i]:.3e} at {context} {step}")
    return float(traces[-1])
