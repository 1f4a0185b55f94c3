"""Dense complex linear algebra and quantum-state primitives.

Everything operates on square ``complex128`` numpy arrays.  Multipartite
operators follow a fixed row-major tensor convention: the joint space is
ordered ancilla-1 (dim 2), ancilla-2 (dim 2), system qutrit (dim 3), so a
product basis state ``|a1, a2, s>`` has flat index ``a1*6 + a2*3 + s``.
All Hilbert-space dimensions in this package are small (<= 16); dense
eigendecompositions are used throughout, never series approximations, so
propagators are unitary up to solver accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Invariant tolerances for density operators.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
MIN_EIGENVALUE = -1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def transition(dim: int, k: int, kp: int) -> np.ndarray:
    """Level transition / population operator ``|k><kp|`` on a dim-level space."""
    op = np.zeros((dim, dim), dtype=complex)
    op[k, kp] = 1.0
    return op


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of one or more operators, left factor slowest (row-major)."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ab - ba``.  Raises ValueError on dimension mismatch."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a

def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ab + ba``.  Raises ValueError on dimension mismatch."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b + b @ a


def is_hermitian(a: np.ndarray, tol: float) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_unitary(a: np.ndarray, tol: float) -> bool:
    eye = np.eye(a.shape[0])
    return bool(np.max(np.abs(a @ a.conj().T - eye)) <= tol)


def expm_hermitian_propagator(h: np.ndarray, t: float, *, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Unitary ``exp(-i h t)`` of a Hermitian generator via eigendecomposition.

    The spectral route is exact in exact arithmetic (no truncation) and
    returns a matrix unitary to solver accuracy, which downstream trace
    and positivity checks rely on.

    Parameters
    ----------
    h : Hermitian matrix (checked against `tol`, max elementwise deviation).
    t : evolution time, in units of the inverse of h's energy unit.

    Raises
    ------
    ValueError
        If ``h`` is not Hermitian within `tol`.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tol):
        dev = float(np.max(np.abs(h - h.conj().T)))
        raise ValueError(f"generator is not Hermitian (max deviation {dev:.3e} > {tol:.0e})")
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * evals * t)
    return (vecs * phases) @ vecs.conj().T


@dataclass(frozen=True)
class DensityOperator:
    """A labeled density matrix on an ordered tensor-product space.

    ``space`` is a tuple of ``(label, dim)`` pairs in tensor order, e.g.
    ``(("A1", 2), ("A2", 2), ("S", 3))`` for the tripartite collision
    space.  The matrix is stored read-only; operations never mutate or
    silently renormalize a state -- invariant violations raise
    diagnostics instead, so integrator bugs stay visible.
    """

    space: tuple[tuple[str, int], ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        dim = math.prod(d for _, d in self.space)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match space {self.space} (total dim {dim})"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.space)

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal of the matrix."""
        return np.real(np.diag(self.matrix)).copy()

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def validate(self, *, context: str = "") -> "DensityOperator":
        """Check Hermiticity, unit trace, and positivity; raise on failure."""
        from .errors import InvariantViolation

        where = f" ({context})" if context else ""
        herm = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if herm > HERMITICITY_TOL:
            raise InvariantViolation(f"state not Hermitian{where}: max deviation {herm:.3e}")
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"state trace {tr:.12f} != 1{where}")
        min_eig = float(np.linalg.eigvalsh(self.matrix)[0])
        if min_eig < MIN_EIGENVALUE:
            raise InvariantViolation(f"state not positive{where}: min eigenvalue {min_eig:.3e}")
        return self


def density_operator(matrix: np.ndarray, space: tuple[tuple[str, int], ...],
                     validate: bool = True) -> DensityOperator:
    """Wrap a matrix as a labeled state, validating invariants by default."""
    rho = DensityOperator(space=tuple(space), matrix=matrix)
    if validate:
        rho.validate()
    return rho


def thermal_qubit(x: float, label: str = "A") -> DensityOperator:
    """Gibbs state of a qubit with dimensionless thermal exponent ``x``.

    ``x`` is the level splitting times the inverse temperature.  Basis
    order is (|0>, |1>) = (ground, excited); the excited population is
    ``1/(e^x + 1)`` and the ground population ``e^x/(e^x + 1)``, so the
    population ratio p1/p0 equals ``e^-x``.  Negative ``x`` yields an
    inverted (negative-temperature) ancilla.

    Raises
    ------
    ValueError
        If ``x`` is not finite.
    """
    if not math.isfinite(x):
        raise ValueError(f"thermal exponent must be finite, got {x}")
    # Logistic form, stable for large |x|.
    if x >= 0:
        w = math.exp(-x)
        p_excited = w / (1.0 + w)
    else:
        w = math.exp(x)
        p_excited = 1.0 / (1.0 + w)
    mat = np.diag([1.0 - p_excited, p_excited]).astype(complex)
    return DensityOperator(space=((label, 2),), matrix=mat)


def partial_trace_matrix(mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of a raw matrix over the factors not in ``keep``.

    ``dims`` are the factor dimensions in tensor order; ``keep`` holds the
    indices of the factors to retain, in their original order.
    """
    n = len(dims)
    tensor = mat.reshape(dims + dims)
    # einsum index layout: bra indices 0..n-1, ket indices n..2n-1; traced
    # factors share one index on both sides.
    bra = list(range(n))
    ket = [i + n if i in keep else i for i in range(n)]
    out = np.einsum(tensor, bra + ket)
    kept_dim = math.prod(dims[i] for i in keep)
    return out.reshape(kept_dim, kept_dim)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every subsystem whose label is not in ``keep``.

    The kept labels retain their original order.  Unknown labels raise a
    ValueError; the trace is preserved to numerical precision.
    """
    keep_set = set(keep) if not isinstance(keep, str) else {keep}
    labels = rho.labels
    unknown = keep_set - set(labels)
    if unknown:
        raise ValueError(f"unknown subsystem label(s) {sorted(unknown)}; state has {list(labels)}")
    if not keep_set:
        raise ValueError("must keep at least one subsystem")
    keep_idx = tuple(i for i, lab in enumerate(labels) if lab in keep_set)
    dims = tuple(d for _, d in rho.space)
    reduced = partial_trace_matrix(rho.matrix, dims, keep_idx)
    new_space = tuple(rho.space[i] for i in keep_idx)
    return DensityOperator(space=new_space, matrix=reduced)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of ``a - b``.

    Either argument may be a stack of shape ``(..., d, d)``; the two
    broadcast against each other and one ``eigvalsh`` call covers the
    whole stack.  Returns a float for a single pair of matrices and an
    array of distances for a stack.
    """
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    evals = np.linalg.eigvalsh(0.5 * (diff + np.swapaxes(diff, -1, -2).conj()))
    dist = 0.5 * np.sum(np.abs(evals), axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def batch_check_states(states: np.ndarray, first_step: int, prev_trace: float, *,
                       step_trace_tol: float, cumulative_trace_tol: float,
                       hermiticity_tol: float, context: str = "step") -> float:
    """Density-operator invariant checks over a block of consecutive states.

    ``states`` has shape (n, d, d); entry i is the state after step
    ``first_step + i``.  Raises `InvariantViolation` naming the first
    offending step.  Returns the trace of the last state so the caller
    can chain blocks.  Batching the checks keeps hundred-thousand-step
    runs fast without weakening the per-step guarantees.
    """
    from .errors import InvariantViolation

    traces = np.real(np.einsum("nii->n", states))
    prev = np.concatenate(([prev_trace], traces[:-1]))
    drift = np.abs(traces - prev)
    herm = np.max(np.abs(states - states.conj().transpose(0, 2, 1)), axis=(1, 2))
    min_eigs = np.linalg.eigvalsh(states)[:, 0]

    bad = (
        (drift > step_trace_tol)
        | (np.abs(traces - 1.0) > cumulative_trace_tol)
        | (herm > hermiticity_tol)
        | (min_eigs < MIN_EIGENVALUE)
    )
    if np.any(bad):
        i = int(np.argmax(bad))
        step = first_step + i
        if drift[i] > step_trace_tol:
            raise InvariantViolation(f"trace drifted by {traces[i] - prev[i]:.3e} at {context} {step}")
        if abs(traces[i] - 1.0) > cumulative_trace_tol:
            raise InvariantViolation(f"trace {traces[i]:.12f} != 1 at {context} {step}")
        if herm[i] > hermiticity_tol:
            raise InvariantViolation(f"Hermiticity defect {herm[i]:.3e} at {context} {step}")
        raise InvariantViolation(f"min eigenvalue {min_eigs[i]:.3e} at {context} {step}")
    return float(traces[-1])
