"""Exception types shared across the package, and every state-invariant bound.

Plain ``ValueError`` is used for bad arguments to library functions
(dimension mismatches, out-of-domain parameters).  The classes below
exist so the CLI can map failures to distinct exit codes.  The bounds live
here, with no numpy, so that config validation can share them.
"""

from math import inf
from typing import NamedTuple

# How far a density operator's trace, or a config's start populations, may
# sum away from 1.
TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
MIN_EIGENVALUE = -1e-9
# Gershgorin discs certify positivity only when they clear MIN_EIGENVALUE
# by this much, far above the rounding of `eigvalsh` and of the bound for a
# unit-trace state, so near-boundary states still go to `eigvalsh`.
CERT_SLACK = 1e-12
# How far `closed_evolution`'s global purity may drift from its start value.
PURITY_DRIFT_TOL = 1e-10
# How far a `LindbladGenerator`'s Hamiltonian part may be from Hermitian.
HAMILTONIAN_HERMITICITY_TOL = 1e-12


class Bounds(NamedTuple):
    """The per-step bounds of one stepping engine, and the word its errors name a step by."""

    step_trace: float  # trace change from the previous state
    cumulative_trace: float  # |trace - 1|
    hermiticity: float  # max |a_ij - conj(a_ji)|
    context: str


COLLISION_BOUNDS = Bounds(1e-10, 1e-8, 1e-10, "step")
# The master-equation step map moves the trace by rounding only, so the
# integrator bounds the total drift.
INTEGRATOR_BOUNDS = Bounds(inf, 1e-9, 1e-12, "integrator step")
# A start state has no step before it, so a bad trace reads as != 1, not as a drift.
START_BOUNDS = Bounds(inf, TRACE_TOL, HERMITICITY_TOL, "start state")


class ConfigError(ValueError):
    """Invalid or incomplete scenario configuration (CLI exit code 2)."""


class NumericError(RuntimeError):
    """Numerical failure during a run (CLI exit code 3)."""


class InvariantViolation(NumericError):
    """A state failed its density-operator invariants mid-run."""
