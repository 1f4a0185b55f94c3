"""Exception types shared across the package, and its trace tolerance.

Plain ``ValueError`` is used for bad arguments to library functions
(dimension mismatches, out-of-domain parameters).  The classes below
exist so the CLI can map failures to distinct exit codes.
"""

# How far a density operator's trace, or a config's start populations, may
# sum away from 1; defined here so that config validation needs no numpy.
TRACE_TOL = 1e-10


class ConfigError(ValueError):
    """Invalid or incomplete scenario configuration (CLI exit code 2)."""


class NumericError(RuntimeError):
    """Numerical failure during a run (CLI exit code 3)."""


class InvariantViolation(NumericError):
    """A state failed its density-operator invariants mid-run."""
