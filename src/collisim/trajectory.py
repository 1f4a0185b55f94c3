"""Time series of system-level populations, shared by both engines.

Stroboscopic (collision-step) and continuous-time (master-equation) runs
produce the same shape: one row per sample with the three system-level
populations.  Two-level effective states are zero-padded on level 2 so
every trajectory is directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation

POPULATION_SUM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Populations indexed by step and physical time (units 1/g).

    ``snapshot_states`` optionally carries full reduced states, shape
    ``(m, d, d)``, at the steps ``snapshot_steps``, shape ``(m,)``, chosen
    by the producer.  Trajectories compare by identity: their fields are
    arrays, which have no single truth value to compare by.
    """

    steps: np.ndarray
    times: np.ndarray
    populations: np.ndarray
    snapshot_steps: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int), repr=False)
    snapshot_states: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3), dtype=complex),
                                        repr=False)

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=int)
        times = np.asarray(self.times, dtype=float)
        pops = np.asarray(self.populations, dtype=float)
        if not (len(steps) == len(times) == len(pops)):
            raise ValueError("steps, times, populations must have equal length")
        if pops.ndim != 2 or pops.shape[1] != 3:
            raise ValueError(f"populations must have shape (n, 3), got {pops.shape}")
        snap_steps = np.asarray(self.snapshot_steps, dtype=int)
        snap_states = np.asarray(self.snapshot_states, dtype=complex)
        if snap_steps.ndim != 1 or snap_states.ndim != 3 or len(snap_steps) != len(snap_states):
            raise ValueError(f"snapshot steps and states must have shapes (m,) and (m, d, d), "
                             f"got {snap_steps.shape} and {snap_states.shape}")
        for arr, name in ((steps, "steps"), (times, "times"), (pops, "populations"),
                          (snap_steps, "snapshot_steps"), (snap_states, "snapshot_states")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.times)

    def validate(self) -> "Trajectory":
        """Check finiteness, population normalization and time ordering."""
        for arr, name in ((self.times, "times"), (self.populations, "populations")):
            bad_rows = np.nonzero(~np.isfinite(arr))[0]
            if len(bad_rows):
                raise InvariantViolation(f"non-finite {name} at entry {int(bad_rows[0])}")
        sums = self.populations.sum(axis=1)
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > POPULATION_SUM_TOL:
            idx = int(np.argmax(np.abs(sums - 1.0)))
            raise InvariantViolation(
                f"populations at entry {idx} sum to {sums[idx]:.12f} (deviation {worst:.3e})"
            )
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise InvariantViolation("times are not strictly increasing")
        return self

    def final_window_mean(self, frac: float = 0.1) -> np.ndarray:
        """Mean populations over the trailing ``frac`` of the entries."""
        n = max(1, int(round(frac * len(self))))
        return self.populations[-n:].mean(axis=0)
