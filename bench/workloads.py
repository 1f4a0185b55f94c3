"""Seeded workloads: the config files each benchmark workload runs.

A seed draws only physics parameters (``x1``, ``x2``, ``delta``); sizes are
fixed, so the work per repeat does not depend on the seed.  Detunings are
drawn one per stratum of their range, which keeps the integrator work of a
pass (it grows with ``delta`` in ``beyond-far-off``) nearly constant across
seeds.  Every parameter range was chosen so that each run ends with its
workload's expected exit code at any seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Run:
    """One CLI invocation: ``collisim <command> <config> --output-dir <dir>``."""

    name: str
    command: str
    params: tuple[tuple[str, object], ...]
    expected_exit: int

    @property
    def config(self) -> dict:
        return dict(self.params)

    def config_text(self) -> str:
        lines = []
        for key, value in self.params:
            if isinstance(value, tuple):
                value = ", ".join(map(repr, value))
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs: tuple[Run, ...]


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of ``n`` equal slices of [lo, hi)."""
    return [round(lo + (hi - lo) * (i + rng.random()) / n, 4) for i in range(n)]


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def long_relax(seed: int) -> Workload:
    rng = random.Random(seed)
    run = Run("long_relax", "run", (
        ("scenario", "collision-vs-me"),
        ("delta", 200.0),
        ("x1", _u(rng, -0.5, 0.5)),
        ("x2", _u(rng, -0.5, 0.5)),
        ("alpha_tau", 0.01),
        ("n_steps", 50000),
        ("snapshot_stride", 10),
    ), expected_exit=1)
    return Workload(
        "long_relax",
        "short collisions where the effective-qubit equation fails; stepping, checks, "
        "integration and CSV output dominate",
        (run,),
    )


def small_batch(seed: int) -> Workload:
    rng = random.Random(seed)
    runs = []
    for i, delta in enumerate(_strata(rng, 150.0, 250.0, 16)):
        prop = "spectral" if i % 2 == 0 else "runge_kutta"
        runs.append(Run(f"cvm_{i:02d}", "run", (
            ("scenario", "collision-vs-me"),
            ("delta", delta),
            ("x1", _u(rng, -0.5, 0.5)),
            ("x2", _u(rng, -0.5, 0.5)),
            ("alpha_tau", 0.3),
            ("n_steps", 300),
            ("propagator", prop),
        ), expected_exit=0))
    for i, delta in enumerate(_strata(rng, 150.0, 250.0, 12)):
        # x2 - x1 >= 0.7 keeps the inversion clear of the finite-run residue.
        x1 = _u(rng, 0.2, 0.8)
        runs.append(Run(f"neg_{i:02d}", "run", (
            ("scenario", "negative-temperature"),
            ("delta", delta),
            ("x1", x1),
            ("x2", round(x1 + rng.uniform(0.7, 1.3), 4)),
            ("alpha_tau", 0.3),
        ), expected_exit=0))
    for i, delta in enumerate(_strata(rng, 0.5, 4.0, 12)):
        runs.append(Run(f"bfo_{i:02d}", "run", (
            ("scenario", "beyond-far-off"),
            ("delta", delta),
            ("x1", _u(rng, 0.5, 1.5)),
            ("x2", _u(rng, 1.5, 2.5)),
            ("tau", 0.05),
            ("n_steps", 400),
        ), expected_exit=0))
    return Workload(
        "small_batch",
        "a 40-run parameter scan where per-run set-up (superoperator, generators, "
        "output files) dominates",
        tuple(runs),
    )


def closed_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    run = Run("closed_sweep", "sweep", (
        ("scenario", "sweep"),
        ("sweep_scenario", "verify-elimination"),
        ("sweep_param", "delta"),
        ("sweep_values", tuple(_strata(rng, 25.0, 100.0, 4))),
        ("n_grid", 2000),
        ("workers", 1),
    ), expected_exit=0)
    return Workload(
        "closed_sweep",
        "closed evolution and partial traces only, with no collision stepping and no "
        "master equation",
        (run,),
    )


WORKLOADS = {f.__name__: f for f in (long_relax, small_batch, closed_sweep)}
