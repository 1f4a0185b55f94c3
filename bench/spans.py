"""Spans recorded from outside the program, around calls into its layers.

`instrument` replaces, for the duration of a ``with`` block, the module
attributes through which ``collisim`` callers look up each layer's public
functions (for example ``collisim.scenarios.run_collisions``) with wrappers
that record a span and, where the layer has one, a work count.  Nothing
under ``src/`` is edited; leaving the block restores every attribute.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    repeat: int


class Tracer:
    """In-memory span and count store; spans of one repeat share its id."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.repeat = -1
        self._stack: list[int] = []

    def begin_repeat(self, repeat: int) -> None:
        self.repeat = repeat
        self.counts = defaultdict(float)

    def wrap(self, name: str | None, fn, count=None):
        """``fn`` with a span named ``name`` (none if None) and ``count(counts, args, result)``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[sid] = Span(name, start, end, parent, self.repeat)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def write_csv(self, path: Path) -> None:
        """One line per span: id, name, start, end, parent, repeat (times in seconds)."""
        lines = ["id,name,start,end,parent,repeat"]
        lines += [f"{i},{s.name},{s.start:.9f},{s.end:.9f},{s.parent},{s.repeat}"
                  for i, s in enumerate(self.spans)]
        path.write_text("\n".join(lines) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


# Layer groups reported as ``<group>.self_ms``: each sums the self time of
# the listed span names.  Every span the benchmark records belongs to one.
LAYER_GROUPS = {
    "cli.main": ("cli.main",),
    "config.load_config": ("config.load_config",),
    "scenarios.run_scenario": ("scenarios.run_scenario",),
    "model.hamiltonians": ("model.build_h_prime", "model.build_h_eff", "model.build_v"),
    "model.derive_rates": ("model.derive_rates",),
    "collision.collision_superoperator": ("collision.collision_superoperator",),
    "collision.run_collisions": ("collision.run_collisions",),
    "collision.closed_evolution": ("collision.closed_evolution",),
    "operators.batch_check_states": ("operators.batch_check_states",),
    "operators.partial_trace_matrix": ("operators.partial_trace_matrix",),
    "operators.trace_distance": ("operators.trace_distance",),
    "lindblad.generators": ("lindblad.generator_effective_qubit",
                            "lindblad.generator_qutrit_two_bath",
                            "lindblad.generator_superoperator"),
    "lindblad.integrate": ("lindblad.integrate",),
    "trajectory.validate": ("trajectory.validate",),
    "scenarios.metrics": ("scenarios.metrics",),
    "scenarios.write_trajectory_csv": ("scenarios.write_trajectory_csv",),
    "scenarios.write_report_files": ("scenarios.write_report_files",),
}


def _rows(*keys, steps=()):
    """Count the rows of a returned trajectory under ``keys`` and its steps under ``steps``."""
    def count(counts, args, result):
        for key in keys:
            counts[key] += len(result)
        for key in steps:
            counts[key] += len(result) - 1
    return count


def _file_bytes(key, names=None):
    def count(counts, args, result):
        target = Path(args[0])
        for path in ([target / n for n in names] if names else [target]):
            counts[key] += path.stat().st_size
    return count


def _states(counts, args, result):
    counts["operators.states_checked"] += args[0].shape[0]


def targets():
    """(owner, attribute, span name, counter) for every replaced lookup."""
    from collisim import cli, collision, lindblad, scenarios, trajectory

    return [
        (cli, "load_config", "config.load_config", None),
        (cli, "run_scenario", "scenarios.run_scenario", None),
        (scenarios, "run_scenario", "scenarios.run_scenario", None),
        (scenarios, "build_h_prime", "model.build_h_prime", None),
        (scenarios, "build_h_eff", "model.build_h_eff", None),
        (scenarios, "derive_rates", "model.derive_rates", None),
        (scenarios, "run_collisions", "collision.run_collisions", _rows(steps=("collision.collisions",))),
        (scenarios, "closed_evolution", "collision.closed_evolution", _rows("collision.grid_points")),
        (scenarios, "generator_effective_qubit", "lindblad.generator_effective_qubit", None),
        (scenarios, "generator_qutrit_two_bath", "lindblad.generator_qutrit_two_bath", None),
        (scenarios, "integrate", "lindblad.integrate", _rows("lindblad.rows_integrated", steps=("lindblad.me_steps",))),
        (scenarios, "subsample", None, _rows("lindblad.rows_kept")),
        (scenarios, "metrics", "scenarios.metrics", None),
        (scenarios, "trace_distance", "operators.trace_distance", None),
        (scenarios, "write_trajectory_csv", "scenarios.write_trajectory_csv",
         _file_bytes("scenarios.csv_bytes")),
        (scenarios, "write_report_files", "scenarios.write_report_files",
         _file_bytes("scenarios.report_bytes", ("report.kv", "report.txt"))),
        (collision, "build_h_prime", "model.build_h_prime", None),
        (collision, "build_v", "model.build_v", None),
        (collision, "collision_superoperator", "collision.collision_superoperator", None),
        (collision, "batch_check_states", "operators.batch_check_states", _states),
        (collision, "partial_trace_matrix", "operators.partial_trace_matrix", None),
        (lindblad, "batch_check_states", "operators.batch_check_states", _states),
        (lindblad, "generator_superoperator", "lindblad.generator_superoperator", None),
        (trajectory.Trajectory, "validate", "trajectory.validate", None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    saved = []
    try:
        for owner, attr, name, count in targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
