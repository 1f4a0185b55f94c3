"""Named experiments: run, compare, and report.

Each scenario produces trajectory CSV files and a two-part report
(human-readable ``report.txt``, machine-readable ``report.kv``) in its
output directory, plus a `ComparisonReport` with pass/fail checks at the
scenario's documented tolerances.  Outputs are deterministic: rerunning
a config yields byte-identical files.

Comparisons between stroboscopic and continuous-time trajectories avoid
interpolation error: the master equation takes one step of its exact map
``exp(G tau)`` per collision, so its times are the collision times ``j *
tau`` bit for bit.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from itertools import takewhile
from pathlib import Path

import numpy as np

from .collision import as_qutrit_matrix, closed_evolution, run_collisions
from .config import ScenarioConfig, sweep_points
from .errors import ConfigError, NumericError
from .lindblad import (
    LindbladGenerator,
    generator_effective_qubit,
    generator_qutrit_two_bath,
    integrate,
    steady_residual,
)
from .model import (
    ModelParams,
    basis_index,
    bath_rates,
    build_h_eff,
    build_h_prime,
    derive_rates,
)
from .operators import thermal_qubit, trace_distance
from .trajectory import Trajectory

# Fraction of a relaxation margin used when defaulting the collision count:
# enough steps that Gamma * n * tau >= 5, with a floor wide enough to show
# the developed dynamics.
RELAXATION_TARGET = 5.0
MIN_DEFAULT_STEPS = 300

CSV_HEADER = "step,t_in_inverse_g,p0,p1,p2,source"
# The one number format of every output file: 12 significant digits.
FLOAT_FMT = "%.12g"
# The output stage's block: the CSV rows `write_trajectory_csv` formats at once,
# the state pairs `_trace_distance_table` gathers and diagonalizes at once, and
# the trace-distance rows `write_report_files` formats at once.  Its transient
# memory is one block's, whatever the run's length.
CSV_CHUNK = 1024


@dataclass(frozen=True)
class CheckResult:
    """One tolerance check: ``value`` compared against ``threshold``."""

    name: str
    value: float
    threshold: float
    comparison: str  # "<=" or ">="
    passed: bool


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Deterministically ordered scenario outcome.

    ``trace_distances`` is a read-only ``(m, 2)`` float array of ``(time,
    trace distance)`` rows; a report without the table has ``m = 0``.
    Reports compare by identity, as trajectories do: the table is an array,
    which has no single truth value to compare by.
    """

    scenario: str
    checks: tuple[CheckResult, ...]
    metrics: tuple[tuple[str, float], ...]
    trace_distances: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, value: float, threshold: float, comparison: str = "<=") -> CheckResult:
    ok = value <= threshold if comparison == "<=" else value >= threshold
    return CheckResult(name, float(value), float(threshold), comparison, bool(ok))


def metrics(a: Trajectory, b: Trajectory) -> tuple[float, float, float]:
    """Each level's largest population deviation between two trajectories on one time grid."""
    # the bit-equal grids every scenario compares need no full-length float temporaries
    if not (len(a) == len(b) and (np.array_equal(a.times, b.times)
                                  or np.allclose(a.times, b.times, rtol=0, atol=1e-9))):
        raise ValueError("trajectories are on different grids; resampling not permitted")
    d = np.empty(len(a))  # one full-length buffer holds each level's |x - y| in turn
    return tuple(float(np.max(np.abs(np.subtract(x, y, out=d), out=d)))
                 for x, y in zip(a.populations.T, b.populations.T))


# ---------------------------------------------------------------------------
# building blocks shared by the scenarios


def model_params(cfg: ScenarioConfig, n_steps: int = 1) -> ModelParams:
    return ModelParams(
        delta=cfg.delta,
        x1=cfg.x1 if cfg.x1 is not None else 0.0,
        x2=cfg.x2 if cfg.x2 is not None else 0.0,
        tau=cfg.effective_tau(),
        n_steps=n_steps,
    )


def default_collision_count(p: ModelParams, relaxation_rate: float) -> int:
    """Steps so the run covers ``RELAXATION_TARGET`` relaxation units; raises when
    that count is not finite, as when ``rate * tau`` underflows to 0."""
    per_step = relaxation_rate * p.tau
    steps = RELAXATION_TARGET / per_step if per_step > 0 else math.inf
    if steps == math.inf:
        raise NumericError(f"default n_steps {RELAXATION_TARGET} / (relaxation rate * tau) "
                           f"is not finite; give n_steps")
    return max(MIN_DEFAULT_STEPS, math.ceil(steps))


# No caller here: bench/spans.py still wraps scenarios.subsample by name.
def subsample(traj: Trajectory, every: int) -> Trajectory:
    """Every ``every``-th entry; its rows, and so its steps, renumber by position."""
    if every == 1:
        return traj
    keep = traj.snapshot_steps % every == 0
    return Trajectory(times=traj.times[::every], populations=traj.populations[::every],
                      snapshot_steps=traj.snapshot_steps[keep] // every,
                      snapshot_states=traj.snapshot_states[keep])


def _trace_distance_table(traj: Trajectory, steps: np.ndarray, a: np.ndarray, ia: np.ndarray,
                          b: np.ndarray, ib: np.ndarray | None = None) -> np.ndarray:
    """The read-only ``(time, trace distance)`` rows for the states ``a[ia]`` and
    ``b[ib]`` at ``steps``, as an ``(m, 2)`` array.

    ``traj`` supplies the time of each step.  Without ``ib``, ``b`` is one
    matrix set against every state.  Two-level ``b`` matrices are zero-padded.
    The pairs are gathered, padded and passed to `trace_distance` one block of
    at most ``CSV_CHUNK`` at a time, so the table's transient memory does not
    grow with the run; ``eigvalsh`` diagonalizes each matrix on its own, so
    the blocks give the bits of one whole-stack call.
    """
    table = np.empty((len(steps), 2))
    table[:, 0] = traj.times[steps]
    for start in range(0, len(steps), CSV_CHUNK):
        block = slice(start, start + CSV_CHUNK)
        other = as_qutrit_matrix(b if ib is None else b[ib[block]])
        table[block, 1] = trace_distance(a[ia[block]], other)
    table.flags.writeable = False
    return table


def _snapshot_trace_distances(a: Trajectory, b: Trajectory) -> np.ndarray:
    """Trace distances between full states at matched snapshot steps."""
    steps, ia, ib = np.intersect1d(a.snapshot_steps, b.snapshot_steps, return_indices=True)
    return _trace_distance_table(a, steps, a.snapshot_states, ia, b.snapshot_states, ib)


# ---------------------------------------------------------------------------
# the scenarios


def run_verify_elimination(cfg: ScenarioConfig) -> tuple[ComparisonReport, dict[str, Trajectory]]:
    """Closed-evolution agreement between the original and eliminated-level
    Hamiltonians on the two-ancilla excitation-exchange protocol."""
    p = ModelParams(delta=cfg.delta)
    alpha = derive_rates(p).alpha
    t_max = cfg.alpha_t_max / alpha
    if not math.isfinite(t_max):
        raise NumericError(f"time span alpha_t_max / alpha = {t_max} is not finite")
    ratio, r = 50.0 / p.delta, 1.0 / p.delta
    dev_tol, p2_tol = 0.02 * (ratio * ratio), 6.0 * (r * r)
    if not math.isfinite(dev_tol):  # the larger of the two
        raise NumericError(f"deviation tolerance 0.02 * (50 g / delta)^2 = {dev_tol} is not finite")
    t_grid = np.linspace(0.0, t_max, cfg.n_grid)

    psi0 = np.eye(12, dtype=complex)[basis_index(1, 0, 0)]

    stride = max(1, cfg.n_grid // 100)
    orig = closed_evolution(psi0, build_h_prime(p), t_grid, snapshot_stride=stride)
    eff = closed_evolution(psi0, build_h_eff(p), t_grid, snapshot_stride=stride)

    dev = metrics(orig, eff)
    max_p2 = float(np.max(orig.populations[:, 2]))
    cos_defect = float(np.max(np.abs(eff.populations[:, 0] - np.cos(alpha * t_grid) ** 2)))

    checks = (
        _check("max_dev_p0", dev[0], dev_tol),
        _check("max_dev_p1", dev[1], dev_tol),
        _check("max_p2_orig", max_p2, p2_tol),
        _check("effective_p0_cosine_defect", cos_defect, 1e-9),
    )
    report = ComparisonReport(
        scenario=cfg.scenario,
        checks=checks,
        metrics=(
            ("alpha", alpha),
            ("t_max_in_inverse_g", float(t_grid[-1])),
            ("max_dev_p0", dev[0]),
            ("max_dev_p1", dev[1]),
            ("max_p2_orig", max_p2),
            ("effective_p0_cosine_defect", cos_defect),
        ),
        trace_distances=_snapshot_trace_distances(orig, eff),
    )
    return report, {"orig": orig, "eff": eff}


def _collision_run(cfg: ScenarioConfig, p: ModelParams,
                   relaxation_rate: float) -> tuple[ModelParams, Trajectory, np.ndarray]:
    """The collision run of ``cfg`` on ``p``: its parameters, trajectory and initial
    state.  Without ``n_steps``, ``relaxation_rate`` sets the `default_collision_count`."""
    n = cfg.n_steps if cfg.n_steps is not None else default_collision_count(p, relaxation_rate)
    p = replace(p, n_steps=n)
    rho0 = np.diag(cfg.initial_populations).astype(complex)  # run_collisions checks it
    traj = run_collisions(rho0, p, "original", cfg.propagator, snapshot_stride=cfg.snapshot_stride)
    return p, traj, rho0


def _against_master_equation(cfg: ScenarioConfig, p: ModelParams, relaxation_rate: float,
                             gen: LindbladGenerator, source: str, head: tuple[tuple[str, float], ...],
                             ) -> tuple[ComparisonReport, dict[str, Trajectory]]:
    """Exact collision dynamics against the master equation ``gen``, written as ``source``.

    The equation evolves the start state's top-left ``gen.dim`` block one
    ``exp(G tau)`` step per collision; ``relaxation_rate`` sets the default
    collision count.  The metric rows start with ``head``, and the rest follow
    from ``gen.dim``.
    """
    p, exact, rho0 = _collision_run(cfg, p, relaxation_rate)
    me = integrate(gen, rho0[:gen.dim, :gen.dim], p.n_steps * p.tau, p.tau,
                   snapshot_stride=cfg.snapshot_stride)
    dev = metrics(exact, me)
    final_exact = exact.final_window_mean()
    rows = [*head, ("n_steps", float(p.n_steps)),
            *((f"max_dev_p{k}", d) for k, d in enumerate(dev))]
    # the collisions' peak of each level the equation leaves out, then the final populations
    rows += [(f"max_p{k}_exact", float(np.max(exact.populations[:, k])))
             for k in range(gen.dim, len(dev))]
    rows += [(f"final_p{k}_exact", float(final_exact[k])) for k in range(gen.dim)]
    if gen.dim < len(dev):  # a reduced equation also reports its own final populations
        final_me = me.final_window_mean()
        rows += [(f"final_p{k}_me", float(final_me[k])) for k in range(gen.dim)]

    report = ComparisonReport(
        scenario=cfg.scenario,
        checks=(_check("max_abs_dev", max(dev), 0.05),),
        metrics=tuple(rows),
        trace_distances=_snapshot_trace_distances(exact, me),
    )
    return report, {"orig": exact, source: me}


def run_collision_vs_me(cfg: ScenarioConfig) -> tuple[ComparisonReport, dict[str, Trajectory]]:
    """Exact collision dynamics against the effective-qubit master equation."""
    p = model_params(cfg)
    rates = derive_rates(p)
    return _against_master_equation(
        cfg, p, rates.capital_gamma, generator_effective_qubit(rates), "me5",
        (("alpha_tau", rates.alpha * p.tau), ("capital_gamma", rates.capital_gamma)))


def run_negative_temperature(cfg: ScenarioConfig) -> tuple[ComparisonReport, dict[str, Trajectory]]:
    """Population-inverted steady state from collisions and from the
    analytic fixed point of the effective-qubit equation."""
    p = model_params(cfg)
    rates = derive_rates(p)
    p, exact, _ = _collision_run(cfg, p, rates.capital_gamma + rates.lowering_rate)
    gen = generator_effective_qubit(rates)
    analytic = thermal_qubit(rates.x_s)
    residual = steady_residual(gen, analytic)
    approach = _trace_distance_table(exact, exact.snapshot_steps, exact.snapshot_states,
                                     np.arange(len(exact.snapshot_steps)), analytic)

    final = exact.final_window_mean()
    p1_analytic = float(analytic[1, 1].real)
    inversion_expected = rates.x_s < 0
    inversion_seen = final[1] > final[0]

    checks = (
        _check("final_p1_error", abs(final[1] - p1_analytic), 0.02),
        _check("steady_state_residual", residual, 1e-12),
        _check("inversion_matches_sign", float(inversion_seen == inversion_expected), 1.0, ">="),
    )
    report = ComparisonReport(
        scenario=cfg.scenario,
        checks=checks,
        metrics=(
            ("x_s", float(rates.x_s)),
            ("capital_gamma", rates.capital_gamma),
            ("n_steps", float(p.n_steps)),
            ("final_p0_collisions", float(final[0])),
            ("final_p1_collisions", float(final[1])),
            ("analytic_p0", float(analytic[0, 0].real)),
            ("analytic_p1", p1_analytic),
            ("steady_state_residual", residual),
        ),
        trace_distances=approach,
    )
    return report, {"orig": exact}


def run_beyond_far_off(cfg: ScenarioConfig) -> tuple[ComparisonReport, dict[str, Trajectory]]:
    """Exact collision dynamics against the qutrit two-bath master equation
    in the short-collision, modest-detuning regime."""
    p = model_params(cfg)
    return _against_master_equation(
        cfg, p, bath_rates(p, p.x1)[1] + bath_rates(p, p.x2)[1], generator_qutrit_two_bath(p),
        "me10", (("g_tau", p.tau), ("delta_tau", p.delta * p.tau)))


_RUNNERS = {
    "verify-elimination": run_verify_elimination,
    "collision-vs-me": run_collision_vs_me,
    "negative-temperature": run_negative_temperature,
    "beyond-far-off": run_beyond_far_off,
}


# ---------------------------------------------------------------------------
# file output


def _exact_ints(block: np.ndarray) -> np.ndarray | None:
    """The float ``block`` as int64 when ``%d`` prints each value as FLOAT_FMT does, else None.

    That is when every value is an exact integer below 10^12 in magnitude and
    none is -0.0: 12 significant digits print such an integer in full, with no
    point or exponent, but print -0.0 as ``-0`` and 10^12 as ``1e+12``.  The
    last value is tested first, so most blocks that fail cost one scalar test.
    """
    last = block[-1]
    if not (abs(last) < 1e12 and last.is_integer()) or not np.abs(block).max() < 1e12:
        return None
    ints = block.astype(np.int64)
    # bit for bit, so -0.0, which comes back as +0.0, fails with the fractions
    same = np.array_equal(ints.astype(np.float64).view(np.int64), block.view(np.int64))
    return ints if same else None


def _time_cells(times: np.ndarray) -> tuple[str, list]:
    """A block of ``times`` as cells, and their format: ints and ``%d`` where `_exact_ints` allows."""
    ints = _exact_ints(times)
    return (FLOAT_FMT, times.tolist()) if ints is None else ("%d", ints.tolist())


@dataclass(frozen=True, eq=False)
class CsvColumns:
    """The step and time columns of a trajectory CSV, formatted once.

    ``chunks`` holds the step and time text of each ``CSV_CHUNK`` rows, one
    line a row; the population slots are added at write time.  ``times`` is
    the array it was formatted from; each step is its row index.
    """

    times: np.ndarray
    chunks: tuple[bytes, ...]

    def matches(self, traj: Trajectory) -> bool:
        """Whether ``traj`` has these times, and so these steps, bit for bit (-0.0 is not 0.0)."""
        return np.array_equal(self.times.view(np.int64), traj.times.view(np.int64))


def write_trajectory_csv(path: Path, traj: Trajectory, source: str,
                         columns: CsvColumns | None = None) -> CsvColumns:
    """CSV schema: step, t_in_inverse_g, p0, p1, p2, source.

    The step and time columns are formatted once, into one bytes text per
    ``CSV_CHUNK`` rows.  Rows are written a chunk at a time: each line end of
    that text becomes a slot per population and the source, and one ``bytes
    %`` (which writes the bytes ``str %`` would, faster) fills the slots.  So
    the text held between files is the step and time columns only, and the
    text formatted at once is one chunk's.  The columns are returned; passed
    back as ``columns`` for a trajectory whose times match them bit for bit,
    they are reused, so only the populations are formatted.  Any other
    ``columns`` are ignored.

    Every cell has FLOAT_FMT's bytes.  A chunk's times, or one level of its
    populations, that `_exact_ints` passes are written with the faster
    ``%d``, and a level that is +0.0 throughout the chunk as a literal ``0``.
    """
    if columns is None or not columns.matches(traj):
        chunks = []
        for start in range(0, len(traj), CSV_CHUNK):
            # the row index as the step, next to the times, one chunk at a time
            time_fmt, times = _time_cells(traj.times[start:start + CSV_CHUNK])
            cells = [None] * (2 * len(times))
            cells[::2], cells[1::2] = range(start, start + len(times)), times
            chunks.append(("%d," + time_fmt + "\n").encode() * len(times) % tuple(cells))
        columns = CsvColumns(traj.times, tuple(chunks))
    source = source.replace("%", "%%")
    with open(path, "wb") as f:
        f.write(CSV_HEADER.encode() + b"\n")
        for start, text in zip(range(0, len(traj), CSV_CHUNK), columns.chunks):
            pops = traj.populations[start:start + CSV_CHUNK]
            row_end, kept = "", []
            for k, level in enumerate(pops.T):
                ints = _exact_ints(level)
                if ints is None or ints.any():  # `%d` takes the float cells through int()
                    row_end += "," + (FLOAT_FMT if ints is None else "%d")
                    kept.append(k)
                else:  # +0.0 throughout the chunk
                    row_end += ",0"
            row_end = (row_end + "," + source + "\n").encode()
            cells = pops if len(kept) == pops.shape[1] else pops[:, kept]  # a copy only when needed
            f.write(text.replace(b"\n", row_end) % tuple(cells.ravel().tolist()))
    return columns


def write_report_files(out_dir: Path, report: ComparisonReport):
    kv_lines = [f"scenario = {report.scenario}", f"passed = {str(report.passed).lower()}"]
    txt_lines = [f"scenario: {report.scenario}", ""]
    for name, value in report.metrics:
        kv_lines.append(f"{name} = {FLOAT_FMT % value}")
        txt_lines.append(f"  {name:<32s} {FLOAT_FMT % value}")
    txt_lines.append("")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        kv_lines.append(f"check.{c.name} = {status.lower()}")
        txt_lines.append(
            f"  [{status}] {c.name}: {FLOAT_FMT % c.value} {c.comparison} {FLOAT_FMT % c.threshold}"
        )
    table = report.trace_distances
    if len(table):
        kv_lines.append(f"trace_distance_max = {FLOAT_FMT % table[:, 1].max()}")
        txt_lines += ["", "  trace distance (t, value):"]
    (out_dir / "report.kv").write_text("\n".join(kv_lines) + "\n")
    with open(out_dir / "report.txt", "w") as f:
        f.write("\n".join(txt_lines) + "\n")
        for start in range(0, len(table), CSV_CHUNK):
            # one row per (t, value) pair, the time right-aligned in 16 columns
            block = table[start:start + CSV_CHUNK]
            time_fmt, times = _time_cells(block[:, 0])
            cells = [None] * (2 * len(block))
            cells[::2], cells[1::2] = times, block[:, 1].tolist()
            row = "    " + time_fmt.replace("%", "%16") + "  " + FLOAT_FMT + "\n"
            f.write(row * len(block) % tuple(cells))
        f.write(f"\nresult: {'PASS' if report.passed else 'FAIL'}\n")


@contextlib.contextmanager
def _writing_to(target: Path):
    """Report an `OSError` raised while writing under ``target`` as a `ConfigError` (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"output path not writable: {target} ({exc})") from exc


@contextlib.contextmanager
def _output_dir(cfg: ScenarioConfig, output_dir: str | Path | None):
    """The run's output directory, made and probed for writing; if the block fails,
    the directories made here are removed again, deepest first, while empty."""
    if output_dir == "":  # names no directory; None, not "", leaves the config's path
        raise ConfigError("output_dir: must not be empty")
    target = Path(output_dir) if output_dir else Path(cfg.output_path or f"out/{cfg.scenario}")
    made = []
    try:
        with _writing_to(target):  # `exists` raises on an overlong name or an unsearchable directory
            # the ancestors of a directory that exists exist too
            made = list(takewhile(lambda d: not d.exists(), (target, *target.parents)))
            target.mkdir(parents=True, exist_ok=True)
            probe = target / ".write-probe"
            probe.write_text("")
            probe.unlink()
        yield target
    except BaseException:
        for d in made:  # one not made, or not empty, stays
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def run_scenario(cfg: ScenarioConfig, output_dir: str | Path | None = None) -> ComparisonReport:
    """Execute a non-sweep scenario, then write its trajectory and report files."""
    if cfg.scenario == "sweep":
        raise ConfigError("use run_sweep for sweep configs")
    with _output_dir(cfg, output_dir) as out_dir:
        report, trajectories = _RUNNERS[cfg.scenario](cfg)
        columns = None
        with _writing_to(out_dir):
            for source, traj in trajectories.items():
                columns = write_trajectory_csv(out_dir / f"{source}.csv", traj, source, columns)
            del trajectories, traj, columns  # the report needs none of them: free them first
            write_report_files(out_dir, report)
    return report


def run_sweep(cfg: ScenarioConfig, output_dir: str | Path | None = None) -> ComparisonReport:
    """Run one scenario per sweep value, in order and in this process, one subdirectory each."""
    if cfg.scenario != "sweep":
        raise ConfigError("run_sweep requires scenario = sweep")
    with _output_dir(cfg, output_dir) as out_dir:
        dirs = [str(out_dir / f"point_{i:03d}_{cfg.sweep_param}_{value:g}")
                for i, value in enumerate(cfg.sweep_values)]
        reports = list(map(run_scenario, sweep_points(cfg), dirs))

    index_lines = [f"point,{cfg.sweep_param},passed,headline_check,headline_value"]
    checks = []
    metrics_rows: list[tuple[str, float]] = []
    for i, (value, report) in enumerate(zip(cfg.sweep_values, reports)):
        head = report.checks[0]
        index_lines.append(
            f"{i},{FLOAT_FMT % value},{str(report.passed).lower()},{head.name},{FLOAT_FMT % head.value}"
        )
        checks.append(_check(f"point_{i:03d}_passed", float(report.passed), 1.0, ">="))
        metrics_rows.append((f"point_{i:03d}_{cfg.sweep_param}", float(value)))
        metrics_rows.append((f"point_{i:03d}_{head.name}", head.value))
    report = ComparisonReport(
        scenario=f"sweep({cfg.sweep_scenario})",
        checks=tuple(checks),
        metrics=(("sweep_points", float(len(reports))), *metrics_rows),
    )
    with _writing_to(out_dir):
        (out_dir / "index.csv").write_text("\n".join(index_lines) + "\n")
        write_report_files(out_dir, report)
    return report
