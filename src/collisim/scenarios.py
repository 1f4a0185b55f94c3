"""Named experiments: run, compare, and report.

Each scenario produces trajectory CSV files and a two-part report
(human-readable ``report.txt``, machine-readable ``report.kv``) in its
output directory, plus a `ComparisonReport` with pass/fail checks at the
scenario's documented tolerances.  Outputs are deterministic: rerunning
a config yields byte-identical files.

Comparisons between stroboscopic and continuous-time trajectories avoid
interpolation error by integrating the master equation with a step that
divides the collision duration, so the integrator lands exactly on the
collision times.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .collision import PropagatorChoice, as_qutrit_matrix, closed_evolution, run_collisions
from .config import ScenarioConfig, sweep_point_config, validate_config
from .errors import ConfigError
from .lindblad import (
    DT_MARGIN,
    LindbladGenerator,
    generator_effective_qubit,
    generator_qutrit_two_bath,
    integrate,
    steady_residual,
)
from .model import (
    ModelParams,
    basis_index,
    bath_rate,
    build_h_eff,
    build_h_prime,
    derive_rates,
    steady_state_qubit,
)
from .operators import DensityOperator, density_operator, trace_distance
from .trajectory import Trajectory

# Fraction of a relaxation margin used when defaulting the collision count:
# enough steps that Gamma * n * tau >= 5, with a floor wide enough to show
# the developed dynamics.
RELAXATION_TARGET = 5.0
MIN_DEFAULT_STEPS = 300

CSV_HEADER = "step,t_in_inverse_g,p0,p1,p2,source"
# The one number format of every output file: 12 significant digits.
FLOAT_FMT = "%.12g"
# Rows per write in `write_trajectory_csv`; bounds the text formatted at once.
CSV_CHUNK = 4096


@dataclass(frozen=True)
class CheckResult:
    """One tolerance check: ``value`` compared against ``threshold``."""

    name: str
    value: float
    threshold: float
    comparison: str  # "<=" or ">="
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Deterministically ordered scenario outcome."""

    scenario: str
    checks: tuple[CheckResult, ...]
    metrics: tuple[tuple[str, float], ...]
    trace_distances: tuple[tuple[float, float], ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, value: float, threshold: float, comparison: str = "<=") -> CheckResult:
    ok = value <= threshold if comparison == "<=" else value >= threshold
    return CheckResult(name, float(value), float(threshold), comparison, bool(ok))


@dataclass(frozen=True)
class MetricsFragment:
    max_abs_dev: tuple[float, float, float]
    final_window_a: tuple[float, float, float]
    final_window_b: tuple[float, float, float]

    @property
    def max_dev(self) -> float:
        return max(self.max_abs_dev)


def metrics(a: Trajectory, b: Trajectory) -> MetricsFragment:
    """Per-level population deviations between two trajectories on a common time grid."""
    if not (len(a) == len(b) and np.allclose(a.times, b.times, rtol=0, atol=1e-9)):
        raise ValueError("trajectories are on different grids; resampling not permitted")
    dev = np.abs(a.populations - b.populations)
    return MetricsFragment(
        max_abs_dev=tuple(float(v) for v in dev.max(axis=0)),
        final_window_a=tuple(float(v) for v in a.final_window_mean()),
        final_window_b=tuple(float(v) for v in b.final_window_mean()),
    )


# ---------------------------------------------------------------------------
# building blocks shared by the scenarios


def initial_system_state(cfg: ScenarioConfig) -> DensityOperator:
    if cfg.initial_state == "ground_S":
        pops = (1.0, 0.0, 0.0)
    else:
        pops = cfg.initial_populations
    return density_operator(np.diag(pops).astype(complex), (("S", 3),))


def model_params(cfg: ScenarioConfig, n_steps: int = 1) -> ModelParams:
    return ModelParams(
        delta=cfg.delta,
        x1=cfg.x1 if cfg.x1 is not None else 0.0,
        x2=cfg.x2 if cfg.x2 is not None else 0.0,
        tau=cfg.effective_tau() if cfg.scenario != "verify-elimination" else 1.0,
        n_steps=n_steps,
        g=cfg.g,
        omega_a1=cfg.omega_a1,
        omega_a2=cfg.omega_a2,
    )


def default_collision_count(p: ModelParams, relaxation_rate: float) -> int:
    """Steps so the run covers ``RELAXATION_TARGET`` relaxation units."""
    if relaxation_rate <= 0:
        return MIN_DEFAULT_STEPS
    return max(MIN_DEFAULT_STEPS, math.ceil(RELAXATION_TARGET / (relaxation_rate * p.tau)))


def me_substep_count(tau: float, gen: LindbladGenerator) -> int:
    """Smallest number of equal divisions of tau whose step obeys `DT_MARGIN`."""
    return max(1, math.ceil(tau * gen.rate_scale / DT_MARGIN))


def subsample(traj: Trajectory, every: int) -> Trajectory:
    """Every ``every``-th entry, with step indices renumbered to match."""
    if every == 1:
        return traj
    keep = traj.snapshot_steps % every == 0
    return Trajectory(
        steps=traj.steps[::every] // every,
        times=traj.times[::every],
        populations=traj.populations[::every],
        snapshot_steps=traj.snapshot_steps[keep] // every,
        snapshot_states=traj.snapshot_states[keep],
    )


def _trace_distance_table(traj: Trajectory, steps: np.ndarray, a: np.ndarray,
                          b: np.ndarray) -> tuple[tuple[float, float], ...]:
    """``(time, trace distance)`` rows for the states ``a`` and ``b`` at ``steps``.

    ``traj`` supplies the time of each step; ``b`` may be a single matrix,
    and two-level ``b`` matrices are zero-padded.  All distances come from
    one batched `trace_distance` call.
    """
    if not len(steps):
        return ()
    times = traj.times[np.searchsorted(traj.steps, steps)]
    dists = trace_distance(a, as_qutrit_matrix(b))
    return tuple(zip(times.tolist(), dists.tolist()))


def _snapshot_trace_distances(a: Trajectory, b: Trajectory) -> tuple[tuple[float, float], ...]:
    """Trace distances between full states at matched snapshot steps."""
    steps, ia, ib = np.intersect1d(a.snapshot_steps, b.snapshot_steps, return_indices=True)
    return _trace_distance_table(a, steps, a.snapshot_states[ia], b.snapshot_states[ib])


# ---------------------------------------------------------------------------
# the scenarios


def run_verify_elimination(cfg: ScenarioConfig) -> tuple[ComparisonReport, dict[str, Trajectory]]:
    """Closed-evolution agreement between the original and eliminated-level
    Hamiltonians on the two-ancilla excitation-exchange protocol."""
    p = model_params(cfg)
    rates = derive_rates(p)
    alpha = rates.alpha
    t_grid = np.linspace(0.0, cfg.alpha_t_max / alpha, cfg.n_grid)

    psi0 = np.eye(12, dtype=complex)[basis_index(1, 0, 0)]

    stride = max(1, cfg.n_grid // 100)
    orig = closed_evolution(psi0, build_h_prime(p), t_grid, snapshot_stride=stride)
    eff = closed_evolution(psi0, build_h_eff(p), t_grid, snapshot_stride=stride)

    frag = metrics(orig, eff)
    max_p2 = float(np.max(orig.populations[:, 2]))
    cos_defect = float(np.max(np.abs(eff.populations[:, 0] - np.cos(alpha * t_grid) ** 2)))

    ratio = 50.0 * p.g / p.delta
    dev_tol = 0.02 * ratio**2
    p2_tol = 6.0 * (p.g / p.delta) ** 2
    checks = (
        _check("max_dev_p0", frag.max_abs_dev[0], dev_tol),
        _check("max_dev_p1", frag.max_abs_dev[1], dev_tol),
        _check("max_p2_orig", max_p2, p2_tol),
        _check("effective_p0_cosine_defect", cos_defect, 1e-9),
    )
    report = ComparisonReport(
        scenario=cfg.scenario,
        checks=checks,
        metrics=(
            ("alpha", alpha),
            ("t_max_in_inverse_g", float(t_grid[-1])),
            ("max_dev_p0", frag.max_abs_dev[0]),
            ("max_dev_p1", frag.max_abs_dev[1]),
            ("max_p2_orig", max_p2),
            ("effective_p0_cosine_defect", cos_defect),
        ),
        trace_distances=_snapshot_trace_distances(orig, eff),
    )
    return report, {"orig": orig, "eff": eff}


def _collision_run(cfg: ScenarioConfig,
                   relaxation_rate_of) -> tuple[ModelParams, Trajectory, DensityOperator]:
    """The collision run of ``cfg``: its parameters, trajectory and initial state."""
    p = model_params(cfg)
    n = cfg.n_steps if cfg.n_steps is not None else default_collision_count(
        p, relaxation_rate_of(p))
    p = model_params(cfg, n_steps=n)
    rho0 = initial_system_state(cfg)
    traj = run_collisions(rho0, p, "original", PropagatorChoice(cfg.propagator, cfg.substeps),
                          snapshot_stride=cfg.snapshot_stride)
    return p, traj, rho0


def _me_at_collision_times(gen: LindbladGenerator, rho0: DensityOperator, p: ModelParams,
                           snapshot_stride: int) -> Trajectory:
    """Master-equation run over ``p.n_steps`` collisions, sampled at the collision times.

    The samples carry the collision run's own times ``j * tau``: the
    integrator's ``(j k) * (tau / k)`` equal them in exact arithmetic but
    can differ in the last bit.
    """
    k = me_substep_count(p.tau, gen)
    me_full = integrate(gen, rho0, p.n_steps * p.tau, p.tau / k,
                        snapshot_stride=snapshot_stride * k)
    return replace(subsample(me_full, k), times=np.arange(p.n_steps + 1) * p.tau)


def run_collision_vs_me(cfg: ScenarioConfig) -> tuple[ComparisonReport, dict[str, Trajectory]]:
    """Exact collision dynamics against the effective-qubit master equation."""
    p, exact, rho0 = _collision_run(cfg, lambda p: derive_rates(p).capital_gamma)
    rates = derive_rates(p)
    gen = generator_effective_qubit(rates)

    rho0_q = density_operator(np.array(rho0.matrix[:2, :2]), (("S", 2),))

    me = _me_at_collision_times(gen, rho0_q, p, cfg.snapshot_stride)
    frag = metrics(exact, me)
    max_p2 = float(np.max(exact.populations[:, 2]))

    checks = (
        _check("max_abs_dev", frag.max_dev, 0.05),
    )
    report = ComparisonReport(
        scenario=cfg.scenario,
        checks=checks,
        metrics=(
            ("alpha_tau", rates.alpha * p.tau),
            ("capital_gamma", rates.capital_gamma),
            ("n_steps", float(p.n_steps)),
            ("max_dev_p0", frag.max_abs_dev[0]),
            ("max_dev_p1", frag.max_abs_dev[1]),
            ("max_dev_p2", frag.max_abs_dev[2]),
            ("max_p2_exact", max_p2),
            ("final_p0_exact", frag.final_window_a[0]),
            ("final_p1_exact", frag.final_window_a[1]),
            ("final_p0_me", frag.final_window_b[0]),
            ("final_p1_me", frag.final_window_b[1]),
            *([("beta_s", rates.beta_s)] if rates.beta_s is not None else []),
        ),
        trace_distances=_snapshot_trace_distances(exact, me),
    )
    return report, {"orig": exact, "me5": me}


def run_negative_temperature(cfg: ScenarioConfig) -> tuple[ComparisonReport, dict[str, Trajectory]]:
    """Population-inverted steady state from collisions and from the
    analytic fixed point of the effective-qubit equation."""
    def relax(p):
        r = derive_rates(p)
        return r.capital_gamma * (1.0 + math.exp(r.x_s))

    p, exact, _ = _collision_run(cfg, relax)
    rates = derive_rates(p)
    gen = generator_effective_qubit(rates)
    analytic = steady_state_qubit(rates.x_s)
    residual = steady_residual(gen, analytic)
    target = as_qutrit_matrix(analytic)
    approach = _trace_distance_table(exact, exact.snapshot_steps, exact.snapshot_states, target)

    final = exact.final_window_mean()
    p1_analytic = float(analytic.populations[1])
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
            ("x_s", rates.x_s),
            ("capital_gamma", rates.capital_gamma),
            ("n_steps", float(p.n_steps)),
            ("final_p0_collisions", float(final[0])),
            ("final_p1_collisions", float(final[1])),
            ("analytic_p0", float(analytic.populations[0])),
            ("analytic_p1", p1_analytic),
            ("steady_state_residual", residual),
            *([("beta_s", rates.beta_s)] if rates.beta_s is not None else []),
        ),
        trace_distances=approach,
    )
    return report, {"orig": exact}


def run_beyond_far_off(cfg: ScenarioConfig) -> tuple[ComparisonReport, dict[str, Trajectory]]:
    """Exact collision dynamics against the qutrit two-bath master equation
    in the short-collision, modest-detuning regime."""
    p, exact, rho0 = _collision_run(cfg, lambda p: bath_rate(p, p.x1) + bath_rate(p, p.x2))
    gen = generator_qutrit_two_bath(p)
    me = _me_at_collision_times(gen, rho0, p, cfg.snapshot_stride)
    frag = metrics(exact, me)

    checks = (
        _check("max_abs_dev", frag.max_dev, 0.05),
    )
    report = ComparisonReport(
        scenario=cfg.scenario,
        checks=checks,
        metrics=(
            ("g_tau", p.g * p.tau),
            ("delta_tau", p.delta * p.tau),
            ("n_steps", float(p.n_steps)),
            ("max_dev_p0", frag.max_abs_dev[0]),
            ("max_dev_p1", frag.max_abs_dev[1]),
            ("max_dev_p2", frag.max_abs_dev[2]),
            ("final_p0_exact", frag.final_window_a[0]),
            ("final_p1_exact", frag.final_window_a[1]),
            ("final_p2_exact", frag.final_window_a[2]),
        ),
        trace_distances=_snapshot_trace_distances(exact, me),
    )
    return report, {"orig": exact, "me10": me}


_RUNNERS = {
    "verify-elimination": run_verify_elimination,
    "collision-vs-me": run_collision_vs_me,
    "negative-temperature": run_negative_temperature,
    "beyond-far-off": run_beyond_far_off,
}


# ---------------------------------------------------------------------------
# file output


def _format_float(x: float) -> str:
    return FLOAT_FMT % x


@dataclass(frozen=True, eq=False)
class CsvColumns:
    """The step and time columns of a trajectory CSV, formatted once.

    ``chunks`` holds one row template per ``CSV_CHUNK`` rows: the step and
    time text filled in, a ``FLOAT_FMT`` slot left for each population.
    ``steps`` and ``times`` are the arrays it was formatted from.
    """

    steps: np.ndarray
    times: np.ndarray
    chunks: tuple[str, ...]

    def matches(self, traj: Trajectory) -> bool:
        """Whether ``traj`` has these steps and times bit for bit (so -0.0 is not 0.0)."""
        return (np.array_equal(self.steps, traj.steps)
                and np.array_equal(self.times.view(np.int64), traj.times.view(np.int64)))


def write_trajectory_csv(path: Path, traj: Trajectory, source: str,
                         columns: CsvColumns | None = None) -> CsvColumns:
    """CSV schema: step, t_in_inverse_g, p0, p1, p2, source.

    The step and time columns are formatted once, into one %-template per
    ``CSV_CHUNK`` rows with a ``FLOAT_FMT`` slot per population, and rows
    are written a chunk at a time from those templates.  The templates are
    returned; passed back as ``columns`` for a trajectory whose steps and
    times match them bit for bit, they are reused, so only the populations
    are formatted.  Any other ``columns`` are ignored.
    """
    if columns is None or not columns.matches(traj):
        prefix = "%d," + FLOAT_FMT + ("," + FLOAT_FMT.replace("%", "%%")) * 3 + "\n"
        grid = np.column_stack((traj.steps, traj.times))
        chunks = (grid[start:start + CSV_CHUNK] for start in range(0, len(grid), CSV_CHUNK))
        columns = CsvColumns(traj.steps, traj.times, tuple(
            (prefix * len(chunk)) % tuple(chunk.ravel().tolist()) for chunk in chunks))
    row_end = "," + source.replace("%", "%%") + "\n"
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for start, template in zip(range(0, len(traj), CSV_CHUNK), columns.chunks):
            pops = traj.populations[start:start + CSV_CHUNK]
            f.write(template.replace("\n", row_end) % tuple(pops.ravel().tolist()))
    return columns


def write_report_files(out_dir: Path, report: ComparisonReport):
    kv_lines = [f"scenario = {report.scenario}", f"passed = {str(report.passed).lower()}"]
    txt_lines = [f"scenario: {report.scenario}", ""]
    for name, value in report.metrics:
        kv_lines.append(f"{name} = {_format_float(value)}")
        txt_lines.append(f"  {name:<32s} {_format_float(value)}")
    txt_lines.append("")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        kv_lines.append(f"check.{c.name} = {status.lower()}")
        txt_lines.append(
            f"  [{status}] {c.name}: {_format_float(c.value)} {c.comparison} {_format_float(c.threshold)}"
        )
    if report.trace_distances:
        kv_lines.append(f"trace_distance_max = {_format_float(max(d for _, d in report.trace_distances))}")
        txt_lines.append("")
        txt_lines.append("  trace distance (t, value):")
        # one row per (t, value) pair, the time right-aligned in 16 columns
        row = "    " + FLOAT_FMT.replace("%", "%16") + "  " + FLOAT_FMT
        txt_lines.append("\n".join([row] * len(report.trace_distances))
                         % tuple(x for pair in report.trace_distances for x in pair))
    txt_lines.append("")
    txt_lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    (out_dir / "report.kv").write_text("\n".join(kv_lines) + "\n")
    (out_dir / "report.txt").write_text("\n".join(txt_lines) + "\n")


@contextlib.contextmanager
def _writing_to(target: Path):
    """Report an `OSError` raised while writing under ``target`` as a `ConfigError` (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"output path not writable: {target} ({exc})") from exc


def _prepare_output_dir(cfg: ScenarioConfig, output_dir: str | Path | None) -> Path:
    target = Path(output_dir) if output_dir else Path(cfg.output_path or f"out/{cfg.scenario}")
    with _writing_to(target):
        target.mkdir(parents=True, exist_ok=True)
        probe = target / ".write-probe"
        probe.write_text("")
        probe.unlink()
    return target


def run_scenario(cfg: ScenarioConfig, output_dir: str | Path | None = None) -> ComparisonReport:
    """Validate and execute a non-sweep scenario, then write its trajectory and report files."""
    if cfg.scenario == "sweep":
        raise ConfigError("use run_sweep for sweep configs")
    validate_config(cfg)
    out_dir = _prepare_output_dir(cfg, output_dir)
    report, trajectories = _RUNNERS[cfg.scenario](cfg)
    columns = None
    with _writing_to(out_dir):
        for source, traj in trajectories.items():
            columns = write_trajectory_csv(out_dir / f"{source}.csv", traj, source, columns)
        write_report_files(out_dir, report)
    return report


def _run_sweep_point(args: tuple[ScenarioConfig, float, str]) -> tuple[float, ComparisonReport]:
    cfg, value, out_dir = args
    point_cfg = sweep_point_config(cfg, value)
    report = run_scenario(point_cfg, out_dir)
    return value, report


def run_sweep(cfg: ScenarioConfig, output_dir: str | Path | None = None) -> ComparisonReport:
    """Run one scenario per sweep value, one output subdirectory each.

    Points are dispatched to a process pool no wider than ``workers``,
    the number of points and the CPU count (serially when that is 1), and
    assembled in input order, so the index file is deterministic.
    """
    if cfg.scenario != "sweep":
        raise ConfigError("run_sweep requires scenario = sweep")
    validate_config(cfg)
    out_dir = _prepare_output_dir(cfg, output_dir)

    jobs = []
    for i, value in enumerate(cfg.sweep_values):
        point_dir = out_dir / f"point_{i:03d}_{cfg.sweep_param}_{value:g}"
        jobs.append((cfg, value, str(point_dir)))

    workers = min(cfg.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing: pools only
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_sweep_point, jobs))
    else:
        results = [_run_sweep_point(job) for job in jobs]

    index_lines = [f"point,{cfg.sweep_param},passed,headline_check,headline_value"]
    checks = []
    metrics_rows: list[tuple[str, float]] = []
    for i, (value, report) in enumerate(results):
        head = report.checks[0]
        index_lines.append(
            f"{i},{_format_float(value)},{str(report.passed).lower()},{head.name},{_format_float(head.value)}"
        )
        checks.append(_check(f"point_{i:03d}_passed", float(report.passed), 1.0, ">="))
        metrics_rows.append((f"point_{i:03d}_{cfg.sweep_param}", float(value)))
        metrics_rows.append((f"point_{i:03d}_{head.name}", head.value))
    report = ComparisonReport(
        scenario=f"sweep({cfg.sweep_scenario})",
        checks=tuple(checks),
        metrics=(("sweep_points", float(len(results))), *metrics_rows),
    )
    with _writing_to(out_dir):
        (out_dir / "index.csv").write_text("\n".join(index_lines) + "\n")
        write_report_files(out_dir, report)
    return report
