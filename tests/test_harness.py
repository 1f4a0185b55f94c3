import concurrent.futures
import hashlib
import importlib.util
import os
import subprocess
import sys
import time
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import collisim
from collisim import (
    ConfigError,
    ScenarioConfig,
    Trajectory,
    generator_qutrit_two_bath,
    load_config,
    metrics,
    parse_config_text,
    run_scenario,
    run_sweep,
    validate_config,
)
from collisim import scenarios
from collisim.cli import main
from collisim.scenarios import subsample, write_trajectory_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BENCH_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
# SHA-256 of every file the shipped configs write, keyed
# "<config stem>/<path relative to the output directory>".
GOLDEN_TABLE = Path(__file__).resolve().parent / "golden_outputs.sha256"
README = Path(__file__).resolve().parent.parent / "README.md"

FIG3B = """
scenario = collision-vs-me
delta = 200
x1 = 1e-4
x2 = 1e-4
alpha_tau = 0.3
n_steps = 60
"""

VERIFY = """
scenario = verify-elimination
delta = 50
n_grid = 400
"""

# Every key but alpha_tau, which ALL_KEYS_ALPHA_TAU swaps in for tau.
ALL_KEYS_SWEEP = """
scenario = sweep
g = 2
delta = 200
x1 = 0.5
x2 = 1.5
tau = 40
n_steps = 7
omega_a1 = 5
omega_a2 = 3
propagator = runge_kutta
substeps = 4000
initial_state = custom
initial_populations = 0.2, 0.3, 0.5
output_path = out/all-keys
n_grid = 50
alpha_t_max = 2.5
snapshot_stride = 3
sweep_scenario = negative-temperature
sweep_param = delta
sweep_values = 150, 250
workers = 2
"""
ALL_KEYS_CONFIG = ScenarioConfig(
    "sweep", g=2.0, delta=200.0, x1=0.5, x2=1.5, tau=40.0, n_steps=7, omega_a1=5.0,
    omega_a2=3.0, propagator="runge_kutta", substeps=4000, initial_state="custom",
    initial_populations=(0.2, 0.3, 0.5), output_path="out/all-keys", n_grid=50,
    alpha_t_max=2.5, snapshot_stride=3, sweep_scenario="negative-temperature",
    sweep_param="delta", sweep_values=(150.0, 250.0), workers=2)
ALL_KEYS_ALPHA_TAU = ALL_KEYS_SWEEP.replace("tau = 40", "alpha_tau = 0.3")

N_STEPS_SWEEP = FIG3B.replace("scenario = collision-vs-me", "scenario = sweep\n"
                              "sweep_scenario = collision-vs-me\nsweep_param = n_steps")


def constant_trajectory(pops, n=10, dt=1.0):
    arr = np.tile(pops, (n, 1))
    return Trajectory(steps=np.arange(n), times=np.arange(n) * dt, populations=arr)


def reference_write_trajectory_csv(path, traj, source):
    """The per-row writer that `write_trajectory_csv` replaced: its byte-level oracle."""
    lines = [scenarios.CSV_HEADER]
    for i in range(len(traj)):
        row = [str(int(traj.steps[i])), f"{traj.times[i]:.12g}"]
        row += [f"{v:.12g}" for v in traj.populations[i]]
        row.append(source)
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def single_template_write_trajectory_csv(path, traj, source):
    """The one-template writer that formatted all five columns of every file:
    the byte-level oracle of column reuse."""
    row = ",".join(["%d"] + [scenarios.FLOAT_FMT] * 4 + [source.replace("%", "%%")]) + "\n"
    table = np.column_stack((traj.steps, traj.times, traj.populations))
    with open(path, "w") as f:
        f.write(scenarios.CSV_HEADER + "\n")
        for start in range(0, len(table), scenarios.CSV_CHUNK):
            chunk = table[start:start + scenarios.CSV_CHUNK]
            f.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def grid_pair(n):
    """Two trajectories of ``n`` rows on one step and time grid, with different populations."""
    rng = np.random.default_rng(n)
    steps, times = np.arange(n), np.arange(n) * 0.1
    return (Trajectory(steps=steps, times=times, populations=rng.dirichlet((1, 1, 1), n)),
            Trajectory(steps=steps.copy(), times=times.copy(),
                       populations=rng.dirichlet((1, 1, 1), n)))


ADVERSARIAL_FLOATS = (-0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, 2.5e-13, 1.0 / 3.0, 0.5,
                      123456789.123456789, float("inf"), float("nan"))


class TestConfigParsing:
    def test_parses_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\nscenario = verify-elimination\ndelta = 50  # inline\n")
        assert cfg.scenario == "verify-elimination"
        assert cfg.delta == 50.0

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("scenario = verify-elimination\ndelta = 50\nbanana = 1\n")

    def test_rejects_key_not_applicable(self):
        with pytest.raises(ConfigError, match="not applicable"):
            parse_config_text("scenario = verify-elimination\ndelta = 50\ntau = 3\n")

    def test_rejects_missing_required(self):
        with pytest.raises(ConfigError, match="delta"):
            parse_config_text("scenario = verify-elimination\n")

    def test_rejects_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("scenario = verify-elimination\ndelta = 50\ndelta = 60\n")

    def test_rejects_bad_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config_text("scenario = verify-elimination\ndelta = fifty\n")

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config_text("scenario = everything\n")

    def test_rejects_missing_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config_text("delta = 50\n")

    def test_rejects_tau_and_alpha_tau_together(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config_text(FIG3B + "tau = 60\n")

    def test_requires_some_duration(self):
        with pytest.raises(ConfigError, match="tau or alpha_tau"):
            parse_config_text("scenario = collision-vs-me\ndelta = 200\nx1 = 0\nx2 = 0\n")

    def test_effective_tau_from_alpha_tau(self):
        cfg = parse_config_text(FIG3B)
        assert_allclose(cfg.effective_tau(), 60.0)

    @pytest.mark.parametrize("cfg, message", [
        (ScenarioConfig("negative-temperature", delta=200.0, x1=0.5, x2=1.5),
         "scenario 'negative-temperature' requires tau or alpha_tau"),
        (ScenarioConfig("negative-temperature", x1=0.5, x2=1.5, alpha_tau=0.3),
         "scenario 'negative-temperature' requires key(s): delta"),
    ], ids=["no-duration", "alpha_tau-without-delta"])
    def test_effective_tau_of_an_incomplete_config_is_a_config_error(self, cfg, message):
        for call in (cfg.effective_tau, lambda: scenarios.model_params(cfg)):
            with pytest.raises(ConfigError) as info:
                call()
            assert str(info.value) == message

    def test_custom_initial_state(self):
        cfg = parse_config_text(
            FIG3B.replace("collision-vs-me", "negative-temperature")
            + "initial_state = custom\ninitial_populations = 0.2, 0.3, 0.5\n"
        )
        assert cfg.initial_populations == (0.2, 0.3, 0.5)
        # within the state trace tolerance 1e-10; 1 + 5e-10 is rejected
        cfg = parse_config_text(
            FIG3B + "initial_state = custom\ninitial_populations = 0.60000000005, 0.4, 0\n"
        )
        assert cfg.initial_populations == (0.60000000005, 0.4, 0.0)
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config_text(FIG3B + "initial_state = custom\ninitial_populations = 0.9,0.3,0\n")
        with pytest.raises(ConfigError, match="custom"):
            parse_config_text(FIG3B + "initial_populations = 0.5,0.5,0\n")

    def test_sweep_requires_valid_points(self):
        text = """
scenario = sweep
sweep_scenario = verify-elimination
sweep_param = delta
sweep_values = 25, 0, 100
"""
        # delta = 0 is singular for the eliminated-level builder; the sweep
        # validation must reject it up front.
        with pytest.raises(ConfigError, match="zero detuning"):
            parse_config_text(text)

    def test_validates_configs_built_in_code(self):
        cfg = parse_config_text(FIG3B)
        for bad in (dict(delta=float("nan")), dict(tau=float("inf"), alpha_tau=None),
                    dict(omega_a1=2.0, omega_a2=2.0)):
            with pytest.raises(ConfigError):
                validate_config(replace(cfg, **bad))

    def test_zero_detuning_stays_valid_beyond_far_off(self):
        cfg = parse_config_text("scenario = beyond-far-off\ndelta = 0\nx1 = 1\nx2 = 1\n"
                                "tau = 0.05\n")
        assert cfg.delta == 0.0

    def test_rejects_fractional_n_steps_sweep(self):
        with pytest.raises(ConfigError, match="n_steps must be whole numbers"):
            parse_config_text(N_STEPS_SWEEP + "sweep_values = 10.7\n")

    def test_every_field_parses_to_its_declared_type(self):
        cases = ((ALL_KEYS_SWEEP, ALL_KEYS_CONFIG),
                 (ALL_KEYS_ALPHA_TAU, replace(ALL_KEYS_CONFIG, tau=None, alpha_tau=0.3)))
        keys = {line.partition(" =")[0] for text, _ in cases for line in text.split("\n") if line}
        assert keys == {f.name for f in fields(ScenarioConfig)}
        for text, expected in cases:
            cfg = parse_config_text(text)
            assert cfg == expected
            for f in fields(ScenarioConfig):
                value = getattr(cfg, f.name)
                if value is not None:
                    assert f.type.startswith(type(value).__name__), (f.name, value)
            assert all(type(v) is float for v in cfg.initial_populations + cfg.sweep_values)

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.cfg")


class TestMetrics:
    def test_identical_trajectories(self):
        a = constant_trajectory([0.5, 0.5, 0.0])
        frag = metrics(a, a)
        assert frag.max_dev == 0.0

    def test_constant_offset(self):
        a = constant_trajectory([0.5, 0.5, 0.0])
        b = constant_trajectory([0.6, 0.4, 0.0])
        frag = metrics(a, b)
        assert_allclose(frag.max_abs_dev, (0.1, 0.1, 0.0), atol=1e-15)

    def test_rejects_different_grids(self):
        a = constant_trajectory([1.0, 0.0, 0.0], n=10)
        b = constant_trajectory([1.0, 0.0, 0.0], n=20, dt=0.5)
        with pytest.raises(ValueError, match="resampling"):
            metrics(a, b)

    def test_subsample_renumbers_steps(self):
        b = constant_trajectory([1.0, 0.0, 0.0], n=9, dt=1.0)
        sub = subsample(b, 2)
        assert list(sub.steps) == [0, 1, 2, 3, 4]
        assert_allclose(sub.times, [0, 2, 4, 6, 8])


class TestScenarioOutputs:
    def test_csv_schema(self, tmp_path):
        traj = constant_trajectory([0.25, 0.75, 0.0], n=3)
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, traj, "orig")
        lines = path.read_text().splitlines()
        assert lines[0] == "step,t_in_inverse_g,p0,p1,p2,source"
        assert lines[1] == "0,0,0.25,0.75,0,orig"
        assert len(lines) == 4

    @pytest.mark.parametrize("n", [1, scenarios.CSV_CHUNK, scenarios.CSV_CHUNK + 1])
    @pytest.mark.parametrize("source", ["orig", "me%5"])
    def test_csv_matches_per_row_writer(self, tmp_path, n, source):
        rng = np.random.default_rng(n)
        vals = np.array(ADVERSARIAL_FLOATS)
        cells = np.where(rng.random((n, 4)) < 0.5, vals[np.arange(4 * n).reshape(n, 4) % len(vals)],
                         rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-20, 20, size=(n, 4)))
        traj = Trajectory(steps=999_999 - n // 2 + np.arange(n), times=cells[:, 0],
                          populations=cells[:, 1:])
        write_trajectory_csv(tmp_path / "new.csv", traj, source)
        reference_write_trajectory_csv(tmp_path / "ref.csv", traj, source)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("n", [1, scenarios.CSV_CHUNK - 1, scenarios.CSV_CHUNK,
                                   scenarios.CSV_CHUNK + 1, 2 * scenarios.CSV_CHUNK + 1])
    def test_reused_columns_keep_bytes(self, tmp_path, n):
        first, second = grid_pair(n)
        columns = write_trajectory_csv(tmp_path / "orig.csv", first, "orig")
        assert len(columns.chunks) == (n + scenarios.CSV_CHUNK - 1) // scenarios.CSV_CHUNK
        assert write_trajectory_csv(tmp_path / "reused.csv", second, "me5", columns) is columns
        write_trajectory_csv(tmp_path / "alone.csv", second, "me5")
        single_template_write_trajectory_csv(tmp_path / "ref_orig.csv", first, "orig")
        single_template_write_trajectory_csv(tmp_path / "ref.csv", second, "me5")
        assert (tmp_path / "orig.csv").read_bytes() == (tmp_path / "ref_orig.csv").read_bytes()
        expected = (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "reused.csv").read_bytes() == expected
        assert (tmp_path / "alone.csv").read_bytes() == expected

    @pytest.mark.parametrize("first_time, second_time", [
        (0.5, np.nextafter(0.5, 1.0)),  # one ulp
        (0.0, -0.0),                    # only the sign of zero
    ])
    def test_columns_are_not_reused_off_the_bit_pattern(self, tmp_path, first_time, second_time):
        first, second = grid_pair(scenarios.CSV_CHUNK + 1)
        row = scenarios.CSV_CHUNK - 1
        times_a, times_b = first.times.copy(), second.times.copy()
        times_a[row], times_b[row] = first_time, second_time
        first = replace(first, times=times_a)
        second = replace(second, times=times_b)
        columns = write_trajectory_csv(tmp_path / "orig.csv", first, "orig")
        assert write_trajectory_csv(tmp_path / "new.csv", second, "me5", columns) is not columns
        single_template_write_trajectory_csv(tmp_path / "ref.csv", second, "me5")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("source", ["me%5", "%d%%s", "%"])
    def test_reused_columns_write_percent_in_source(self, tmp_path, source):
        first, second = grid_pair(3)
        columns = write_trajectory_csv(tmp_path / "orig.csv", first, "%.12g")
        assert write_trajectory_csv(tmp_path / "new.csv", second, source, columns) is columns
        single_template_write_trajectory_csv(tmp_path / "ref.csv", second, source)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().splitlines()[1].endswith("," + source)

    def test_run_scenario_writes_each_csv_once_path_first(self, tmp_path, monkeypatch):
        # The benchmark times this module attribute and sizes the file named by
        # its first argument, so each CSV must pass through it once, path first.
        calls = []
        real = scenarios.write_trajectory_csv

        def recorder(*args, **kwargs):
            columns = real(*args, **kwargs)
            calls.append((args, kwargs, columns))
            return columns

        monkeypatch.setattr(scenarios, "write_trajectory_csv", recorder)
        run_scenario(parse_config_text(FIG3B), tmp_path)
        assert [(args[0], args[2], kwargs) for args, kwargs, _ in calls] == [
            (tmp_path / "orig.csv", "orig", {}), (tmp_path / "me5.csv", "me5", {})]
        assert sorted(tmp_path.glob("*.csv")) == sorted(args[0] for args, _, _ in calls)
        # the second call is handed the first call's columns, and reuses them
        assert calls[1][0][3] is calls[0][2] is calls[1][2]

    def test_master_equation_carries_the_collision_times(self, tmp_path):
        # With k > 1 integrator substeps the master-equation samples still carry
        # the collision times bit for bit, so its CSV reuses the first file's columns.
        cfg = parse_config_text(
            "scenario = beyond-far-off\ndelta = 2\nx1 = 1\nx2 = 2\ntau = 0.05\nn_steps = 100\n")
        p = scenarios.model_params(cfg)
        assert scenarios.me_substep_count(p.tau, generator_qutrit_two_bath(p)) > 1
        _, trajectories = scenarios.run_beyond_far_off(cfg)
        orig, me = trajectories["orig"], trajectories["me10"]
        assert np.array_equal(orig.times.view(np.int64), me.times.view(np.int64))
        columns = write_trajectory_csv(tmp_path / "orig.csv", orig, "orig")
        assert write_trajectory_csv(tmp_path / "me10.csv", me, "me10", columns) is columns

    def test_report_table_matches_per_line_writer(self, tmp_path):
        pairs = tuple(zip(ADVERSARIAL_FLOATS, reversed(ADVERSARIAL_FLOATS)))
        report = scenarios.ComparisonReport("beyond-far-off", (), (), trace_distances=pairs)
        scenarios.write_report_files(tmp_path, report)
        lines = (tmp_path / "report.txt").read_text().splitlines()
        start = lines.index("  trace distance (t, value):") + 1
        # the per-line writer the template replaced
        fmt = scenarios.FLOAT_FMT
        assert lines[start:start + len(pairs)] == [f"    {fmt % t:>16s}  {fmt % d}" for t, d in pairs]
        assert lines[start + len(pairs):] == ["", "result: PASS"]

    def test_verify_elimination_files(self, tmp_path):
        cfg = parse_config_text(VERIFY)
        report = run_scenario(cfg, tmp_path)
        assert report.passed
        for name in ("orig.csv", "eff.csv", "report.txt", "report.kv"):
            assert (tmp_path / name).is_file()
        kv = (tmp_path / "report.kv").read_text()
        assert "passed = true" in kv
        assert "max_dev_p0 = " in kv

    def test_collision_vs_me_grid_alignment(self, tmp_path):
        cfg = parse_config_text(FIG3B)
        run_scenario(cfg, tmp_path)
        orig = (tmp_path / "orig.csv").read_text().splitlines()
        me = (tmp_path / "me5.csv").read_text().splitlines()
        assert len(orig) == len(me) == 62
        # same collision-time stamps on both curves
        t_orig = [line.split(",")[1] for line in orig[1:]]
        t_me = [line.split(",")[1] for line in me[1:]]
        assert t_orig == t_me

    def test_deterministic_outputs(self, tmp_path):
        cfg = parse_config_text(FIG3B)
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        for name in ("orig.csv", "me5.csv", "report.kv", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_sweep_outputs(self, tmp_path):
        cfg = parse_config_text(
            "scenario = sweep\nsweep_scenario = verify-elimination\n"
            "sweep_param = delta\nsweep_values = 25, 50\nn_grid = 300\n"
        )
        report = run_sweep(cfg, tmp_path)
        assert report.passed
        index = (tmp_path / "index.csv").read_text().splitlines()
        assert index[0].startswith("point,delta,")
        assert len(index) == 3
        assert (tmp_path / "point_000_delta_25" / "orig.csv").is_file()
        assert (tmp_path / "point_001_delta_50" / "report.kv").is_file()

    def test_n_steps_sweep_runs_whole_numbers(self, tmp_path):
        report = run_sweep(parse_config_text(N_STEPS_SWEEP + "sweep_values = 10\n"), tmp_path)
        assert report.passed
        assert (tmp_path / "index.csv").read_text().splitlines()[1].startswith("0,10,")
        assert len((tmp_path / "point_000_n_steps_10" / "orig.csv").read_text().splitlines()) == 12

    @pytest.mark.parametrize("workers, cpus, expected", [
        (64, 2, 2),     # clamped to the CPU count
        (64, 8, 3),     # clamped to the number of points
        (2, 2, 2),      # the shipped sweep keeps its two workers
        (64, 1, None),  # a single CPU runs serially, without a pool
        (64, None, None),
    ])
    def test_sweep_pool_width_is_clamped(self, tmp_path, monkeypatch, workers, cpus, expected):
        widths = []

        class RecordingPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(scenarios.os, "cpu_count", lambda: cpus)
        cfg = parse_config_text(
            "scenario = sweep\nsweep_scenario = verify-elimination\nsweep_param = delta\n"
            f"sweep_values = 25, 50, 100\nn_grid = 50\nworkers = {workers}\n"
        )
        assert run_sweep(cfg, tmp_path).passed
        assert widths == ([] if expected is None else [expected])
        assert len((tmp_path / "index.csv").read_text().splitlines()) == 4

    def test_run_scenario_rejects_sweep(self, tmp_path):
        cfg = parse_config_text(
            "scenario = sweep\nsweep_scenario = verify-elimination\n"
            "sweep_param = delta\nsweep_values = 50\n"
        )
        with pytest.raises(ConfigError):
            run_scenario(cfg, tmp_path)

    @pytest.mark.parametrize("cfg, message", [
        (ScenarioConfig("collision-vs-me", delta=200.0, x1=1e-4, x2=1e-4, alpha_tau=0.3,
                        n_steps=60, initial_state="custom",
                        initial_populations=(0.5, 0.3, 0.2)), "zero initial top-level"),
        (ScenarioConfig("negative-temperature", delta=200.0, x1=0.5, x2=1.5),
         "requires tau or alpha_tau"),
    ], ids=["top-level-population", "no-duration"])
    def test_run_scenario_validates_before_any_work(self, tmp_path, cfg, message):
        with pytest.raises(ConfigError, match=message):
            run_scenario(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad, message", [
        (dict(initial_state="custom", initial_populations=(0.9, 0.3, 0)),
         "initial_populations: populations must sum to 1"),
        (dict(initial_state="custom", initial_populations=(-0.1, 1.1, 0)),
         "initial_populations: populations must be nonnegative"),
        (dict(initial_state="custom", initial_populations=(0.5, 0.5)),
         "initial_populations: expected three comma-separated populations"),
        (dict(sweep_values=()), "sweep_values: expected a comma-separated value list"),
        (dict(n_grid=2.5), "n_grid: expected an integer, got 2.5"),
        (dict(snapshot_stride=2.5), "snapshot_stride: expected an integer, got 2.5"),
        (dict(n_steps=True), "n_steps: expected an integer, got True"),
        (dict(initial_state="custom", initial_populations=[0.2, 0.3, float("nan")]),
         r"initial_populations: expected a tuple of numbers, got \[0.2, 0.3, nan\]"),
        (dict(delta="50"), "delta: expected a number, got '50'"),
    ], ids=["population-sum", "negative-population", "two-populations", "no-sweep-values",
            "float-n-grid", "float-snapshot-stride", "bool-n-steps", "list-populations",
            "text-delta"])
    def test_code_built_values_are_checked_before_any_work(self, tmp_path, bad, message):
        single = ScenarioConfig("collision-vs-me", delta=200.0, x1=1e-4, x2=1e-4, alpha_tau=0.3,
                                n_steps=60)
        sweep = replace(single, scenario="sweep", sweep_scenario="collision-vs-me",
                        sweep_param="n_steps", sweep_values=(10.0,))
        for cfg, run in ((replace(single, **bad), run_scenario), (replace(sweep, **bad), run_sweep)):
            with pytest.raises(ConfigError, match=message):
                validate_config(cfg)
            with pytest.raises(ConfigError, match=message):
                run(cfg, tmp_path / "out")
            assert not (tmp_path / "out").exists()

    def test_run_sweep_validates_before_any_work(self, tmp_path):
        cfg = ScenarioConfig("sweep", x1=0.5, x2=1.5, sweep_scenario="negative-temperature",
                             sweep_param="delta", sweep_values=(200.0,))
        with pytest.raises(ConfigError, match="requires tau or alpha_tau"):
            run_sweep(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
    def test_validates_and_completes_in_budget(self, path, tmp_path):
        cfg = load_config(path)
        start = time.time()
        if cfg.scenario == "sweep":
            run_sweep(cfg, tmp_path)
        else:
            run_scenario(cfg, tmp_path)
        assert time.time() - start < 60.0

        written = {
            f"{path.stem}/{f.relative_to(tmp_path).as_posix()}":
                hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.rglob("*") if f.is_file()
        }
        golden = {}
        for line in GOLDEN_TABLE.read_text().splitlines():
            digest, key = line.split(maxsplit=1)
            if key.startswith(f"{path.stem}/"):
                golden[key] = digest
        assert golden, f"no golden digests for {path.stem}"
        assert written == golden


class TestCli:
    def write(self, tmp_path, text, name="cfg.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write(tmp_path, VERIFY)
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = self.write(tmp_path, "scenario = verify-elimination\n")
        assert main(["validate", path]) == 2
        assert "delta" in capsys.readouterr().err

    def test_run_pass(self, tmp_path, capsys):
        path = self.write(tmp_path, VERIFY)
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_tolerance_fail(self, tmp_path, capsys):
        # short-collision regime: the effective-qubit equation misses the
        # top-level population, reported as a tolerance failure
        text = """
scenario = collision-vs-me
delta = 200
x1 = 1e-4
x2 = 1e-4
alpha_tau = 0.01
n_steps = 40000
"""
        path = self.write(tmp_path, text)
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("blocked", ["orig.csv", "report.kv"])
    def test_unwritable_output_file_is_config_error(self, tmp_path, capsys, blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        config = str(CONFIG_DIR / "collision_vs_me_short.cfg")
        assert main(["run", config, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: output path not writable: {out} (")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_run_rejects_sweep_config(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "scenario = sweep\nsweep_scenario = verify-elimination\n"
            "sweep_param = delta\nsweep_values = 50\n",
        )
        assert main(["run", path]) == 2
        assert main(["sweep", path, "--output-dir", str(tmp_path / "s")]) == 0

    def test_sweep_rejects_run_config(self, tmp_path):
        path = self.write(tmp_path, VERIFY)
        assert main(["sweep", path]) == 2

    @pytest.mark.parametrize("exponents", ["x1 = 800\nx2 = 0\n", "x1 = 0\nx2 = -800\n"])
    def test_exponent_overflow_is_numeric_error(self, tmp_path, capsys, exponents):
        text = "scenario = collision-vs-me\ndelta = 200\nalpha_tau = 0.3\n" + exponents
        path = self.write(tmp_path, text)
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("substeps, code", [(1, 3), (1000, 3), (20000, 0)])
    def test_unstable_runge_kutta_substeps_are_numeric_error(self, tmp_path, capsys, substeps, code):
        text = ("scenario = collision-vs-me\ndelta = 200\nx1 = 0.3\nx2 = -0.2\n"
                "alpha_tau = 0.3\nn_steps = 300\npropagator = runge_kutta\n"
                f"substeps = {substeps}\n")
        path = self.write(tmp_path, text)
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 3:
            assert err.startswith("numeric error:")
            # a finite map names the stability bound; an overflowing one says it is not finite
            assert {1: "stability bound", 1000: "not finite"}[substeps] in err

    def test_fractional_n_steps_sweep_is_config_error(self, tmp_path, capsys):
        path = self.write(tmp_path, N_STEPS_SWEEP + "sweep_values = 10.7\n")
        assert main(["sweep", path, "--output-dir", str(tmp_path / "out")]) == 2
        assert "n_steps must be whole numbers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_t_max_is_config_error(self, tmp_path, capsys, value):
        path = self.write(tmp_path, VERIFY + f"alpha_t_max = {value}\n")
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "alpha_t_max" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        FIG3B,
        "scenario = negative-temperature\ndelta = 200\nx1 = 0.5\nx2 = 1.5\n"
        "alpha_tau = 0.3\nn_steps = 300\n",
        "scenario = beyond-far-off\ndelta = 2\nx1 = 1\nx2 = 2\ntau = 0.05\nn_steps = 100\n",
    ], ids=["collision-vs-me", "negative-temperature", "beyond-far-off"])
    def test_zero_snapshot_stride_runs_without_trace_distances(self, tmp_path, capsys, text):
        default = main(["run", self.write(tmp_path, text, "a.cfg"),
                        "--output-dir", str(tmp_path / "a")])
        assert "trace distance" in (tmp_path / "a" / "report.txt").read_text()
        path = self.write(tmp_path, text + "snapshot_stride = 0\n", "b.cfg")
        assert main(["run", path, "--output-dir", str(tmp_path / "b")]) == default
        assert "trace distance" not in (tmp_path / "b" / "report.txt").read_text()

    @pytest.mark.parametrize("text, n_steps, stride", [
        ("scenario = beyond-far-off\ndelta = 2\nx1 = 1\nx2 = 1.5\ntau = 0.05\nn_steps = 10\n",
         10, 2**62),
        ("scenario = beyond-far-off\ndelta = 2\nx1 = 1\nx2 = 1.5\ntau = 0.05\nn_steps = 10\n",
         10, 2**63),
        (FIG3B, 60, 2**63),
        ("scenario = negative-temperature\ndelta = 200\nx1 = 0.5\nx2 = 1.5\n"
         "alpha_tau = 0.3\nn_steps = 300\n", 300, 2**63),
    ], ids=["beyond-far-off-2^62", "beyond-far-off-2^63", "collision-vs-me-2^63",
            "negative-temperature-2^63"])
    def test_snapshot_stride_past_the_run_keeps_only_the_start(self, tmp_path, capsys, text,
                                                               n_steps, stride):
        path = self.write(tmp_path, text + f"snapshot_stride = {stride}\n", "huge.cfg")
        assert main(["run", path, "--output-dir", str(tmp_path / "huge")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        path = self.write(tmp_path, text + f"snapshot_stride = {n_steps + 1}\n", "past.cfg")
        assert main(["run", path, "--output-dir", str(tmp_path / "past")]) == 0
        written = sorted(p.name for p in (tmp_path / "huge").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "past").iterdir())
        for name in written:
            assert (tmp_path / "huge" / name).read_bytes() == (tmp_path / "past" / name).read_bytes()

    def test_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_parser_reuse_keeps_calls_apart(self, tmp_path, monkeypatch):
        # The parser is built once per process: an --output-dir given to one
        # call must not carry over to the next.
        monkeypatch.chdir(tmp_path)
        path = self.write(tmp_path, VERIFY + "output_path = own\n")
        assert main(["run", path, "--output-dir", "override"]) == 0
        assert not (tmp_path / "own").exists()
        assert main(["run", path]) == 0
        assert (tmp_path / "own" / "report.kv").read_text() == (
            tmp_path / "override" / "report.kv").read_text()
        assert main(["run"]) == 2
        assert main(["validate", path]) == 0

    @pytest.mark.parametrize("text, match", [
        (FIG3B.replace("delta = 200", "delta = nan"), "delta: must be finite"),
        (FIG3B.replace("x1 = 1e-4", "x1 = inf"), "x1: must be finite"),
        (FIG3B + "g = nan\n", "g: must be finite"),
        (FIG3B + "omega_a1 = -inf\nomega_a2 = 1\n", "omega_a1: must be finite"),
        (FIG3B + "initial_state = custom\ninitial_populations = 1, 0, nan\n",
         "initial_populations: must be finite"),
        (N_STEPS_SWEEP.replace("n_steps = 60", "n_steps = 60\nsweep_values = 10, nan"),
         "sweep_values: must be finite"),
        ("scenario = collision-vs-me\ndelta = 0\nx1 = 0\nx2 = 0\ntau = 60\n", "zero detuning"),
        ("scenario = negative-temperature\ndelta = 0\nx1 = 0\nx2 = 1\ntau = 60\n",
         "zero detuning"),
        ("scenario = verify-elimination\ndelta = 0\n", "zero detuning"),
        ("scenario = beyond-far-off\ndelta = 2\nx1 = 1\nx2 = 2\ntau = 0.05\n"
         "omega_a1 = 3\nomega_a2 = 3\n", "omega_a1 = omega_a2"),
        (FIG3B + "omega_a1 = 4\nomega_a2 = 4\n", "omega_a1 = omega_a2"),
        (FIG3B.replace("delta = 200", "delta = 1e300").replace("alpha_tau = 0.3", "alpha_tau = 1e300"),
         "collision duration must be positive and finite"),
        (FIG3B + "initial_state = custom\ninitial_populations = 0.5, 0.3, 0.2\n",
         "collision-vs-me requires zero initial top-level population"),
        (FIG3B + "initial_state = custom\ninitial_populations = 0.6000000005, 0.4, 0\n",
         "populations must sum to 1"),
    ], ids=["delta-nan", "x1-inf", "g-nan", "omega-inf", "population-nan", "sweep-value-nan",
            "cvm-zero-delta", "negT-zero-delta", "verify-zero-delta", "bfo-equal-omegas",
            "cvm-equal-omegas", "tau-overflow", "cvm-top-level-population", "population-sum"])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text)
        path = self.write(tmp_path, text)
        assert main(["validate", path]) == 2
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(match) == 2
        assert "Traceback" not in err

    def test_out_of_memory_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        # A real allocation this large could succeed under memory overcommit
        # and then fill memory page by page, so the failure is simulated.
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.4 TiB for an array with shape "
                              "(1000000000001, 3) and data type float64")
        monkeypatch.setattr(scenarios, "run_collisions", out_of_memory)
        path = self.write(tmp_path, FIG3B.replace("n_steps = 60", "n_steps = 1000000000000"))
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numeric error: Unable to allocate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, beta_s", [
        (FIG3B, "0"),
        ("scenario = negative-temperature\ndelta = 200\nx1 = 0.5\nx2 = 1.5\n"
         "alpha_tau = 0.3\nn_steps = 300\n", "-0.5"),
    ], ids=["collision-vs-me", "negative-temperature"])
    def test_reports_beta_s_when_both_frequencies_are_given(self, tmp_path, text, beta_s):
        for name, extra in (("with", "omega_a1 = 5\nomega_a2 = 3\n"), ("without", "")):
            out = tmp_path / name
            assert main(["run", self.write(tmp_path, text + extra), "--output-dir", str(out)]) == 0
            kv, txt = (out / "report.kv").read_text(), (out / "report.txt").read_text()
            assert (f"\nbeta_s = {beta_s}\n" in kv) == bool(extra)
            assert (f"\n  {'beta_s':<32s} {beta_s}\n" in txt) == bool(extra)
            assert ("beta_s" in kv + txt) == bool(extra)


def test_readme_config_table_lists_every_config_key():
    text = README.read_text()
    table = text[text.index("### Config format"):text.index("### CSV schema")]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    keys = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert keys == {f.name for f in fields(ScenarioConfig)}


def test_import_leaves_the_process_pool_unloaded():
    # Only a pooled sweep imports the process pool, with multiprocessing and socket.
    src = Path(collisim.__file__).resolve().parents[1]
    code = "import sys, collisim; print('concurrent.futures.process' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout.strip() == "False"


def load_bench_module(path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_benchmark_span_targets_resolve():
    """Every attribute the benchmark's tracer wraps still exists and is callable.

    `bench/spans.py` looks layers up by module attribute name, so moving or
    renaming one of them would otherwise only show as a failed traced run.
    """
    targets = load_bench_module(BENCH_SPANS).targets()
    assert targets
    for owner, attr, _name, count in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
        assert count is None or callable(count)


_IO_SPANS = {"cli.main", "config.load_config", "scenarios.run_scenario",
             "scenarios.write_trajectory_csv", "scenarios.write_report_files",
             "operators.trace_distance"}
_CLOSED_SPANS = _IO_SPANS | {"model.build_h_prime", "model.build_h_eff", "model.derive_rates",
                             "collision.closed_evolution", "scenarios.metrics"}
_COLLISION_SPANS = _IO_SPANS | {"model.build_h_prime", "collision.collision_superoperator",
                                "collision.run_collisions", "operators.batch_check_states"}
_ME_SPANS = {"lindblad.generator_superoperator", "lindblad.integrate", "scenarios.metrics"}
# command, config text and the span names the benchmark records for that run
SCENARIO_SPANS = {
    "verify-elimination": ("run", VERIFY.replace("400", "50"), _CLOSED_SPANS),
    "sweep": ("sweep", "scenario = sweep\nsweep_scenario = verify-elimination\n"
              "sweep_param = delta\nsweep_values = 40, 50\nn_grid = 50\n", _CLOSED_SPANS),
    "collision-vs-me": ("run", FIG3B.replace("60", "40"), _COLLISION_SPANS | _ME_SPANS | {
        "model.derive_rates", "lindblad.generator_effective_qubit"}),
    "negative-temperature": ("run", "scenario = negative-temperature\ndelta = 200\nx1 = 0.5\n"
                             "x2 = -1.5\nalpha_tau = 0.3\nn_steps = 40\n", _COLLISION_SPANS | {
                                 "model.derive_rates", "lindblad.generator_effective_qubit"}),
    "beyond-far-off": ("run", "scenario = beyond-far-off\ndelta = 5\nx1 = 0.5\nx2 = 1.5\n"
                       "tau = 0.05\nn_steps = 30\n", _COLLISION_SPANS | _ME_SPANS | {
                           "lindblad.generator_qutrit_two_bath"}),
}
# wrapped names that no scenario reaches
UNREACHED_SPANS = {"model.build_v", "operators.partial_trace_matrix", "trajectory.validate"}


@pytest.mark.parametrize("scenario", SCENARIO_SPANS)
def test_benchmark_spans_each_scenario_reaches(tmp_path, scenario):
    """The benchmark's tracer records the expected layers for one run of each scenario.

    `bench/spans.py` wraps layers by module attribute, so a call moved out
    from under a wrapped name would otherwise only zero a per-layer row.
    """
    spans = load_bench_module(BENCH_SPANS)
    command, text, expected = SCENARIO_SPANS[scenario]
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    with spans.instrument(spans.Tracer()) as tracer:
        # the benchmark harness wraps `cli.main` itself as the root span
        traced_main = tracer.wrap("cli.main", main)
        assert traced_main([command, str(path), "--output-dir", str(tmp_path / "out")]) == 0
    recorded = {span.name for span in tracer.spans}
    assert recorded == expected
    assert not recorded & UNREACHED_SPANS
    wrapped = {name for _, _, name, _ in spans.targets() if name}
    assert set().union(*(s for *_, s in SCENARIO_SPANS.values())) | UNREACHED_SPANS == (
        wrapped | {"cli.main"})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_workload_configs_parse(seed):
    """Every config the benchmark runs passes config validation.

    A benchmark input that validation rejects would only show as a failed
    benchmark run.
    """
    workloads = load_bench_module(BENCH_WORKLOADS)
    assert set(workloads.WORKLOADS) == {"long_relax", "small_batch", "closed_sweep"}
    for make in workloads.WORKLOADS.values():
        for run in make(seed).runs:
            assert parse_config_text(run.config_text()).scenario == run.config["scenario"]
