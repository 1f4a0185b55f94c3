import contextlib
import hashlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import time
import re
import string
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import collisim
from collisim import (
    ConfigError,
    NumericError,
    ScenarioConfig,
    Trajectory,
    load_config,
    metrics,
    parse_config_text,
    run_scenario,
    run_sweep,
    validate_config,
)
from collisim import config, scenarios
from collisim.cli import main
from collisim.collision import as_qutrit_matrix
from collisim.operators import trace_distance
from collisim.scenarios import subsample, write_trajectory_csv
from repin_report import compare, format_rows

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BENCH_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
BENCH_ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
# SHA-256 of every file the shipped configs write, keyed
# "<config stem>/<path relative to the output directory>".
GOLDEN_TABLE = Path(__file__).resolve().parent / "golden_outputs.sha256"
README = Path(__file__).resolve().parent.parent / "README.md"
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# SHA-256 of each demo's stdout, keyed by the demo's file stem.
DEMO_TABLE = Path(__file__).resolve().parent / "demo_outputs.sha256"

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

# Every key but three: ALL_KEYS_ALPHA_TAU swaps alpha_tau in for tau, and
# GRID_KEYS_SWEEP sets n_grid and alpha_t_max, which a negative-temperature
# sweep's points do not use and so may not take.
ALL_KEYS_SWEEP = """
scenario = sweep
delta = 200
x1 = 0.5
x2 = 1.5
tau = 40
n_steps = 7
propagator = runge_kutta
initial_populations = 0.2, 0.3, 0.5
output_path = out/all-keys
snapshot_stride = 3
sweep_scenario = negative-temperature
sweep_param = delta
sweep_values = 150, 250
workers = 1
"""
ALL_KEYS_CONFIG = ScenarioConfig(
    "sweep", delta=200.0, x1=0.5, x2=1.5, tau=40.0, n_steps=7,
    propagator="runge_kutta", initial_populations=(0.2, 0.3, 0.5),
    output_path="out/all-keys", snapshot_stride=3,
    sweep_scenario="negative-temperature", sweep_param="delta", sweep_values=(150.0, 250.0),
    workers=1)
ALL_KEYS_ALPHA_TAU = ALL_KEYS_SWEEP.replace("tau = 40", "alpha_tau = 0.3")
GRID_KEYS_SWEEP = """
scenario = sweep
n_grid = 50
alpha_t_max = 2.5
sweep_scenario = verify-elimination
sweep_param = delta
sweep_values = 40, 50
"""
GRID_KEYS_CONFIG = ScenarioConfig("sweep", n_grid=50, alpha_t_max=2.5,
                                  sweep_scenario="verify-elimination", sweep_param="delta",
                                  sweep_values=(40.0, 50.0))

SWEEP_TWO_POINTS = ("scenario = sweep\nsweep_scenario = verify-elimination\n"
                    "sweep_param = delta\nsweep_values = 40, 50\nn_grid = 50\n")

N_STEPS_SWEEP = FIG3B.replace("scenario = collision-vs-me", "scenario = sweep\n"
                              "sweep_scenario = collision-vs-me\nsweep_param = n_steps")

# A short run of each single-run scenario, and one valid value, other than
# every base's and the default, for each key a single-run scenario accepts
KEY_BASES = {
    "verify-elimination": dict(delta=50.0, n_grid=50),
    "collision-vs-me": dict(delta=50.0, x1=0.5, x2=1.5, tau=20.0, n_steps=40),
    "negative-temperature": dict(delta=50.0, x1=0.5, x2=1.5, tau=20.0, n_steps=40),
    "beyond-far-off": dict(delta=2.0, x1=1.0, x2=0.5, tau=0.05, n_steps=40),
}
KEY_VALUES = {
    "delta": 60.0, "x1": -0.5, "x2": 0.7, "tau": 0.1, "alpha_tau": 0.3,
    "n_steps": 30, "propagator": "runge_kutta", "initial_populations": (0.5, 0.5, 0.0),
    "snapshot_stride": 3, "n_grid": 60, "alpha_t_max": 2.5,
}


def constant_trajectory(pops, n=10, dt=1.0):
    arr = np.tile(pops, (n, 1))
    return Trajectory(times=np.arange(n) * dt, populations=arr)


def reference_write_trajectory_csv(path, traj, source):
    """The per-row writer that `write_trajectory_csv` replaced: its byte-level oracle."""
    lines = [scenarios.CSV_HEADER]
    for i in range(len(traj)):
        row = [str(i), f"{traj.times[i]:.12g}"]
        row += [f"{v:.12g}" for v in traj.populations[i]]
        row.append(source)
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def single_template_write_trajectory_csv(path, traj, source):
    """The one-template writer that formatted all five columns of every file:
    the byte-level oracle of column reuse."""
    row = ",".join(["%d"] + [scenarios.FLOAT_FMT] * 4 + [source.replace("%", "%%")]) + "\n"
    table = np.column_stack((np.arange(len(traj)), traj.times, traj.populations))
    with open(path, "w") as f:
        f.write(scenarios.CSV_HEADER + "\n")
        for start in range(0, len(table), scenarios.CSV_CHUNK):
            chunk = table[start:start + scenarios.CSV_CHUNK]
            f.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def grid_pair(n):
    """Two trajectories of ``n`` rows on one time grid, with different populations."""
    rng = np.random.default_rng(n)
    times = np.arange(n) * 0.1
    return (Trajectory(times=times, populations=rng.dirichlet((1, 1, 1), n)),
            Trajectory(times=times.copy(), populations=rng.dirichlet((1, 1, 1), n)))


def traced_call(call, *args):
    """``call(*args)`` under `tracemalloc`: its result, then its peak and the
    memory it left live, both above the memory live before the call, in bytes."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - before, kept - before


ADVERSARIAL_FLOATS = (-0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, 2.5e-13, 1.0 / 3.0, 0.5,
                      123456789.123456789, float("inf"), float("nan"))

# Any float64, with the cells `%.12g` treats specially drawn often
CSV_CELLS = st.one_of(st.floats(width=64), st.sampled_from(
    (0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e300, -1e300, 1e-300, -1e-300,
     float("inf"), -float("inf"), float("nan"), -float("nan"))))
CSV_SOURCES = st.tuples(st.text(string.printable, max_size=4),
                        st.text(string.printable, max_size=4)).map("%".join)


@st.composite
def csv_trajectory_pairs(draw):
    """Two trajectories on one time grid of any float64 cells, with a source
    containing `%` for each."""
    n = draw(st.integers(1, 5))
    times = draw(st.lists(CSV_CELLS, min_size=n, max_size=n))
    pops = [np.reshape(draw(st.lists(CSV_CELLS, min_size=3 * n, max_size=3 * n)), (n, 3))
            for _ in range(2)]
    return [(Trajectory(times=np.array(times), populations=p), draw(CSV_SOURCES)) for p in pops]


def count_validations(monkeypatch):
    """Record the scenario of each `validate_config` call that building a
    `ScenarioConfig` makes, a sweep's points included."""
    calls = []
    real = config.validate_config

    def counting(cfg):
        calls.append(cfg.scenario)
        return real(cfg)

    monkeypatch.setattr(config, "validate_config", counting)
    return calls


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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(delta=200.0, x1=0.5, x2=1.5),
         "scenario 'negative-temperature' requires tau or alpha_tau"),
        (dict(x1=0.5, x2=1.5, alpha_tau=0.3),
         "scenario 'negative-temperature' requires key(s): delta"),
    ], ids=["no-duration", "alpha_tau-without-delta"])
    def test_incomplete_duration_is_a_config_error_when_built(self, kwargs, message):
        # no config without a duration exists, so `effective_tau` never meets one
        with pytest.raises(ConfigError) as info:
            ScenarioConfig("negative-temperature", **kwargs)
        assert str(info.value) == message

    def test_custom_initial_state(self):
        assert parse_config_text(FIG3B).initial_populations == (1.0, 0.0, 0.0)
        cfg = parse_config_text(
            FIG3B.replace("collision-vs-me", "negative-temperature")
            + "initial_populations = 0.2, 0.3, 0.5\n"
        )
        assert cfg.initial_populations == (0.2, 0.3, 0.5)
        # within the state trace tolerance 1e-10; 1 + 5e-10 is rejected
        cfg = parse_config_text(FIG3B + "initial_populations = 0.60000000005, 0.4, 0\n")
        assert cfg.initial_populations == (0.60000000005, 0.4, 0.0)
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config_text(FIG3B + "initial_populations = 0.9,0.3,0\n")

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
        for bad in (dict(delta=float("nan")), dict(tau=float("inf"), alpha_tau=None)):
            with pytest.raises(ConfigError):
                replace(cfg, **bad)

    def test_grid_bound_is_the_largest_population_table_numpy_sizes(self):
        with pytest.raises(ValueError, match="too big"):
            np.empty((config.MAX_GRID + 1, 3))  # raised before any allocation
        validate_config(ScenarioConfig("verify-elimination", delta=50.0, n_grid=config.MAX_GRID))
        with pytest.raises(ConfigError, match="n_grid: must be between 2 and"):
            ScenarioConfig("verify-elimination", delta=50.0, n_grid=1)

    def test_grid_bound_matches_numpy_index_type_and_readme(self):
        # config spells the bound without numpy; README's key table quotes it
        assert config.MAX_GRID == np.iinfo(np.intp).max // 24 == 384307168202282325
        assert f"at most the {config.MAX_GRID} rows" in README.read_text()

    def test_zero_detuning_stays_valid_beyond_far_off(self, tmp_path):
        cfg = parse_config_text("scenario = beyond-far-off\ndelta = 0\nx1 = 1\nx2 = 1\n"
                                "tau = 0.05\n")
        assert cfg.delta == 0.0
        # and runs, with no derive_rates: the default count is
        # ceil(5 / ((p1(1) + p1(1)) tau * tau)) = 3719
        assert run_scenario(cfg, tmp_path).passed
        assert {"orig.csv", "me10.csv"} <= {f.name for f in tmp_path.iterdir()}
        assert "n_steps = 3719\n" in (tmp_path / "report.kv").read_text()

    def test_rejects_fractional_n_steps_sweep(self):
        with pytest.raises(ConfigError, match="n_steps must be whole numbers"):
            parse_config_text(N_STEPS_SWEEP + "sweep_values = 10.7\n")

    def test_every_field_parses_to_its_declared_type(self):
        cases = ((ALL_KEYS_SWEEP, ALL_KEYS_CONFIG),
                 (ALL_KEYS_ALPHA_TAU, replace(ALL_KEYS_CONFIG, tau=None, alpha_tau=0.3)),
                 (GRID_KEYS_SWEEP, GRID_KEYS_CONFIG))
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
        assert metrics(a, a) == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        a = constant_trajectory([0.5, 0.5, 0.0])
        b = constant_trajectory([0.6, 0.4, 0.0])
        dev = metrics(a, b)
        assert type(dev) is tuple and all(type(d) is float for d in dev)
        assert_allclose(dev, (0.1, 0.1, 0.0), atol=1e-15)

    def test_rejects_different_grids(self):
        a = constant_trajectory([1.0, 0.0, 0.0], n=10)
        b = constant_trajectory([1.0, 0.0, 0.0], n=20, dt=0.5)
        with pytest.raises(ValueError, match="resampling"):
            metrics(a, b)

    def test_column_maxima_match_the_full_array_formula(self):
        # the old formula: both (n, 3) temporaries, then each column's maximum
        pops = np.random.default_rng(7).random((2, 1001, 3))
        pops[0, :, 2], pops[1, :, 2] = -0.0, 0.0
        pops[:, 30] = -0.0
        nans = pops.copy()
        nans[0, 10, 0], nans[1, 20, 1] = np.nan, -np.nan
        for a_pops, b_pops in ((pops[0], pops[1]), (np.asfortranarray(pops[1]), pops[0]),
                               (pops[0, ::2], pops[1, ::2]), (nans[0], nans[1])):
            a, b = (Trajectory(times=np.arange(len(p)), populations=p)
                    for p in (a_pops, b_pops))
            old = [float(np.max(col)) for col in np.abs(a.populations - b.populations).T]
            new = metrics(a, b)
            assert np.array(new).view(np.uint64).tolist() == np.array(old).view(np.uint64).tolist()

    @pytest.mark.parametrize("a_times, b_times", [
        ([-0.0, 1.0, np.inf], [0.0, 1.0, np.inf]),        # bit-different, equal
        ([0.0, 1.0, np.inf], [0.0, 1.0 + 5e-10, np.inf]),  # within the tolerance
        ([0.0, 1.0, np.inf], [0.0, 1.0 + 2e-9, np.inf]),  # beyond it
        ([0.0, 1.0, np.inf], [0.0, 1.0, -np.inf]),
        ([0.0, 1.0, np.nan], [0.0, 1.0, np.nan]),          # NaN matches nothing
    ])
    def test_grid_verdict_is_the_tolerance_one(self, a_times, b_times):
        # bit-equal grids are accepted before the tolerance is tried, and the
        # verdict stays that of the tolerance alone
        a, b = (Trajectory(times=t, populations=np.zeros((3, 3)))
                for t in (a_times, b_times))
        if np.allclose(a_times, b_times, rtol=0, atol=1e-9):
            assert metrics(a, b) == metrics(a, a) == (0.0, 0.0, 0.0)
        else:
            with pytest.raises(ValueError, match="resampling"):
                metrics(a, b)

    def test_subsample_renumbers_steps(self):
        # rows renumber by position; the kept snapshots' steps follow them
        b = replace(constant_trajectory([1.0, 0.0, 0.0], n=9, dt=1.0),
                    snapshot_steps=[0, 3, 4, 8], snapshot_states=np.zeros((4, 3, 3)))
        sub = subsample(b, 2)
        assert len(sub) == 5
        assert_allclose(sub.times, [0, 2, 4, 6, 8])
        assert list(sub.snapshot_steps) == [0, 2, 4]


class TestTraceDistanceTable:
    CHUNK = scenarios.CSV_CHUNK

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("b_shape", [(2, 2), (3, 3), None], ids=["qubits", "qutrits", "single"])
    def test_blocks_keep_the_bits_of_one_call(self, n, b_shape):
        # a on every 2nd step and b on every 3rd: n shared steps, the multiples of 6
        rng = np.random.default_rng(n)
        a_steps, b_steps = np.arange(0, 6 * n, 2), np.arange(0, 6 * n, 3)
        traj = Trajectory(times=np.arange(6 * n) * 0.1, populations=np.zeros((6 * n, 3)))

        def states(count, d):
            return rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))

        a = states(len(a_steps), 3)
        steps, ia, ib = np.intersect1d(a_steps, b_steps, return_indices=True)
        assert len(steps) == n
        if b_shape is None:
            b, ib = states(1, 3)[0], None
            whole = trace_distance(a[ia], b)
        else:
            b = states(len(b_steps), b_shape[0])
            whole = trace_distance(a[ia], as_qutrit_matrix(b[ib]))
        table = scenarios._trace_distance_table(traj, steps, a, ia, b, ib)
        expected = np.column_stack((steps * 0.1, whole))
        assert np.asarray(table, dtype=float).reshape(-1, 2).tobytes() == expected.tobytes()


class TestIntegerCells:
    """Cells that hold exact integers below 10^12 in magnitude are written with
    ``%d``, and a level that is +0.0 throughout a chunk as a literal ``0``;
    the bytes stay those of the per-row ``%.12g`` writer."""

    CHUNK = scenarios.CSV_CHUNK

    def assert_per_row_bytes(self, tmp_path, times, populations):
        n = len(times)
        first = Trajectory(times=times, populations=populations)
        second = replace(first, populations=populations[::-1])
        columns = write_trajectory_csv(tmp_path / "first.csv", first, "orig")
        assert write_trajectory_csv(tmp_path / "second.csv", second, "me5", columns) is columns
        reference_write_trajectory_csv(tmp_path / "ref_first.csv", first, "orig")
        reference_write_trajectory_csv(tmp_path / "ref_second.csv", second, "me5")
        for name in ("first", "second"):
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"ref_{name}.csv").read_bytes())

    @staticmethod
    def populations(n):
        return np.random.default_rng(n).dirichlet((1, 1, 1), n)

    @pytest.mark.parametrize("n", [3, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_integral_time_grid(self, tmp_path, n):
        self.assert_per_row_bytes(tmp_path, np.arange(n) * 2.0, self.populations(n))

    @pytest.mark.parametrize("last", [10**12 - 1, 10**12])
    @pytest.mark.parametrize("n", [3, CHUNK + 1], ids=["one-chunk", "two-chunks"])
    @pytest.mark.parametrize("order", ["rising", "falling"])
    def test_times_up_to_ten_to_the_twelve(self, tmp_path, last, n, order):
        # rising, `last` is the final row (alone in the second chunk when there
        # are two); falling, it is the first, and the final row is below it
        times = float(last) - np.arange(n)
        self.assert_per_row_bytes(tmp_path, times[::-1] if order == "rising" else times,
                                  self.populations(n))

    @pytest.mark.parametrize("n", [3, CHUNK + 1])
    def test_negative_integers(self, tmp_path, n):
        populations = np.tile([-1.0, 3.0, -(10.0**12 - 1)], (n, 1))
        self.assert_per_row_bytes(tmp_path, -3.0 * np.arange(n)[::-1] - 1.0, populations)

    @pytest.mark.parametrize("row", [0, 1, -1])
    def test_minus_zero_time(self, tmp_path, row):
        times = np.arange(5) * 2.0
        times[row] = -0.0
        self.assert_per_row_bytes(tmp_path, times, self.populations(5))

    @pytest.mark.parametrize("cells", [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, -0.0]])
    def test_minus_zero_population(self, tmp_path, cells):
        populations = self.populations(3)
        populations[:, 2] = cells
        self.assert_per_row_bytes(tmp_path, np.arange(3) * 2.0, populations)

    @pytest.mark.parametrize("cell", [0.0, 1e-17, 1.0, 5.0])
    @pytest.mark.parametrize("n", [CHUNK + 2, 2 * CHUNK + 2])
    def test_zero_padded_level_with_one_cell_set_in_its_last_chunk(self, tmp_path, n, cell):
        # not the final row, which the early test reads; 0.0 leaves the level all literal
        populations = self.populations(n)
        populations[:, 2] = 0.0
        populations[n - 2, 2] = cell
        self.assert_per_row_bytes(tmp_path, np.arange(n) * 2.0, populations)


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
        traj = Trajectory(times=cells[:, 0], populations=cells[:, 1:])
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(csv_trajectory_pairs())
    def test_bytes_writer_matches_per_row_writer(self, pair):
        (first, first_source), (second, second_source) = pair
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            columns = write_trajectory_csv(out / "first.csv", first, first_source)
            assert write_trajectory_csv(out / "reused.csv", second, second_source, columns) is columns
            write_trajectory_csv(out / "alone.csv", second, second_source)
            reference_write_trajectory_csv(out / "ref_first.csv", first, first_source)
            reference_write_trajectory_csv(out / "ref.csv", second, second_source)
            assert (out / "first.csv").read_bytes() == (out / "ref_first.csv").read_bytes()
            expected = (out / "ref.csv").read_bytes()
            assert (out / "reused.csv").read_bytes() == expected
            assert (out / "alone.csv").read_bytes() == expected

    def test_writer_memory_peak(self, tmp_path):
        # The step and time columns are formatted and the rows written one
        # CSV_CHUNK (1024 rows) at a time, and the columns kept between files
        # are the step and time text only.  Measured: a 0.88 MB peak, 0.63 MB
        # kept.  The writer with 4096-row chunks whose kept templates held the
        # population slots too peaked at 2.50 MB and kept 1.53 MB; listing the
        # whole trajectory at once peaks at 6.43 MB and shows as a higher peak
        # RSS on long runs.
        n = 50_001
        traj = Trajectory(times=np.arange(n) * 0.01,
                          populations=np.random.default_rng(0).dirichlet((1, 1, 1), n))
        _, peak, kept = traced_call(write_trajectory_csv, tmp_path / "orig.csv", traj, "orig")
        assert peak <= 1.25e6
        assert kept <= 1.2 * 0.63e6

    def test_run_memory_peak(self, tmp_path):
        # A whole collision-vs-me run of 20 000 collisions, snapshots at the
        # default stride: the output stage works a CSV_CHUNK block at a time, so
        # the peak is the trajectories plus one block.  Measured: 2.69 MB above
        # the memory live before the run, bounded here at that plus 20%.  With
        # each trajectory also storing its step indices (8 B a row) the same
        # run peaked at 3.01 MB; with the trace-distance table diagonalized as
        # one stack and 4096-row CSV chunks, at 4.09 MB.
        cfg = parse_config_text(FIG3B.replace("n_steps = 60", "n_steps = 20000"))
        _, peak, _ = traced_call(run_scenario, cfg, tmp_path)
        assert peak <= 1.2 * 2.69e6

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

    @pytest.mark.parametrize("text, source", [
        ("scenario = beyond-far-off\ndelta = 2\nx1 = 1\nx2 = 2\ntau = 0.05\nn_steps = 100\n", "me10"),
        (FIG3B, "me5"),
    ], ids=["beyond-far-off", "collision-vs-me"])
    def test_master_equation_carries_the_collision_times(self, tmp_path, text, source):
        # One step of exp(G tau) per collision: the master-equation times are the
        # collision times bit for bit, so its CSV reuses the first file's columns.
        cfg = parse_config_text(text)
        _, trajectories = scenarios._RUNNERS[cfg.scenario](cfg)
        orig, me = trajectories["orig"], trajectories[source]
        assert np.array_equal(orig.times.view(np.int64), me.times.view(np.int64))
        columns = write_trajectory_csv(tmp_path / "orig.csv", orig, "orig")
        assert write_trajectory_csv(tmp_path / f"{source}.csv", me, source, columns) is columns

    @pytest.mark.parametrize("name, expected", [
        ("negative_temperature", 300),  # 5 / (rate * tau) = 131.6, below the floor
        ("collision_vs_me_short", 200001),  # ceil(200000.0005), the n_steps of its golden report.kv
    ])
    def test_default_collision_count(self, monkeypatch, name, expected):
        """The default step rule max(300, ceil(5 / (rate * tau))) at the rate each scenario passes."""
        cfg = load_config(CONFIG_DIR / f"{name}.cfg")
        assert cfg.n_steps is None
        counts, rule = [], scenarios.default_collision_count

        class Stop(Exception):
            pass

        def count_and_stop(p, relaxation_rate):
            counts.append(rule(p, relaxation_rate))
            raise Stop  # before any collision is computed

        monkeypatch.setattr(scenarios, "default_collision_count", count_and_stop)
        with pytest.raises(Stop):
            scenarios._RUNNERS[cfg.scenario](cfg)
        assert counts == [expected]

    @pytest.mark.parametrize("text", [
        FIG3B,
        FIG3B.replace("collision-vs-me", "negative-temperature"),
        "scenario = beyond-far-off\ndelta = 2\nx1 = 1\nx2 = 2\ntau = 0.05\nn_steps = 60\n",
    ], ids=["collision-vs-me", "negative-temperature", "beyond-far-off"])
    def test_ground_state_is_the_default_start(self, tmp_path, text):
        outputs = []
        for name, extra in (("default", ""), ("explicit", "initial_populations = 1, 0, 0\n")):
            run_scenario(parse_config_text(text + extra), tmp_path / name)
            outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("times", [
        np.array(ADVERSARIAL_FLOATS),
        np.arange(scenarios.CSV_CHUNK + 1) * 2.0,  # exact integers in both blocks
        np.arange(scenarios.CSV_CHUNK + 1) * 0.1,
        1e12 - np.arange(scenarios.CSV_CHUNK + 1)[::-1],  # 10^12 alone in the second block
        np.array([-0.0, 2.0, 4.0]),
    ], ids=["adversarial", "integral", "fractional", "ten-to-the-twelve", "minus-zero"])
    def test_report_table_matches_per_line_writer(self, tmp_path, times):
        dists = np.resize(np.array(ADVERSARIAL_FLOATS[::-1]), len(times))
        report = scenarios.ComparisonReport("beyond-far-off", (), (),
                                            trace_distances=np.column_stack((times, dists)))
        scenarios.write_report_files(tmp_path, report)
        lines = (tmp_path / "report.txt").read_text().splitlines()
        start = lines.index("  trace distance (t, value):") + 1
        # the per-line writer the template replaced
        fmt = scenarios.FLOAT_FMT
        assert lines[start:start + len(times)] == [f"    {fmt % t:>16s}  {fmt % d}"
                                                   for t, d in zip(times.tolist(), dists.tolist())]
        assert lines[start + len(times):] == ["", "result: PASS"]
        kv = (tmp_path / "report.kv").read_text().splitlines()
        assert f"trace_distance_max = {fmt % max(dists.tolist())}" in kv

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

    def test_run_scenario_rejects_sweep(self, tmp_path):
        cfg = parse_config_text(
            "scenario = sweep\nsweep_scenario = verify-elimination\n"
            "sweep_param = delta\nsweep_values = 50\n"
        )
        with pytest.raises(ConfigError):
            run_scenario(cfg, tmp_path)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(scenario="collision-vs-me", delta=200.0, x1=1e-4, x2=1e-4, alpha_tau=0.3,
              n_steps=60, initial_populations=(0.5, 0.3, 0.2)),
         "zero initial top-level"),
        (dict(scenario="negative-temperature", delta=200.0, x1=0.5, x2=1.5),
         "requires tau or alpha_tau"),
        (dict(scenario="sweep", x1=0.5, x2=1.5, sweep_scenario="negative-temperature",
              sweep_param="delta", sweep_values=(200.0,)), "requires tau or alpha_tau"),
        (dict(scenario="sweep", sweep_scenario="verify-elimination", sweep_param="delta",
              sweep_values=(50.0,), workers=2), "^workers: must be 1, got 2$"),
    ], ids=["top-level-population", "no-duration", "sweep-point-without-duration",
            "two-workers"])
    def test_scenario_rules_are_checked_when_built(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("bad, message", [
        (dict(initial_populations=(0.9, 0.3, 0)),
         "initial_populations: populations must sum to 1"),
        (dict(initial_populations=(-0.1, 1.1, 0)),
         "initial_populations: populations must be nonnegative"),
        (dict(initial_populations=(0.5, 0.5)),
         "initial_populations: expected three comma-separated populations"),
        (dict(sweep_values=()), "sweep_values: expected a comma-separated value list"),
        (dict(n_grid=2.5), "n_grid: expected an integer, got 2.5"),
        (dict(snapshot_stride=2.5), "snapshot_stride: expected an integer, got 2.5"),
        (dict(n_steps=True), "n_steps: expected an integer, got True"),
        (dict(initial_populations=[0.2, 0.3, float("nan")]),
         r"initial_populations: expected a tuple of numbers, got \[0.2, 0.3, nan\]"),
        (dict(delta="50"), "delta: expected a number, got '50'"),
        (dict(delta=10**400), "delta: must be finite, got 10{400}$"),
        (dict(alpha_tau=1e-300, delta=1e-300),
         "collision duration must be positive and finite, got 0.0"),
        # alpha_tau * delta past the float range, as for floats, not an int division error
        (dict(alpha_tau=10**200, delta=10**200),
         "collision duration must be positive and finite, got inf"),
    ], ids=["population-sum", "negative-population", "two-populations", "no-sweep-values",
            "float-n-grid", "float-snapshot-stride", "bool-n-steps", "list-populations",
            "text-delta", "int-delta-past-the-float-range", "alpha-tau-times-delta-underflows",
            "int-alpha-tau-times-delta-past-the-float-range"])
    def test_code_built_values_are_checked_before_any_work(self, bad, message):
        single = ScenarioConfig("collision-vs-me", delta=200.0, x1=1e-4, x2=1e-4, alpha_tau=0.3,
                                n_steps=60)
        sweep = replace(single, scenario="sweep", sweep_scenario="collision-vs-me",
                        sweep_param="n_steps", sweep_values=(10.0,))
        for cfg in (single, sweep):
            with pytest.raises(ConfigError, match=message):
                replace(cfg, **bad)

    @pytest.mark.parametrize("kwargs, keys", [
        (dict(scenario="verify-elimination", delta=50.0, tau=3.0, x1=7.0), "tau, x1"),
        (dict(scenario="collision-vs-me", delta=200.0, x1=0.0, x2=0.0, tau=0.05, n_grid=50,
              workers=2), "n_grid, workers"),
        (dict(scenario="negative-temperature", delta=200.0, x1=0.5, x2=1.5, tau=0.05,
              sweep_values=(1.0,)), "sweep_values"),
    ], ids=["verify-elimination", "collision-vs-me", "negative-temperature"])
    def test_fields_a_scenario_does_not_use_must_hold_their_defaults(self, kwargs, keys):
        scenario = kwargs["scenario"]
        message = f"key(s) not applicable to scenario {scenario!r}: {keys}"
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(**kwargs)
        assert str(info.value) == message
        # the parser says the same about the same keys in a config text
        text = "".join(f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                       for k, v in kwargs.items())
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value) == message
        # at their defaults the same fields pass
        defaults = {f.name: f.default for f in fields(ScenarioConfig) if f.name in kwargs}
        assert ScenarioConfig(**{**kwargs, **{k: defaults[k] for k in keys.split(", ")}})

    def test_sweep_points_reset_the_sweeps_own_fields_and_reject_unused_keys(self):
        sweep = load_config(CONFIG_DIR / "sweep_detuning.cfg")
        for point, delta in zip(config.sweep_points(sweep), sweep.sweep_values):
            assert point == ScenarioConfig("verify-elimination", delta=delta)
        (point,) = config.sweep_points(replace(ALL_KEYS_CONFIG, sweep_values=(150.0,)))
        assert point == replace(ALL_KEYS_CONFIG, scenario="negative-temperature", delta=150.0,
                                output_path=None, sweep_scenario=None, sweep_param=None,
                                sweep_values=None)
        # any other field the points' scenario does not use must hold its default, as in
        # a single-run config
        message = "key(s) not applicable to scenario 'collision-vs-me': alpha_t_max, n_grid"
        with pytest.raises(ConfigError) as info:
            replace(ALL_KEYS_CONFIG, sweep_scenario="collision-vs-me",
                    initial_populations=(1.0, 0.0, 0.0), n_grid=500, alpha_t_max=2.0)
        assert str(info.value) == message
        with pytest.raises(ConfigError) as info:
            parse_config_text(FIG3B.replace("scenario = collision-vs-me", "scenario = sweep\n"
                              "sweep_scenario = collision-vs-me\nsweep_param = delta\n"
                              "sweep_values = 100, 200\nn_grid = 500\nalpha_t_max = 2"))
        assert str(info.value) == message

    def test_library_runs_validate_when_built(self, tmp_path, monkeypatch):
        calls = count_validations(monkeypatch)
        single = ScenarioConfig("verify-elimination", delta=50.0, n_grid=50)
        assert calls == ["verify-elimination"]
        run_scenario(single, tmp_path / "single")
        assert calls == ["verify-elimination"]
        sweep = ScenarioConfig("sweep", n_grid=50, sweep_scenario="verify-elimination",
                               sweep_param="delta", sweep_values=(40.0, 50.0))
        assert calls[1:] == ["sweep", "verify-elimination", "verify-elimination"]
        # the run builds each point again, and each point validates as it is built
        run_sweep(sweep, tmp_path / "sweep")
        assert calls[4:] == ["verify-elimination", "verify-elimination"]
        with pytest.raises(ConfigError, match="zero detuning"):
            replace(single, delta=0.0)
        with pytest.raises(ConfigError, match="zero detuning"):
            replace(sweep, sweep_values=(40.0, 0.0))

    @pytest.mark.parametrize("scenario", ["collision-vs-me", "negative-temperature",
                                          "beyond-far-off"])
    @pytest.mark.parametrize("tau", [2, 10**20])  # 10**20 is past int64
    def test_an_int_tau_runs_as_the_float_of_its_value(self, tmp_path, scenario, tau):
        def outcome(tau, out):
            """The run's error, or its report's fields and its files; then its trace-distance table."""
            cfg = ScenarioConfig(scenario, delta=20, x1=1, x2=-1, tau=tau, n_steps=3)
            try:
                report = run_scenario(cfg, out)
            except NumericError as err:
                return (type(err), str(err)), None
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            return (report.scenario, report.checks, report.metrics, files), report.trace_distances

        (int_run, int_table), (float_run, float_table) = (
            outcome(tau, tmp_path / "int"), outcome(float(tau), tmp_path / "float"))
        assert int_run == float_run
        # the table is an array: compared value by value with ==, as its pairs were
        assert np.array_equal(int_table, float_table)

    @pytest.mark.parametrize("scenario", ["negative-temperature", "collision-vs-me"])
    def test_int_inputs_report_float_values(self, tmp_path, scenario):
        def outcome(number, out):
            cfg = ScenarioConfig(scenario, delta=number(200), x1=number(1),
                                 x2=number(-1), alpha_tau=0.3, n_steps=30)
            report = run_scenario(cfg, out)
            values = [*(v for _, v in report.metrics), *(c.value for c in report.checks)]
            # type, not value: 2 == 2.0 would hide an int
            assert [type(v) for v in values] == [float] * len(values), report
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        assert outcome(int, tmp_path / "int") == outcome(float, tmp_path / "float")

    @pytest.mark.parametrize("scenario", KEY_BASES)
    def test_every_accepted_key_moves_the_outputs(self, tmp_path, scenario):
        # No accepted key is silently ignored.  output_path is left out: other tests
        # check where files land.  In beyond-far-off, delta leaves me10.csv as it is:
        # from a diagonal start, the two-bath generator's populations do not depend on it.
        def outputs(kwargs, out):
            run_scenario(ScenarioConfig(scenario, **kwargs), out)
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        required, optional = config.SCENARIO_KEYS[scenario]
        base = outputs(KEY_BASES[scenario], tmp_path / "base")
        for key in sorted(required | optional - {"scenario", "output_path"}):
            assert key in KEY_VALUES, f"no value to set {key!r} to"
            kwargs = dict(KEY_BASES[scenario])
            assert kwargs.get(key) != KEY_VALUES[key]
            if key == "alpha_tau":  # it replaces tau
                del kwargs["tau"]
            kwargs[key] = KEY_VALUES[key]
            assert outputs(kwargs, tmp_path / key) != base, f"{key} changes no output of {scenario}"


class TestShippedConfigs:
    @pytest.fixture(scope="class", params=sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
    def shipped_run(self, request, tmp_path_factory):
        """One run of a shipped config, shared by the tests of this class:
        its path, config, output directory and run time."""
        path, out = request.param, tmp_path_factory.mktemp(request.param.stem)
        cfg = load_config(path)
        start = time.time()
        (run_sweep if cfg.scenario == "sweep" else run_scenario)(cfg, out)
        return path, cfg, out, time.time() - start

    def test_validates_and_completes_in_budget(self, shipped_run):
        path, _, out, seconds = shipped_run
        assert seconds < 60.0

        written = {
            f"{path.stem}/{f.relative_to(out).as_posix()}":
                hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.rglob("*") if f.is_file()
        }
        golden = {}
        for line in GOLDEN_TABLE.read_text().splitlines():
            digest, key = line.split(maxsplit=1)
            if key.startswith(f"{path.stem}/"):
                golden[key] = digest
        assert golden, f"no golden digests for {path.stem}"
        changed = sorted(k for k in written.keys() & golden.keys() if written[k] != golden[k])
        missing = sorted(golden.keys() - written.keys())
        extra = sorted(written.keys() - golden.keys())
        assert written == golden, f"changed: {changed}; missing: {missing}; extra: {extra}"

    def test_outputs_match_the_independent_oracle(self, shipped_run, tmp_path):
        """`bench/oracle.py` recomputes sampled CSV rows without collisim's stepping code."""
        _, cfg, out, _ = shipped_run
        # the oracle assumes a ground-state start and alpha_t_max = 5
        assert (cfg.initial_populations, cfg.alpha_t_max) == ((1.0, 0.0, 0.0), 5.0)
        config = {f.name: getattr(cfg, f.name) for f in fields(cfg)
                  if getattr(cfg, f.name) is not None}  # with its defaults filled in
        if cfg.scenario == "verify-elimination":  # which the oracle reads as a one-point sweep
            config.update(scenario="sweep", sweep_values=(cfg.delta,))
            (tmp_path / f"point_000_delta_{cfg.delta:g}").symlink_to(out)
            out = tmp_path
        oracle = load_bench_module(BENCH_ORACLE)
        assert oracle.check_run(SimpleNamespace(config=config), out) == []


# What `exp_step_map` says of a |G dt|_1 outside its range
STEP_MAP_ERROR = ("master-equation step map exp(G dt): |G dt|_1 = %s is not finite or not below "
                  "2^32, the range its accuracy holds in")


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
    def test_exponents_past_the_exp_range_run(self, tmp_path, capsys, exponents):
        # e^800 raised "math range error"; the raising rate is now 0, so the run
        # takes its n_steps, and without them the default count is infinite
        text = "scenario = collision-vs-me\ndelta = 200\nalpha_tau = 0.3\n" + exponents
        path = self.write(tmp_path, text + "n_steps = 3\n", "steps.cfg")
        assert main(["run", path, "--output-dir", str(tmp_path / "steps")]) in (0, 1)
        assert capsys.readouterr().err == ""
        path = self.write(tmp_path, text)
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == ("numeric error: default n_steps 5.0 / (relaxation "
                                           "rate * tau) is not finite; give n_steps\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "scenario = collision-vs-me\ndelta = 200\nx1 = 800\nx2 = -800\ntau = 1\nn_steps = 3\n",
        "scenario = negative-temperature\nalpha_tau = 0.3\ndelta = 2\nn_steps = 1\n"
        "x1 = 9223372036854775807\nx2 = 0.5\n",
        "scenario = beyond-far-off\ndelta = 2\nx1 = 800\nx2 = -750\ntau = 0.05\nn_steps = 3\n",
    ], ids=["collision-vs-me", "negative-temperature", "beyond-far-off"])
    def test_thermal_rates_at_any_finite_exponent_run(self, tmp_path, capsys, text):
        # each rate's e^x raised "math range error"; the rates come from the stable populations
        path = self.write(tmp_path, text)
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) in (0, 1)
        assert "error" not in capsys.readouterr().err

    def test_verify_elimination_tolerance_past_the_float_range_is_numeric_error(self, tmp_path,
                                                                               capsys):
        # (50 / delta)^2 raised "(34, 'Numerical result out of range')"
        path = self.write(tmp_path, "scenario = verify-elimination\ndelta = 1e-300\nn_grid = 2\n"
                                    "alpha_t_max = 5\n")
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == ("numeric error: deviation tolerance 0.02 * (50 g / "
                                           "delta)^2 = inf is not finite\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, err", [
        # runge_kutta always takes the default_substeps rule
        ("run", FIG3B + "propagator = runge_kutta\nsubsteps = 4000\n", "unknown key(s): substeps"),
        # a run starts from its initial_populations, 1, 0, 0 by default
        ("run", FIG3B + "initial_state = ground_S\n", "unknown key(s): initial_state"),
        ("run", FIG3B + "initial_state = custom\ninitial_populations = 0.5, 0.5, 0\n",
         "unknown key(s): initial_state"),
        # a bath's temperature is its exponents x1, x2
        ("run", FIG3B + "omega_a1 = 5\n", "unknown key(s): omega_a1"),
        ("run", FIG3B + "omega_a2 = 3\n", "unknown key(s): omega_a2"),
        ("run", FIG3B + "omega_a1 = 5\nomega_a2 = 3\n", "unknown key(s): omega_a1, omega_a2"),
        # the coupling is the unit of every frequency, time and rate
        ("run", FIG3B + "g = 2\n", "unknown key(s): g"),
        ("sweep", N_STEPS_SWEEP.replace("sweep_param = n_steps", "sweep_param = g")
         + "sweep_values = 2\n",
         "sweep_param: must be one of alpha_tau, delta, n_steps, tau, x1, x2, got 'g'"),
    ], ids=["substeps", "initial_state-ground_S", "initial_state-custom", "omega_a1", "omega_a2",
            "both-omegas", "g", "g-sweep"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, command, text, err):
        path = self.write(tmp_path, text)
        assert main(["validate", path]) == 2
        assert main([command, path, "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {err}\n" * 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("delta, tau", [("1e200", "1"), ("1e150", "1e-10")],
                             ids=["rate-underflows", "rate-times-tau-underflows"])
    def test_default_n_steps_past_the_float_range_is_numeric_error(self, tmp_path, capsys,
                                                                     delta, tau):
        # 1/delta^2 underflows to a zero rate in the first case, and
        # rate * tau underflows to 0 in the second: either count is infinite
        path = self.write(tmp_path, f"scenario = collision-vs-me\ndelta = {delta}\n"
                                    f"x1 = 0.5\nx2 = 1.5\ntau = {tau}\n")
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == ("numeric error: default n_steps 5.0 / (relaxation "
                                           "rate * tau) is not finite; give n_steps\n")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("n_grid", [2**63 - 1, 2**63, 2**64, config.MAX_GRID + 1])
    @pytest.mark.parametrize("command, text", [
        ("run", "scenario = verify-elimination\ndelta = 50\n"),
        ("sweep", "scenario = sweep\nsweep_scenario = verify-elimination\n"
                  "sweep_param = delta\nsweep_values = 40, 50\n"),
    ], ids=["run", "sweep"])
    def test_grid_numpy_cannot_size_is_config_error(self, tmp_path, capsys, n_grid, command,
                                                     text):
        # numpy cannot size an (n_grid, 3) float64 table past MAX_GRID rows
        path = self.write(tmp_path, text + f"n_grid = {n_grid}\n")
        assert main([command, path, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: n_grid: must be between 2 and {config.MAX_GRID}, got {n_grid}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, err", [
        ("run", "scenario = verify-elimination\ndelta = 1e300\nalpha_t_max = 1e300\nn_grid = 2\n",
         "numeric error: time span alpha_t_max / alpha = inf is not finite\n"),
        ("sweep", "scenario = sweep\nsweep_scenario = verify-elimination\nsweep_param = delta\n"
                  "sweep_values = 1e200\nn_grid = 2\n",
         "numeric error: purity drifted by nan at grid point 1\n"),
    ], ids=["time-span-overflow", "phase-overflow"])
    def test_closed_evolution_past_the_float_range_is_numeric_error(self, tmp_path, capsys,
                                                                     command, text, err):
        # inputs the config fuzz found: the time span alpha_t_max / alpha
        # overflows, or the phases e t do, whose
        # numpy warnings are errors under this suite's warning filters
        path = self.write(tmp_path, text)
        assert main([command, path, "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, err", [
        # alpha = 1/delta < 0: the grid ran backwards, "t_grid must be strictly increasing"
        ("run", "scenario = verify-elimination\ndelta = -50\n",
         "error: delta: verify-elimination needs a positive detuning, got -50.0\n"),
        ("sweep", "scenario = sweep\nsweep_scenario = verify-elimination\nsweep_param = delta\n"
                  "sweep_values = 40, -50\nn_grid = 50\n",
         "error: delta: verify-elimination needs a positive detuning, got -50.0\n"),
        # the grid's steps underflowed to 0: the same t_grid message
        ("run", "scenario = verify-elimination\ndelta = 50\nalpha_t_max = 5e-324\n",
         "error: alpha_t_max: time step (alpha_t_max / alpha) / (n_grid - 1) = 0.0 with "
         "alpha = g^2/delta is below the normal float range\n"),
        # alpha = 1/32 exactly, so the step is 2^-1023, the largest float below the normal range
        ("run", "scenario = verify-elimination\ndelta = 32\nn_grid = 2\n"
                f"alpha_t_max = {2.0**-1028!r}\n",
         "error: alpha_t_max: time step (alpha_t_max / alpha) / (n_grid - 1) = "
         f"{2.0**-1023!r} with alpha = g^2/delta is below the normal float range\n"),
        # the duration alpha_tau * delta overflows or underflows to 0
        ("run", "scenario = negative-temperature\ndelta = 1e300\nx1 = 1\nx2 = 0.5\n"
                "alpha_tau = 1e10\n",
         "error: collision duration must be positive and finite, got inf\n"),
        ("run", "scenario = negative-temperature\ndelta = 1e-300\nx1 = 1\nx2 = 0.5\n"
                "alpha_tau = 1e-300\n",
         "error: collision duration must be positive and finite, got 0.0\n"),
        # numpy cannot size the n_steps + 1 states of the trajectory
        ("run", "scenario = negative-temperature\ndelta = 200\nx1 = 1\nx2 = 0.5\ntau = 60\n"
                f"n_steps = {config.MAX_GRID}\n",
         f"error: n_steps: must be between 1 and {config.MAX_GRID - 1}, got {config.MAX_GRID}\n"),
        # sweep points run in one process
        ("sweep", SWEEP_TWO_POINTS + "workers = 2\n", "error: workers: must be 1, got 2\n"),
        ("run", SWEEP_TWO_POINTS + "workers = 2\n", "error: workers: must be 1, got 2\n"),
        # an empty output_path was read as none: the run wrote to out/<scenario>
        ("run", VERIFY + "output_path =\n", "error: output_path: must not be empty\n"),
        ("sweep", SWEEP_TWO_POINTS + "output_path =\n", "error: output_path: must not be empty\n"),
    ], ids=["negative-delta", "negative-delta-sweep-point", "grid-step-underflow",
            "grid-step-subnormal", "duration-overflow", "duration-underflow", "n-steps-unsizable",
            "two-workers-sweep", "two-workers-run", "empty-output-path-run",
            "empty-output-path-sweep"])
    def test_validate_rejects_what_run_rejects_as_config_error(self, tmp_path, capsys, command,
                                                               text, err):
        path = self.write(tmp_path, text)
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == err
        assert main([command, path, "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    def test_grid_step_at_the_normal_float_range_runs(self, tmp_path, capsys):
        # the smallest step validation accepts: alpha = 1/32, t_max = 2^-1022 over one step
        path = self.write(tmp_path, "scenario = verify-elimination\ndelta = 32\nn_grid = 2\n"
                                    f"alpha_t_max = {2.0**-1027!r}\n")
        assert main(["validate", path]) == 0
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) in (0, 1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("text, err", [
        # relaxation rate * tau underflowed to 0: a ZeroDivisionError traceback
        ("scenario = negative-temperature\ndelta = 2\nx1 = 1\nx2 = 0.5\ntau = 1e-300\n",
         "numeric error: default n_steps 5.0 / (relaxation rate * tau) is not finite; "
         "give n_steps\n"),
        # a default collision count numpy cannot size: "Maximum allowed dimension exceeded", exit 2
        ("scenario = negative-temperature\ndelta = 2\nx1 = 1\nx2 = 0.5\ntau = 1e-150\n",
         f"numeric error: over {config.MAX_GRID - 1} steps, more than numpy can size a "
         "trajectory for\n"),
        # tau = 2^64 asked for RK4 master-equation substeps past that size; one step of
        # exp(G tau) is now past the step map's range
        ("scenario = collision-vs-me\ndelta = 2\nx1 = 1\nx2 = 0.5\nn_steps = 1\n"
         "tau = 18446744073709551616\n", f"numeric error: {STEP_MAP_ERROR % '4.696e+37'}\n"),
    ], ids=["default-count-underflow", "default-count-unsizable", "me-steps-unsizable"])
    def test_step_counts_past_what_numpy_can_size_are_numeric_error(self, tmp_path, capsys,
                                                                    text, err):
        # validation accepts these: the counts come from derived rates
        path = self.write(tmp_path, text)
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, err", [
        # tau = 2e300: "cannot convert float infinity to integer" from the substep count
        ("scenario = collision-vs-me\nalpha_tau = 1e300\ndelta = 2\nn_steps = 1\nx1 = 0\nx2 = 0\n",
         STEP_MAP_ERROR % "inf"),
        # tau delta^2 = inf: "cannot convert float infinity to integer" as well
        ("scenario = beyond-far-off\ndelta = 1e150\ntau = 1e10\nn_steps = 3\nx1 = 1\nx2 = 2\n",
         STEP_MAP_ERROR % "nan"),
        # delta^2 raised "(34, 'Numerical result out of range')"; tau delta delta is inf
        ("scenario = beyond-far-off\ndelta = 1e200\ntau = 1e10\nn_steps = 3\nx1 = 1\nx2 = 2\n",
         STEP_MAP_ERROR % "nan"),
        # the effective rates tau / delta^2 are inf
        ("scenario = collision-vs-me\ndelta = 1e-200\ntau = 0.05\nn_steps = 3\nx1 = 1\n"
         "x2 = 0.5\n", STEP_MAP_ERROR % "nan"),
        # a bath rate is at most tau, but a step of it, at most tau^2, is past the float range
        ("scenario = beyond-far-off\ndelta = 0\ntau = 1e200\nn_steps = 3\nx1 = 1\n"
         "x2 = 0.5\n", STEP_MAP_ERROR % "inf"),
        # the substep count's math.ceil raised "cannot convert float infinity to integer";
        # the spectral map of the same config keeps its message
        ("scenario = beyond-far-off\ndelta = 1e300\ntau = 1e10\nn_steps = 3\nx1 = 1\nx2 = 2\n"
         "propagator = runge_kutta\n", "runge_kutta substep rule 30 * spectral radius * tau = "
                                       "inf is not finite at collision duration tau = 1e+10"),
        ("scenario = beyond-far-off\ndelta = 1e300\ntau = 1e10\nn_steps = 3\nx1 = 1\nx2 = 2\n",
         "non-finite entry at step 1"),
    ], ids=["alpha-tau-1e300", "dephasing-rate-infinite", "dephasing-rate-overflows",
            "effective-rates-overflow", "bath-rate-steps-overflow",
            "runge-kutta-substeps-infinite", "spectral-map-infinite"])
    def test_maps_and_rates_past_the_float_range_are_numeric_error(self, tmp_path, capsys, text,
                                                                   err):
        # validation accepts these: the rates and maps come from derived values
        path = self.write(tmp_path, text)
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"numeric error: {err}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text", [
        ("run", "scenario = verify-elimination\ndelta = 50\n"),
        ("sweep", "scenario = sweep\nsweep_scenario = verify-elimination\n"
                  "sweep_param = delta\nsweep_values = 40, 50\n"),
    ], ids=["run", "sweep"])
    def test_failed_run_removes_the_directories_it_made(self, tmp_path, capsys, command, text):
        # numpy can size this grid, but no memory holds it: the run fails
        # after its output directories are made, before any file is written
        path = self.write(tmp_path, text + f"n_grid = {config.MAX_GRID}\n")
        (tmp_path / "kept").mkdir()
        for out in (tmp_path / "out" / "run", tmp_path / "kept" / "run"):
            assert main([command, path, "--output-dir", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("numeric error:") and err.count("\n") == 1
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert (tmp_path / "kept").is_dir() and not any((tmp_path / "kept").iterdir())

    def test_output_dir_walk_stops_at_the_first_ancestor_that_exists(self, tmp_path,
                                                                       monkeypatch):
        # the run asks which directories it will make from the target up, and
        # no further than the first that exists
        asked, exists = [], Path.exists

        def recording(path, *args, **kwargs):
            asked.append(path)
            return exists(path, *args, **kwargs)

        monkeypatch.setattr(Path, "exists", recording)
        run_scenario(parse_config_text(VERIFY), tmp_path / "a" / "b")
        assert asked == [tmp_path / "a" / "b", tmp_path / "a", tmp_path]

    @pytest.mark.parametrize("command, text", [
        ("run", VERIFY),
        ("sweep", SWEEP_TWO_POINTS),
    ], ids=["run", "sweep"])
    def test_overlong_output_dir_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command,
                                                  text):
        # a 300-byte name in an existing directory fails every file-system
        # call with ENAMETOOLONG, the first of them the check for which
        # directories the run will make; under a missing one, `mkdir` fails
        # after making its parents
        path = self.write(tmp_path, text)
        for out in (tmp_path / ("x" * 300), tmp_path / "out" / ("x" * 300)):
            assert main([command, path, "--output-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: output path not writable:") and err.count("\n") == 1
            assert "Traceback" not in err
        # an empty name was read as no override: the run wrote to out/<scenario>
        monkeypatch.chdir(tmp_path)
        assert main([command, path, "--output-dir", ""]) == 2
        assert capsys.readouterr().err == "error: output_dir: must not be empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]

    def test_failed_sweep_point_keeps_the_points_written(self, tmp_path, capsys, monkeypatch):
        runner = scenarios._RUNNERS["verify-elimination"]

        def fails_at_delta_50(cfg):
            if cfg.delta == 50:
                raise MemoryError("Unable to allocate")
            return runner(cfg)

        monkeypatch.setitem(scenarios._RUNNERS, "verify-elimination", fails_at_delta_50)
        path = self.write(tmp_path, SWEEP_TWO_POINTS)
        out = tmp_path / "out"
        assert main(["sweep", path, "--output-dir", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["point_000_delta_40"]
        assert (out / "point_000_delta_40" / "report.kv").is_file()

    @pytest.mark.parametrize("command, text, expected", [
        ("validate", VERIFY, 1),
        ("run", VERIFY, 1),
        ("validate", SWEEP_TWO_POINTS, 3),
        ("sweep", SWEEP_TWO_POINTS, 5),
        ("sweep", SWEEP_TWO_POINTS.replace("40, 50", "25, 50, 75, 100"), 9),
    ], ids=["validate", "run", "validate-sweep", "sweep-2", "sweep-4"])
    def test_one_validation_per_entry_point(self, tmp_path, monkeypatch, command, text, expected):
        # every config validates once, as it is built: the loaded config and,
        # for a P-point sweep, its points (1 + P); `run_sweep` builds the points
        # again (1 + 2P), and nothing else validates
        calls = count_validations(monkeypatch)
        path = self.write(tmp_path, text)
        args = [] if command == "validate" else ["--output-dir", str(tmp_path / "out")]
        assert main([command, path, *args]) == 0
        assert len(calls) == expected

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
        (FIG3B.replace("alpha_tau = 0.3", "alpha_tau = nan"), "alpha_tau: must be finite"),
        (FIG3B + "initial_populations = 1, 0, nan\n",
         "initial_populations: must be finite"),
        (N_STEPS_SWEEP.replace("n_steps = 60", "n_steps = 60\nsweep_values = 10, nan"),
         "sweep_values: must be finite"),
        ("scenario = collision-vs-me\ndelta = 0\nx1 = 0\nx2 = 0\ntau = 60\n", "zero detuning"),
        ("scenario = negative-temperature\ndelta = 0\nx1 = 0\nx2 = 1\ntau = 60\n",
         "zero detuning"),
        ("scenario = verify-elimination\ndelta = 0\n", "zero detuning"),
        (FIG3B.replace("delta = 200", "delta = 1e300").replace("alpha_tau = 0.3", "alpha_tau = 1e300"),
         "collision duration must be positive and finite"),
        (FIG3B + "initial_populations = 0.5, 0.3, 0.2\n",
         "collision-vs-me requires zero initial top-level population"),
        (FIG3B + "initial_populations = 0.6000000005, 0.4, 0\n",
         "populations must sum to 1"),
    ], ids=["delta-nan", "x1-inf", "alpha-tau-nan", "population-nan", "sweep-value-nan",
            "cvm-zero-delta", "negT-zero-delta", "verify-zero-delta", "tau-overflow",
            "cvm-top-level-population", "population-sum"])
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

    @pytest.mark.parametrize("x1, x2, x_s", [("0.5", "1.5", "-1"), ("1.5", "0.5", "1")],
                             ids=["inverted", "not-inverted"])
    def test_reports_the_bath_temperature_as_x_s(self, tmp_path, x1, x2, x_s):
        # the exponents alone set the bath: the report's one temperature row is
        # x_s = x1 - x2, and the collision populations agree with its sign
        text = (f"scenario = negative-temperature\ndelta = 200\nx1 = {x1}\nx2 = {x2}\n"
                "alpha_tau = 0.3\nn_steps = 300\n")
        out = tmp_path / "out"
        assert main(["run", self.write(tmp_path, text), "--output-dir", str(out)]) == 0
        kv = dict(line.split(" = ") for line in (out / "report.kv").read_text().splitlines())
        assert kv["x_s"] == x_s
        assert kv["check.inversion_matches_sign"] == "pass"
        inverted = float(kv["final_p1_collisions"]) > float(kv["final_p0_collisions"])
        assert inverted == x_s.startswith("-")
        assert "beta_s" not in (out / "report.kv").read_text() + (out / "report.txt").read_text()


# Values that pass validation and keep a run short: a few collisions or grid
# points, and a few thousand master-equation steps at most.
FUZZ_VALID = {
    "delta": ["2"], "x1": ["1", "-0.5"], "x2": ["0.5", "2"],
    "tau": ["0.05"], "alpha_tau": ["0.3"],
    "propagator": ["spectral", "runge_kutta"],
    "initial_populations": ["1, 0, 0", "0.5, 0.5, 0", "0.2, 0.3, 0.5"],
    "n_steps": ["1", "2"], "n_grid": ["2", "5"], "alpha_t_max": ["5"],
    "snapshot_stride": ["0", "1", "10"], "workers": ["1"],
    "sweep_scenario": [s for s in config.SCENARIO_NAMES if s != "sweep"],
    "sweep_param": sorted(config.SWEEPABLE_KEYS), "sweep_values": ["1", "2", "1, 2"],
}
# The fuzz alphabet: signed zeros, infinities, NaN, the float range's ends
# (the smallest subnormal among them), a negative tiny value, the square
# roots of the range's ends, signed fractions, hex and underscore spellings,
# empty text and the integers around 2^63.  Its moderate values are 2.5 at
# most in size and its large ones 1e150 or more, so that a run it reaches is
# short or fails at once.
FUZZ_NUMBERS = ["0", "-0", "inf", "-inf", "nan", "1e300", "1e-300", "2.5", "0x10", "0.2_5", "",
                str(2**63 - 1), str(2**63), str(2**64),
                "-2.5", "-1e-300", "1e-150", "5e-324", "1e150"]
FUZZ_SIZES = ["0", "-0", "", "2.5", "0x3", "1_0", "nan", "inf", "1e300",
              str(2**63 - 1), str(2**63), str(2**64)]
FUZZ_WILD = {
    "delta": [*FUZZ_NUMBERS, "-3"],  # verify-elimination and an alpha_tau duration reject it
    "workers": ["0", "-1", "", "2.5", "0x1", "nan"],  # one process at most: no pool
    "propagator": ["", "rk4"],
    "initial_populations": ["1, 0", "0.9, 0.3, 0", "nan, 0, 1", "-0, 1, 0", ""],
    "sweep_scenario": ["sweep", "", "bogus"],
    "sweep_param": ["n_grid", "workers", "", "tau"],  # tau: not a verify-elimination key
    **dict.fromkeys(["n_steps", "n_grid", "snapshot_stride"], FUZZ_SIZES),
    # thermal exponents past exp's range
    **dict.fromkeys(["x1", "x2"], [*FUZZ_NUMBERS, "800", "-800", "709.8"]),
}
# What an `OverflowError` says: no exit-3 message may be one of these raw texts
RAW_OVERFLOW_TEXTS = ("math range error", "Numerical result out of range",
                      "cannot convert float infinity to integer")
FUZZ_ALWAYS = {"n_steps", "n_grid"}  # so that no default size rule picks a long run
FUZZ_JUNK = ["bogus = 1", "no equals sign", "delta = 1", "= 2"]


@st.composite
def fuzzed_configs(draw):
    """A command and config text for one of the five scenarios, with tiny sizes;
    about one value in six comes from the fuzz alphabet."""
    scenario = draw(st.sampled_from(config.SCENARIO_NAMES))
    # a sweep takes the keys of its points' scenario, which it draws first, and its own
    point = draw(st.sampled_from(FUZZ_VALID["sweep_scenario"])) if scenario == "sweep" else scenario
    required, optional = config.SCENARIO_KEYS[point]
    if scenario == "sweep":
        required, optional = required | config.SCENARIO_KEYS["sweep"][0], optional | {"workers"}
    valid = {**FUZZ_VALID, "sweep_scenario": [point],
             "sweep_param": sorted(config.SWEEPABLE_KEYS & (required | optional))}
    # likely: what the scenario, or a sweep's points, require, and one duration key; other
    # keys not.  The other duration key draws only wild values, so that a valid draw sets
    # at most one of tau and alpha_tau.
    duration, other = draw(st.permutations(["tau", "alpha_tau"]))
    likely = required | {"delta", "x1", "x2", duration}
    lines = [f"scenario = {scenario}"]

    def add(key):
        if key != other and draw(st.integers(0, 5)) > 0:
            value = draw(st.sampled_from(valid[key]))
        elif key == "sweep_values":
            value = ", ".join(draw(st.lists(st.sampled_from(FUZZ_NUMBERS), min_size=1,
                                            max_size=2)))
        else:
            value = draw(st.sampled_from(FUZZ_WILD.get(key, FUZZ_NUMBERS)))
        lines.append(f"{key} = {value}")

    for key in sorted(required | optional - {"scenario", "output_path"}):
        if key in FUZZ_ALWAYS or (draw(st.integers(0, 15)) > 0 if key in likely
                                  else draw(st.integers(0, 3)) == 0):
            add(key)
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(FUZZ_JUNK)))
    return "sweep" if scenario == "sweep" else "run", "\n".join(lines) + "\n"


# Each fuzz gate draws from a fixed seed, so the cases it runs change only with
# its strategies, not with its source.  Of seeds 0-19, 19 took both gates among
# the furthest, sweeps included; the floors are its counts of cases that reach a
# run, as `tests/fuzz_reach.py` prints them.
FUZZ_SEED = 19
FUZZ_TEXT_REACH_FLOOR = 115
FUZZ_CODE_REACH_FLOOR = 59


@seed(FUZZ_SEED)
@settings(max_examples=300, deadline=None, database=None)
@given(case=fuzzed_configs())
def fuzzed_config_ends_in_an_exit_code(reached: list, case):
    """One case of `test_fuzzed_configs_end_in_an_exit_code`; appends its command to
    ``reached`` when its config validates, which is exactly when the command runs it."""
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.txt", Path(tmp) / "out"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            validated = main(["validate", str(path)])
            code = main([command, str(path), "--output-dir", str(out)])
        assert code in (0, 1, 2, 3), text
        assert "Traceback" not in err.getvalue(), text
        assert code != 2 or not out.exists(), text
        assert validated in (0, 2) and (validated == 0) == (code != 2), (text, err.getvalue())
        assert code != 3 or not any(raw in err.getvalue() for raw in RAW_OVERFLOW_TEXTS), \
            (text, err.getvalue())
    if validated == 0:
        reached.append(command)


@pytest.mark.filterwarnings("ignore:delta = .* is below the far-off-resonant threshold")
def test_fuzzed_configs_end_in_an_exit_code():
    """Every config text ends in exit 0-3 with no traceback, and exit 2 leaves no
    directory; a `RuntimeWarning` is an error here, so none may escape either.
    `validate` and the run agree: the run exits 2, a config error, exactly when
    `validate` rejects the text (the output directory here is always writable).
    No exit-3 message is the raw text of an `OverflowError`.  At least
    `FUZZ_TEXT_REACH_FLOOR` cases reach a run."""
    reached = []
    fuzzed_config_ends_in_an_exit_code(reached)
    assert len(reached) >= FUZZ_TEXT_REACH_FLOOR


# Values code may pass that the parser never makes: a bool, text for a number,
# a list, NaN in any field, and integers in float fields, one of them past int64
# but within the float range and one past the float range
FUZZ_CODE_ONLY = [True, "2", [0.5, 0.5, 0.0], float("nan"), 2, 10**20, 10**400]


def code_value(key, raw):
    """What code might pass for config text ``raw``: the parser's value for
    ``key``, else a float, else the text itself."""
    for parse in (lambda raw: config._PARSERS[key](key, raw), float):
        with contextlib.suppress(ValueError):  # a ConfigError is a ValueError
            return parse(raw)
    return raw


# Short valid runs of each scenario as code might build them: each key maps
# to the values drawn for it, ints among them
CODE_BASES = [
    {"scenario": ["verify-elimination"], "delta": [2.0, 50], "n_grid": [2, 5]},
    *({"scenario": [scenario], "delta": [2.0, 50], "x1": [1.0, -0.5], "x2": [0.5, 2],
       duration: [0.05], "n_steps": [1, 2], "propagator": ["spectral", "runge_kutta"]}
      for scenario, duration in (("collision-vs-me", "tau"), ("negative-temperature", "alpha_tau"))),
    {"scenario": ["beyond-far-off"], "delta": [-3.0, 2], "x1": [1.0], "x2": [0.5, -1],
     "tau": [0.05], "n_steps": [1, 2]},
    {"scenario": ["sweep"], "sweep_scenario": ["verify-elimination"], "sweep_param": ["delta"],
     "sweep_values": [(1.0, 2.0), (50,)], "delta": [2.0], "n_grid": [2]},
]


@st.composite
def code_built_configs(draw):
    """`ScenarioConfig` keyword arguments: one time in four from a fuzzed
    config text's lines, typed by `code_value`, which mostly fail to build,
    and otherwise from `CODE_BASES`, so that many cases reach a run.  One time
    in four a key of the config's scenario then gets a `FUZZ_CODE_ONLY` value."""
    if draw(st.integers(0, 3)) == 0:
        _, text = draw(fuzzed_configs())
        kwargs = {}
        for line in text.splitlines():
            key, _, raw = line.partition(" = ")
            if key in config._PARSERS:  # not a junk line
                kwargs.setdefault(key, code_value(key, raw))
    else:
        kwargs = {key: draw(st.sampled_from(values))
                  for key, values in draw(st.sampled_from(CODE_BASES)).items()}
    if draw(st.integers(0, 3)) == 0:
        keys = set().union(*config.SCENARIO_KEYS[kwargs["scenario"]])
        kwargs[draw(st.sampled_from(sorted(keys)))] = draw(st.sampled_from(FUZZ_CODE_ONLY))
    return kwargs


@seed(FUZZ_SEED)
@settings(max_examples=100, deadline=None, database=None)
@given(kwargs=code_built_configs())
def code_built_config_ends_in_an_exit_code(reached: list, kwargs):
    """One case of `test_code_built_configs_end_in_an_exit_code`; appends its
    command, ``run`` or ``sweep``, to ``reached`` when the config builds, and so runs."""
    try:
        cfg = ScenarioConfig(**kwargs)
    except ConfigError:
        return
    reached.append("sweep" if cfg.scenario == "sweep" else "run")
    run = run_sweep if cfg.scenario == "sweep" else run_scenario
    with tempfile.TemporaryDirectory() as tmp:
        try:
            assert isinstance(run(cfg, Path(tmp) / "out"), scenarios.ComparisonReport)
        except (NumericError, OverflowError, MemoryError):
            pass


@pytest.mark.filterwarnings("ignore:delta = .* is below the far-off-resonant threshold")
def test_code_built_configs_end_in_an_exit_code():
    """Building a config raises nothing but `ConfigError`. A built config is
    valid, so its run returns a report or raises what `cli.main` maps to
    exit 3, and never what it maps to exit 2 (the output directory here is
    always writable): the verdict the text fuzz asks of `validate` and a run.
    At least `FUZZ_CODE_REACH_FLOOR` cases reach a run."""
    reached = []
    code_built_config_ends_in_an_exit_code(reached)
    assert len(reached) >= FUZZ_CODE_REACH_FLOOR


def test_readme_config_table_lists_every_config_key():
    text = README.read_text()
    table = text[text.index("### Config format"):text.index("### CSV schema")]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    keys = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert keys == {f.name for f in fields(ScenarioConfig)}


def test_readme_library_quick_start_runs(capsys):
    """README's "Library quick start" block runs against the current public API."""
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library quick start", "exec"), {})
    assert capsys.readouterr().out


def test_import_leaves_the_process_pool_unloaded(tmp_path):
    # The shipped sweep runs its points in one process: no process pool, with
    # multiprocessing and socket, is imported, whatever the CPU count.
    src = Path(collisim.__file__).resolve().parents[1]
    args = ["sweep", str(CONFIG_DIR / "sweep_detuning.cfg"), "--output-dir", str(tmp_path)]
    code = ("import contextlib, io, sys; from collisim import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()): code = cli.main({args!r})\n"
            "print(code, 'concurrent.futures.process' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout.strip() == "0 False"


def test_config_path_leaves_numpy_unloaded(tmp_path):
    # Loading, validating, --help and config errors import no numpy; a run does.
    src = Path(collisim.__file__).resolve().parents[1]
    (tmp_path / "bad.cfg").write_text("scenario = verify-elimination\n")
    (tmp_path / "ok.cfg").write_text(VERIFY)
    code = """if True:
        import contextlib, io, sys
        import collisim
        from collisim import cli
        from pathlib import Path
        configs = Path(sys.argv[1])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for path in sorted(configs.glob("*.cfg")):
                collisim.load_config(path)
                assert cli.main(["validate", str(path)]) == 0
            assert cli.main(["--help"]) == 0
            assert cli.main(["run", "bad.cfg"]) == 2
            assert cli.main(["run", str(configs / "sweep_detuning.cfg")]) == 2
            print("numpy" in sys.modules, file=sys.__stdout__)
            assert cli.main(["run", "ok.cfg", "--output-dir", "out"]) == 0
        print("numpy" in sys.modules)
    """
    result = subprocess.run([sys.executable, "-c", code, str(CONFIG_DIR)], capture_output=True,
                            text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


class TestLazyNamespace:
    def test_names_resolve_to_their_home_module_objects(self):
        for name in collisim.__all__:
            home = importlib.import_module(f"collisim.{collisim._EXPORTS[name]}")
            value = getattr(collisim, name)
            assert value is getattr(home, name), name
            if callable(value):
                assert value.__module__ == home.__name__, name

    def test_dir_and_star_import_cover_all(self):
        # in a fresh interpreter, before any name is loaded: dir() loads none
        src = Path(collisim.__file__).resolve().parents[1]
        code = ("import sys, collisim; print(sorted(set(collisim.__all__) - set(dir(collisim))), "
                "'numpy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert result.stdout.split() == ["[]", "False"]
        namespace = {}
        exec("from collisim import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(collisim.__all__)

    def test_submodules_import_by_name(self):
        namespace = {}
        exec("from collisim import cli, operators", namespace)
        assert namespace["cli"] is sys.modules["collisim.cli"]
        assert namespace["operators"] is sys.modules["collisim.operators"]

    def test_submodules_resolve_as_attributes_after_a_bare_import(self):
        # in a fresh interpreter: `collisim.config` loads no numpy, every other module does
        src = Path(collisim.__file__).resolve().parents[1]
        code = """if True:
            import sys, collisim
            modules = sorted(set(collisim._EXPORTS.values()))
            assert set(modules) <= set(dir(collisim))
            print(collisim.config.MAX_GRID, "numpy" in sys.modules)
            assert collisim.operators.MIN_EIGENVALUE == collisim.errors.MIN_EIGENVALUE
            assert all(getattr(collisim, m) is sys.modules[f"collisim.{m}"] for m in modules)
        """
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [str(config.MAX_GRID), "False"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'run_scenarios'"):
            collisim.run_scenarios
        with pytest.raises(ImportError):
            exec("from collisim import run_scenarios", {})


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(tmp_path, demo):
    """Each demo script runs against the current API, from any directory, and
    prints what its pinned digest says."""
    assert len(DEMOS) == 4
    src = Path(collisim.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            cwd=tmp_path, timeout=120,
                            env={**os.environ, "PYTHONPATH": str(src), "MPLBACKEND": "Agg"})
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    # the line a demo prints after saving its figure depends on whether matplotlib is installed
    stdout = re.sub(r"\n\nwrote [^\n]*", "", result.stdout)
    pinned = dict(line.split()[::-1] for line in DEMO_TABLE.read_text().splitlines())
    assert hashlib.sha256(stdout.encode()).hexdigest() == pinned[demo.stem], result.stdout


def test_repin_report_names_each_changed_column(tmp_path):
    """`repin_report` on two tiny run directories: one file of each kind changed, one
    identical, one on a side only and one whose cells no longer line up."""
    files = {
        "run/orig.csv": ("step,t,p0,source\n0,0,1,orig\n1,0.5,0.25,orig\n2,1,0.5,orig\n",
                         "step,t,p0,source\n0,0,1,orig\n1,0.5,0.2500001,orig\n2,1,0.5,orig\n"),
        "run/report.kv": ("passed = true\nmax_dev = 0.5\nn = 3\n",
                          "passed = false\nmax_dev = 0.25\nn = 3\n"),
        "run/report.txt": ("  max_dev  0.5\n\n    1  0.1\n    2  0.2\n",
                           "  max_dev  0.5\n\n    1  0\n    2  0.3\n"),
        "run/same.kv": ("n = 1\n", "n = 1\n"),
        "run/short.csv": ("a,b\n1,2\n", "a,b\n1,2\n3,4\n"),
        "parent_only.kv": ("n = 1\n", None),
    }
    for side, i in (("parent", 0), ("change", 1)):
        for name, texts in files.items():
            if texts[i] is not None:
                (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / side / name).write_text(texts[i])
    rows = compare(tmp_path / "parent", tmp_path / "change")
    assert [(name, column, changed, total) for name, column, _, _, changed, total in rows] == [
        ("parent_only.kv", f"only in {tmp_path / 'parent'}", 0, 0),
        ("run/orig.csv", "step", 0, 3), ("run/orig.csv", "t", 0, 3),
        ("run/orig.csv", "p0", 1, 3), ("run/orig.csv", "source", 0, 3),
        ("run/report.kv", "passed", 1, 1), ("run/report.kv", "max_dev", 1, 1),
        ("run/report.kv", "n", 0, 1),
        ("run/report.txt", "text", 0, 4), ("run/report.txt", "max_dev #1", 0, 1),
        ("run/report.txt", "#1", 0, 2), ("run/report.txt", "#2", 2, 2),
        ("run/short.csv", "cells differ: 2 against 4", 0, 0),
    ]
    deviations = {(name, column): (dev, rel) for name, column, dev, rel, _, _ in rows}
    assert deviations[("run/orig.csv", "p0")] == pytest.approx((1e-7, 4e-7), rel=1e-6)
    assert deviations[("run/report.kv", "max_dev")] == (0.25, 0.5)
    # the rows "1  0.1" and "2  0.2" of an unlabelled table: 0.1 -> 0 is the largest relative change
    assert deviations[("run/report.txt", "#2")] == pytest.approx((0.1, 1.0))
    assert all(math.isnan(x) for x in deviations[("run/report.kv", "passed")])
    table = format_rows(rows).splitlines()
    assert len(table) == 1 + 6  # the header, then the rows with a change or a note
    assert table[3].split() == ["run/report.kv", "passed", "-", "-", "1", "of", "1"]


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
                                 "model.derive_rates", "lindblad.generator_effective_qubit",
                                 # `steady_residual` applies the generator's superoperator
                                 "lindblad.generator_superoperator"}),
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


def test_benchmark_scaling_rows_call_the_library(monkeypatch):
    """The benchmark's direct library calls match the current signatures.

    `bench/run.py::scaling_rows` calls `density_operator(matrix, space)`,
    `run_collisions` and `integrate` outside the names `bench/spans.py`
    wraps, so a change to them would otherwise only show as a failed
    traced benchmark run.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the module sets them
    monkeypatch.syspath_prepend(str(BENCH_RUN.parent))
    run = load_bench_module(BENCH_RUN)
    monkeypatch.setattr(run, "SCALING_STEPS", (1000,))
    rows = run.scaling_rows(1)
    assert set(rows) == {"collision.run_collisions.ns_per_collision.n1e3",
                         "lindblad.integrate.ns_per_step.n1e3"}
    assert all(np.isfinite(v) and v > 0 for v in rows.values())


# ROADMAP aim 2 tracks the size of src/collisim: 2045 lines at the last re-anchor,
# plus the 100 lines ROADMAP item 1 budgets for the run diagnostics, less the 11
# lines the removal of the g key took out and the 8 the removal of
# Trajectory.steps took out.
SRC_LINE_CEILING = 2126


def test_source_stays_within_its_line_ceiling():
    src = Path(collisim.__file__).resolve().parent
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))}
    assert sum(lines.values()) <= SRC_LINE_CEILING, lines
