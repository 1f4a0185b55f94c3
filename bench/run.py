"""collisim benchmark: seeded workloads through the public CLI, in one process.

    python3 bench/run.py --workload long_relax --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each timed repeat runs ``collisim.cli.main`` once per generated config of
the workload, with a fixed reference kernel that never imports ``collisim``
run before, between and after the runs.  Each run is paired with the
kernels beside it, and gated timings are medians of ``run wall / reference
wall`` summed over a repeat.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced repeats and reports per-layer
metrics from spans recorded around the calls into each module.  Every run's
exit code, output hashes and sampled CSV populations (against `oracle`) are
checked.  The last line of standard output is the JSON result;
``bench/results/`` keeps the full record, and the spans of a traced run.
See bench/README.md.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, fixed before numpy loads: the matrices are at most
# 81x81, and a second BLAS thread on a 2-CPU machine only adds noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

SETUP_INTERPRETERS = 11
MIN_REPEATS = 4
REF_RUNS = 6
SCALING_STEPS = (1_000, 10_000, 100_000)
RUN_SECONDS = 30

# End-to-end metric -> bound: the share of the parent's median by which the
# metric may worsen before a change counts as a regression.
END_TO_END = {"run_p50_ref": 0.15, "run_p90_ref": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}
CALL_COUNTS = ("operators.trace_distance", "collision.collision_superoperator",
               "operators.partial_trace_matrix")
WORK_COUNTS = ("collision.collisions", "collision.grid_points", "operators.states_checked",
               "lindblad.me_steps", "scenarios.csv_bytes", "scenarios.report_bytes")

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import collisim
for path in sys.argv[2:]:
    collisim.load_config(path)
print(time.perf_counter() - t0)
"""


class _Sink:
    """Discards the CLI's summary lines, which would otherwise bury the result line."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit(root: Path) -> str:
    """Commit of the measured checkout, read without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unavailable: not a git checkout"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unavailable: unresolved {ref}"


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def setup_once(config_paths: list[Path]) -> float:
    """``import collisim`` plus loading every config, timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, config_paths)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def digests(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class Bench:
    """One workload's runs, their failures and their timing samples."""

    def __init__(self, workload, work: Path):
        from collisim import cli
        from reference import ReferenceKernel

        self.workload = workload
        self.work = work
        self.main = cli.main
        self.reference = ReferenceKernel(work)
        self.config_paths = {}
        (work / "configs").mkdir(parents=True)
        for run in workload.runs:
            path = work / "configs" / f"{run.name}.cfg"
            path.write_text(run.config_text())
            self.config_paths[run.name] = path
        self.executions = 0
        self.repeats_run = 0
        self.failures: dict[tuple[int, str], str] = {}
        self.baseline: dict[str, dict[str, str]] = {}

    def reference_wall(self, runs: int) -> float:
        return statistics.fmean(self.reference.run() for _ in range(runs))

    def run_pass(self, repeat: int, out_dir: Path, main):
        """Every config once, with reference kernels before, between and after the runs.

        Returns each run's wall time, its CPU time, and the reference wall
        paired with it: the mean of the kernel blocks right before and right
        after the run.
        """
        sink = _Sink()
        walls, cpus, outcomes = [], [], []
        refs = [self.reference_wall(REF_RUNS)]
        for i, run in enumerate(self.workload.runs):
            argv = [run.command, str(self.config_paths[run.name]), "--output-dir",
                    str(out_dir / run.name)]
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    outcome = main(argv)
            except Exception as exc:  # a run that raises is a failed run, not a benchmark crash
                outcome = exc
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - cpu0)
            outcomes.append(outcome)
            refs.append(self.reference_wall(REF_RUNS if i == len(self.workload.runs) - 1 else 1))
        for run, outcome in zip(self.workload.runs, outcomes):
            self.check(repeat, run, outcome, out_dir / run.name)
        return walls, cpus, [0.5 * (a + b) for a, b in zip(refs, refs[1:])]

    def check(self, repeat: int, run, outcome, out_dir: Path) -> None:
        self.executions += 1
        key = (repeat, run.name)
        if isinstance(outcome, Exception):
            self.failures[key] = f"raised {outcome!r}"
            return
        if outcome != run.expected_exit:
            self.failures[key] = f"exit {outcome}, expected {run.expected_exit}"
            return
        found = digests(out_dir)
        expected = self.baseline.setdefault(run.name, found)
        if found != expected:
            changed = sorted(k for k in found.keys() | expected.keys()
                             if found.get(k) != expected.get(k))
            self.failures[key] = f"outputs differ from the first repeat: {', '.join(changed)}"

    def check_oracle(self, warm_dir: Path) -> None:
        """Oracle on the warm-up outputs; every repeat with the same hashes shares the verdict."""
        import oracle

        for run in self.workload.runs:
            problems = oracle.check_run(run, warm_dir / run.name)
            if not problems:
                continue
            for repeat in range(self.repeats_run + 1):
                self.failures.setdefault((repeat, run.name), "oracle: " + "; ".join(problems[:3]))

    def measure(self, seconds: float, min_repeats: int, tracer=None, setups: int = 0):
        """Warm-up pass, then timed passes until ``seconds`` have elapsed.

        With a tracer, odd repeats run untraced and even repeats traced.
        ``setups`` set-up interpreters run between repeats, outside the
        timed region and spread evenly over ``seconds``, so that they
        sample the same stretch of time as the repeats.  Returns the timing
        samples; the warm-up outputs stay in ``work/warmup`` for the oracle.
        """
        from spans import instrument

        config_paths = list(self.config_paths.values())
        self.run_pass(0, self.work / "warmup", self.main)
        traced_main = tracer.wrap("cli.main", self.main) if tracer else None
        samples = {"ratio": [], "run_ratio": [], "wall": [], "ref": [], "cpu": [],
                   "traced_ratio": [], "traced": [], "setup": []}
        repeat = 0
        start = time.perf_counter()
        deadline = start + seconds
        while repeat < min_repeats or time.perf_counter() < deadline:
            repeat += 1
            traced = tracer is not None and repeat % 2 == 0
            gc.collect()
            out_dir = Path(tempfile.mkdtemp(prefix=f"repeat{repeat}-", dir=self.work))
            try:
                if traced:
                    tracer.begin_repeat(repeat)
                    first_span = len(tracer.spans)
                    with instrument(tracer):
                        walls, cpus, refs = self.run_pass(repeat, out_dir, traced_main)
                else:
                    walls, cpus, refs = self.run_pass(repeat, out_dir, self.main)
            finally:
                shutil.rmtree(out_dir)
            due = start + len(samples["setup"]) * seconds / max(setups, 1)
            if len(samples["setup"]) < setups and time.perf_counter() >= due:
                samples["setup"].append(setup_once(config_paths))
            run_ratios = [w / r for w, r in zip(walls, refs)]
            if traced:
                samples["traced_ratio"].append(sum(run_ratios))
                samples["traced"].append((sum(walls), first_span, dict(tracer.counts)))
                continue
            samples["ratio"].append(sum(run_ratios))
            samples["run_ratio"] += run_ratios
            samples["wall"].append(sum(walls))
            samples["ref"].append(statistics.fmean(refs))
            samples["cpu"].append(sum(cpus))
        self.repeats_run = repeat
        while len(samples["setup"]) < setups:
            samples["setup"].append(setup_once(config_paths))
        return samples


def end_to_end(samples: dict, peak_rss_mb: float) -> dict:
    return {
        "run_p50_ref": statistics.median(samples["ratio"]),
        "run_p90_ref": quantile(samples["run_ratio"], 90),
        "setup_s": statistics.median(samples["setup"]),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(samples: dict, tracer, scaling: dict) -> dict:
    from spans import LAYER_GROUPS, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    group_of = {name: group for group, names in LAYER_GROUPS.items() for name in names}
    rows = []
    for i, (wall, first, counts) in enumerate(samples["traced"]):
        last = samples["traced"][i + 1][1] if i + 1 < len(samples["traced"]) else len(spans)
        row = {f"{g}.self_ms": 0.0 for g in LAYER_GROUPS}
        row.update({f"{name}.calls": 0 for name in CALL_COUNTS})
        roots = 0.0
        for j in range(first, last):
            s = spans[j]
            row[f"{group_of[s.name]}.self_ms"] += selfs[j] * 1e3
            if s.name in CALL_COUNTS:
                row[f"{s.name}.calls"] += 1
            if s.parent < 0:
                roots += s.end - s.start
        row.update({key: counts.get(key, 0.0) for key in WORK_COUNTS})
        integrated = counts.get("lindblad.rows_integrated", 0.0)
        row["lindblad.kept_ratio"] = counts.get("lindblad.rows_kept", 0.0) / integrated if integrated else 0.0
        collisions = row["collision.collisions"]
        row["collision.run_collisions.ns_per_collision"] = (
            row["collision.run_collisions.self_ms"] * 1e6 / collisions if collisions else 0.0)
        row["trace.residual_ms"] = (wall - roots) * 1e3
        row["trace.wall_ms"] = wall * 1e3
        rows.append(row)

    out = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    accounted = sum(out[f"{g}.self_ms"] for g in LAYER_GROUPS) + out["trace.residual_ms"]
    out["trace.accounted_pct"] = 100.0 * accounted / out["trace.wall_ms"]
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(samples["traced_ratio"]) / statistics.median(samples["ratio"]) - 1.0)
    out.update(scaling)
    return out


def per_layer_names() -> list[str]:
    from spans import LAYER_GROUPS

    return ([f"{g}.self_ms" for g in LAYER_GROUPS] + [f"{c}.calls" for c in CALL_COUNTS]
            + list(WORK_COUNTS)
            + ["lindblad.kept_ratio", "collision.run_collisions.ns_per_collision",
               "trace.residual_ms", "trace.wall_ms", "trace.accounted_pct", "trace.overhead_pct"]
            + [f"{key}.n1e{len(str(n)) - 1}" for n in SCALING_STEPS
               for key in ("collision.run_collisions.ns_per_collision",
                           "lindblad.integrate.ns_per_step")])


def unit_of(key: str) -> str:
    if key == "setup_s":
        return "s"
    if key == "peak_rss_mb":
        return "MB"
    if key.endswith("_ref"):
        return "ratio"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_pct"):
        return "%"
    if "ns_per_" in key:
        return "ns"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def manifest() -> dict:
    """The BENCHMARK.json this benchmark implements."""
    higher = ("lindblad.kept_ratio", "trace.accounted_pct")
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": make(0).why} for name, make in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit_of(name), "better": "lower", "bound": bound}
                       for name, bound in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit_of(name),
                       "better": "higher" if name in higher else "lower"}
                      for name in per_layer_names()],
    }


def scaling_rows(repeats: int) -> dict:
    """Wall time per collision and per integrator step at fixed sizes, no snapshots."""
    import numpy as np
    from collisim import (QUTRIT_SPACE, ModelParams, density_operator, derive_rates,
                          generator_effective_qubit, integrate, run_collisions)

    rho_s = density_operator(np.diag([1.0, 0.0, 0.0]).astype(complex), QUTRIT_SPACE)
    rho_q = density_operator(np.diag([1.0, 0.0]).astype(complex), (("S", 2),))
    out = {}
    for n in SCALING_STEPS:
        p = ModelParams(delta=200.0, tau=2.0, n_steps=n)
        gen = generator_effective_qubit(derive_rates(p))
        suffix = f"n1e{len(str(n)) - 1}"
        for key, call in (
            (f"collision.run_collisions.ns_per_collision.{suffix}",
             lambda: run_collisions(rho_s, p, "original", snapshot_stride=0)),
            (f"lindblad.integrate.ns_per_step.{suffix}",
             lambda: integrate(gen, rho_q, n * p.tau, p.tau, snapshot_stride=0)),
        ):
            times = []
            for _ in range(repeats if n < SCALING_STEPS[-1] else 1):
                gc.collect()
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            out[key] = statistics.median(times) / n * 1e9
    return out


def run_workload(args) -> dict:
    sys.path.insert(0, str(SRC))
    import collisim
    from spans import Tracer

    if Path(collisim.__file__).resolve().parent != SRC / "collisim":
        raise RuntimeError(f"collisim imported from {collisim.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload](args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        bench = Bench(workload, work)
        started = time.perf_counter()
        tracer = Tracer() if args.trace else None
        if args.trace:
            min_repeats = 2 if args.smoke else MIN_REPEATS
            samples = bench.measure(0 if args.smoke else args.seconds, min_repeats, tracer)
            metrics = per_layer(samples, tracer, scaling_rows(1 if args.smoke else 3))
        else:
            samples = bench.measure(0 if args.smoke else args.seconds,
                                    1 if args.smoke else MIN_REPEATS,
                                    setups=1 if args.smoke else SETUP_INTERPRETERS)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(samples, peak_rss_mb)
        names = per_layer_names() if args.trace else list(END_TO_END)
        metrics = {name: (metrics[name], unit_of(name)) for name in names}
        bench.check_oracle(work / "warmup")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(bench.failures)
    facts = machine_facts()
    facts.update({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": len(samples["ratio"]),
        "traced_repeats": len(samples["traced"]),
        "runs_per_repeat": len(workload.runs),
        "p90_samples": len(samples["run_ratio"]),
        "run_p50_ms": statistics.median(samples["wall"]) * 1e3,
        "ref_p50_ms": statistics.median(samples["ref"]) * 1e3,
        "cpu_s_per_repeat": statistics.median(samples["cpu"]),
        "elapsed_s": time.perf_counter() - started,
        "failed_frac": failed / bench.executions,
    })
    if tracer is not None:
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.write_csv(RESULTS_DIR / f"{workload.name}-spans.csv")
    return {
        "correct": failed == 0,
        "attempted": bench.executions,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "facts": facts,
        "failures": [f"repeat {r} {name}: {why}"
                     for (r, name), why in sorted(bench.failures.items())][:20],
        "samples": {k: samples[k] for k in ("ratio", "wall", "ref", "traced_ratio", "setup")},
    }


def report(result: dict) -> None:
    facts = result["facts"]
    print(f"workload {facts['workload']}  seed {facts['seed']}  trace {facts['trace']}  "
          f"commit {facts['commit'][:12]}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<48s} {facts['failed_frac']:>14.6g} 1 "
          f"({result['failed']} of {result['attempted']} runs)")
    for key in ("repeats", "traced_repeats", "p90_samples", "run_p50_ms", "ref_p50_ms",
                "cpu_s_per_repeat", "elapsed_s"):
        print(f"  fact {key:<43s} {facts[key]:>14.6g}")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def run_all(args) -> int:
    """Each workload in its own interpreter, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed repeats run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="one timed repeat (two when traced) and one set-up interpreter")
    parser.add_argument("--manifest", action="store_true",
                        help="print the BENCHMARK.json this benchmark implements and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    if not (SRC / "collisim" / "__init__.py").is_file():
        print(f"error: no collisim package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
