"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
from spans import Span, Tracer, instrument, self_times, targets  # noqa: E402
from workloads import small_batch  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout  # failed_frac == 0
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert abs(result["metrics"]["trace.accounted_pct"]["value"] - 100.0) <= 5.0
        header = (BENCH / "results" / f"{workload}-spans.csv").read_text().split("\n", 1)[0]
        assert header == "id,name,start,end,parent,repeat"


def test_manifest_matches_benchmark_json():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--manifest"],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == MANIFEST


def test_oracle_flags_perturbed_output(tmp_path):
    from collisim.cli import main

    run = small_batch(seed=3).runs[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(run.config_text())
    good = tmp_path / "good"
    with redirect_stdout(io.StringIO()):
        assert main(["run", str(cfg), "--output-dir", str(good)]) == run.expected_exit
    assert oracle.check_run(run, good) == []

    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    csv = bad / "orig.csv"
    *head, last = csv.read_text().strip().split("\n")
    fields = last.split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)  # p1 at the final step
    csv.write_text("\n".join(head + [",".join(fields)]) + "\n")
    problems = oracle.check_run(run, bad)
    assert problems and all("orig.csv" in p for p in problems)


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("a.child", 2.0, 3.0, 1, 1),
        Span("b", 5.0, 9.0, 0, 1),
        Span("b.x", 5.5, 7.0, 3, 1),
        Span("b.y", 6.0, 8.0, 3, 1),  # overlaps b.x: the union counts once
        Span("b.z", 8.5, 9.5, 3, 1),  # ends after b: clipped to b
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.5, 2.0, 1.0])


def test_instrument_restores_every_attribute():
    before = [getattr(owner, attr) for owner, attr, _, _ in targets()]
    with instrument(Tracer()):
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr, _, _), orig in zip(targets(), before))
    assert [getattr(owner, attr) for owner, attr, _, _ in targets()] == before
