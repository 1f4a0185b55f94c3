"""Memory report: what each stage of one run holds and peaks at, under `tracemalloc`.

This helper runs one config through `cli.main` (``collisim run``) with the
stages below wrapped where `scenarios` looks them up, and prints for each
call the memory live before it, its peak and the memory live after it, in
MB of traced Python and numpy allocations.  A last row gives the same for
the whole run, and a last line the process's peak resident set
(``ru_maxrss``), which also counts the interpreter, the imported modules
and the tracing itself:

    PYTHONPATH=src python tests/mem_report.py configs/collision_vs_me_short.cfg

The run's files go to a temporary directory unless ``--output-dir`` is
given.  A change to the output stage shows its effect on memory as the
difference of this output before and after it; the benchmark measures only
the peak resident set.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import resource
import sys
import tempfile
import tracemalloc

import pytest

from collisim import cli, scenarios

# the stages, as `scenarios` names them; a stage called inside another is part of it
STAGES = ("run_collisions", "closed_evolution", "integrate", "metrics",
          "_snapshot_trace_distances", "_trace_distance_table",
          "write_trajectory_csv", "write_report_files")
MB = 1e6


def traced(rows: list, peaks: list, depth: list, name: str, call):
    """``call``, appending ``(label, live before, peak, live after)`` to ``rows``
    when it is not called from inside another stage.  The peak since the last
    stage goes to ``peaks``, since each stage resets it."""
    @functools.wraps(call)
    def wrapped(*args, **kwargs):
        if depth[0]:
            return call(*args, **kwargs)
        label = f"{name}({args[0].name})" if name == "write_trajectory_csv" else name
        before, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        tracemalloc.reset_peak()
        depth[0] += 1
        try:
            return call(*args, **kwargs)
        finally:
            depth[0] -= 1
            after, peak = tracemalloc.get_traced_memory()
            rows.append((label, before, peak, after))
            peaks.append(peak)
            tracemalloc.reset_peak()
    return wrapped


def report(config: str, output_dir: str) -> tuple[int, list]:
    """Run ``config`` into ``output_dir`` with the stages traced: the exit code and
    one row per stage call, then one for the whole run."""
    rows, peaks, depth = [], [], [0]
    with pytest.MonkeyPatch.context() as patch, contextlib.ExitStack() as stack:
        for name in STAGES:
            patch.setattr(scenarios, name, traced(rows, peaks, depth, name, getattr(scenarios, name)))
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            stack.callback(tracemalloc.stop)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        code = cli.main(["run", config, "--output-dir", output_dir])
        after, peak = tracemalloc.get_traced_memory()
    return code, rows + [("whole run", before, max(peaks + [peak]), after)]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="a single-run config file")
    parser.add_argument("--output-dir", default=None,
                        help="where the run writes its files (default: a temporary directory)")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        out = args.output_dir or stack.enter_context(tempfile.TemporaryDirectory())
        code, rows = report(args.config, out)
    width = max(len(row[0]) for row in rows)
    print(f"{'stage':<{width}}  {'before MB':>9}  {'peak MB':>9}  {'after MB':>9}")
    for label, before, peak, after in rows:
        print(f"{label:<{width}}  {before / MB:9.2f}  {peak / MB:9.2f}  {after / MB:9.2f}")
    print(f"exit code {code}; ru_maxrss "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")


if __name__ == "__main__":
    sys.exit(main())
