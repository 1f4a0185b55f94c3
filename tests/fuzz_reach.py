"""Fuzz reach: how many derandomized cases of the two exit-code fuzz gates reach a run.

`test_fuzzed_configs_end_in_an_exit_code` and
`test_code_built_configs_end_in_an_exit_code` draw the same cases on every
run, and most of them stop at validation.  This helper runs both gates once
with the run entry points wrapped, and prints for each gate how many cases
it executed, how many of them reached a run, split into single runs and
sweeps, and the gate's wall time:

    PYTHONPATH=src python tests/fuzz_reach.py

A change to the fuzz alphabets or to validation shows its effect on the
gates' reach as the difference of this output before and after it.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_harness  # noqa: E402

from collisim import cli  # noqa: E402

GATES = ("test_fuzzed_configs_end_in_an_exit_code", "test_code_built_configs_end_in_an_exit_code")


def reach(gate) -> tuple[Counter, float]:
    """Counts of the cases ``gate`` executed (``cases``) and of those that called
    a run (``runs``) or a sweep (``sweeps``), and the gate's wall time in seconds.

    The gate itself stays as it is: with ``derandomize=True`` Hypothesis seeds
    its draws from the test function's source, so a wrapped test would draw
    other cases.  A case is counted where it calls the test module's names
    instead: the text gate's one ``main(["validate", ...])`` and the code
    gate's one ``ScenarioConfig(...)``."""
    counts = Counter()

    def counting(call, kind, counts_call=lambda *args: True):
        def wrapped(*args, **kwargs):
            counts[kind] += counts_call(*args)
            return call(*args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        # the text gate runs through `cli.main`, the code gate calls the test module's names
        for module in (cli, test_harness):
            patch.setattr(module, "run_scenario", counting(module.run_scenario, "runs"))
            patch.setattr(module, "run_sweep", counting(module.run_sweep, "sweeps"))
        patch.setattr(test_harness, "main",
                      counting(test_harness.main, "cases", lambda argv: argv[0] == "validate"))
        patch.setattr(test_harness, "ScenarioConfig", counting(test_harness.ScenarioConfig, "cases"))
        # as pytest runs the gates: see pyproject.toml and the gates' marks
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "delta = .* is below the far-off-resonant threshold")
        start = time.perf_counter()
        gate()
        return counts, time.perf_counter() - start


def main() -> None:
    for name in GATES:
        counts, elapsed = reach(getattr(test_harness, name))
        reached = counts["runs"] + counts["sweeps"]
        print(f"{name}: {reached} of {counts['cases']} cases reach a run "
              f"({counts['runs']} runs, {counts['sweeps']} sweeps) in {elapsed:.2f} s")


if __name__ == "__main__":
    main()
