"""Fuzz reach: how many cases of the two exit-code fuzz gates reach a run.

`test_fuzzed_configs_end_in_an_exit_code` and
`test_code_built_configs_end_in_an_exit_code` draw their cases from the fixed
seed `FUZZ_SEED`, and most of them stop at validation.  Each gate asserts a
floor on the cases that reach a run.  This helper runs the cases of both gates
once and prints for each gate how many cases it executed, how many of them
reached a run, split into single runs and sweeps, and the gate's wall time:

    PYTHONPATH=src python tests/fuzz_reach.py

A change to the fuzz alphabets or to validation shows its effect on the
gates' reach as the difference of this output before and after it; the
floors are set from it.
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

GATES = (("test_fuzzed_configs_end_in_an_exit_code",
          test_harness.fuzzed_config_ends_in_an_exit_code, "main"),
         ("test_code_built_configs_end_in_an_exit_code",
          test_harness.code_built_config_ends_in_an_exit_code, "ScenarioConfig"))


def reach(cases, entry: str) -> tuple[Counter, float]:
    """Counts of the cases ``cases`` executed (``cases``) and of those that
    reached a run (``run``) or a sweep (``sweep``), and their wall time in
    seconds.  A case is counted where it calls the test module's ``entry``
    name: the text gate's one ``main(["validate", ...])`` and the code gate's
    one ``ScenarioConfig(...)``."""
    counts = Counter()
    call = getattr(test_harness, entry)

    def counting(*args, **kwargs):
        counts["cases"] += entry != "main" or args[0][0] == "validate"
        return call(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(test_harness, entry, counting)
        # as pytest runs the gates: see pyproject.toml and the gates' marks
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "delta = .* is below the far-off-resonant threshold")
        reached = []
        start = time.perf_counter()
        cases(reached)
        counts.update(reached)
        return counts, time.perf_counter() - start


def main() -> None:
    for name, cases, entry in GATES:
        counts, elapsed = reach(cases, entry)
        print(f"{name}: {counts['run'] + counts['sweep']} of {counts['cases']} cases reach a run "
              f"({counts['run']} runs, {counts['sweep']} sweeps) in {elapsed:.2f} s")


if __name__ == "__main__":
    main()
