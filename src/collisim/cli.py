"""Command-line entry point.

``collisim run <config>`` executes one scenario, ``collisim sweep
<config>`` a parameter sweep, and ``collisim validate <config>`` checks a
config without computing anything.  Exit codes: 0 all tolerance checks
passed, 1 a tolerance check failed, 2 usage or configuration error,
3 numerical failure or out of memory mid-run.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import load_config
from .errors import ConfigError, NumericError
from .scenarios import run_scenario, run_sweep

EXIT_PASS = 0
EXIT_TOLERANCE_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collisim",
        description="Off-resonant collision-model simulation scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute a single scenario config"),
        ("validate", "check a config file without running it"),
        ("sweep", "execute a sweep config, one run per sweep value"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a key-value config file")
        if name != "validate":
            cmd.add_argument("--output-dir", default=None,
                             help="override the config's output_path")
    return parser


def _print_summary(report) -> None:
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.value:.6g} {check.comparison} {check.threshold:.6g}")
    print(f"{report.scenario}: {'PASS' if report.passed else 'FAIL'}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            print(f"OK: {args.config} ({cfg.scenario})")
            return EXIT_PASS
        if args.command == "run":
            if cfg.scenario == "sweep":
                raise ConfigError("scenario = sweep: use 'collisim sweep'")
            report = run_scenario(cfg, args.output_dir)
        else:
            if cfg.scenario != "sweep":
                raise ConfigError(f"scenario = {cfg.scenario}: use 'collisim run'")
            report = run_sweep(cfg, args.output_dir)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, OverflowError, MemoryError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    _print_summary(report)
    return EXIT_PASS if report.passed else EXIT_TOLERANCE_FAIL


if __name__ == "__main__":
    sys.exit(main())
