"""Scenario configuration: flat key-value text files, strictly validated.

The format is one ``key = value`` pair per line, ``#`` comments, blank
lines ignored.  Only documented keys are accepted and every scenario
declares which keys it requires; unknown keys are rejected outright
because a silently ignored typo in a physics parameter is the most
likely way to produce a plausible-looking wrong answer.
"""

from __future__ import annotations

import math
import sys
import typing
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real
from pathlib import Path

from .errors import TRACE_TOL, ConfigError

_BASE_KEYS = {"scenario", "output_path"}
_COLLISION_KEYS = {
    "delta", "x1", "x2", "tau", "alpha_tau", "n_steps", "propagator",
    "initial_populations", "snapshot_stride",
}

# scenario -> (required keys, optional keys)
SCENARIO_KEYS: dict[str, tuple[set[str], set[str]]] = {
    "verify-elimination": ({"delta"}, _BASE_KEYS | {"n_grid", "alpha_t_max"}),
    "collision-vs-me": ({"delta", "x1", "x2"}, _BASE_KEYS | _COLLISION_KEYS),
    "negative-temperature": ({"delta", "x1", "x2"}, _BASE_KEYS | _COLLISION_KEYS),
    "beyond-far-off": ({"delta", "x1", "x2"}, _BASE_KEYS | _COLLISION_KEYS),
    "sweep": (
        {"sweep_scenario", "sweep_param", "sweep_values"},
        _BASE_KEYS | _COLLISION_KEYS | {"n_grid", "alpha_t_max", "workers"},
    ),
}
SCENARIO_NAMES = tuple(SCENARIO_KEYS)

SWEEPABLE_KEYS = {"delta", "x1", "x2", "tau", "alpha_tau", "n_steps"}

# The largest n_grid whose (n_grid, 3) float64 population table numpy can size:
# its 24-byte rows must fit in numpy's index type, np.intp (sys.maxsize)
MAX_GRID = sys.maxsize // 24


def compute_alpha(delta: float) -> float:
    """Effective coupling ``(1/2)(1/delta + 1/delta)`` of the two channels, both
    detuned by ``delta``, in units of g.  Raises ValueError at zero detuning,
    where the elimination of the virtual level is invalid.
    """
    if delta == 0:
        raise ValueError("zero detuning: adiabatic elimination is singular")
    return 0.5 * (1.0 / delta + 1.0 / delta)  # one term a channel: inf where 2/delta overflows


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs for one named experiment, valid once built: `validate_config`
    runs on every construction, so an invalid config raises `ConfigError` there."""

    scenario: str
    delta: float | None = None
    x1: float | None = None
    x2: float | None = None
    tau: float | None = None
    alpha_tau: float | None = None
    n_steps: int | None = None
    propagator: str = "spectral"
    initial_populations: tuple[float, float, float] = (1.0, 0.0, 0.0)
    output_path: str | None = None
    n_grid: int = 2000
    alpha_t_max: float = 5.0
    snapshot_stride: int = 10
    sweep_scenario: str | None = None
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] | None = None
    workers: int = 1

    def __post_init__(self):
        validate_config(self)

    def effective_tau(self) -> float:
        """Collision duration as a float, which numpy's time grids take, from ``tau`` or ``alpha_tau``."""
        if self.tau is not None:
            return float(self.tau)
        if self.alpha_tau is None:
            raise ConfigError(f"scenario {self.scenario!r} requires tau or alpha_tau")
        _require(self, {"delta"})
        return float(self.alpha_tau) * self.delta


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_floats(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, s) for s in map(str.strip, raw.split(",")) if s)


# A field's declared type -> its text parser, the class its values are
# instances of in a config built in code, and how an error names that class
_KINDS = {
    float: (_parse_float, Real, "a number"),
    int: (_parse_int, Integral, "an integer"),
    str: (lambda key, raw: raw, str, "a string"),
    tuple: (_parse_floats, tuple, "a tuple of numbers"),
}


def _kind_of(declared) -> tuple[tuple, bool]:
    """The `_KINDS` entry of a field declared as ``kind`` or ``kind | None``,
    and whether it allows None; a ``tuple[...]`` is a tuple, whatever its elements."""
    nullable = type(None) in typing.get_args(declared)
    kind = typing.get_args(declared)[0] if nullable else declared
    return _KINDS[typing.get_origin(kind) or kind], nullable


def _fits(cls, value) -> bool:
    """Whether ``value`` is a ``cls``, holding only numbers if a tuple; a bool is no number."""
    if cls is tuple:
        return isinstance(value, tuple) and all(_fits(Real, v) for v in value)
    return isinstance(value, cls) and not isinstance(value, bool)


# key -> (`_KINDS` entry, whether None is allowed), one per `ScenarioConfig` field
_FIELDS = {key: _kind_of(declared) for key, declared in typing.get_type_hints(ScenarioConfig).items()}
_PARSERS = {key: kind[0] for key, (kind, _) in _FIELDS.items()}
# scenario -> {each field it does not use: that field's default}
_UNUSED = {name: {f.name: f.default for f in fields(ScenarioConfig)
                  if f.name not in required | optional | {"scenario"}}
           for name, (required, optional) in SCENARIO_KEYS.items()}


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse and validate the key-value config format."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    if "scenario" not in raw:
        raise ConfigError("missing required key 'scenario'")
    scenario = raw["scenario"]
    if scenario not in SCENARIO_NAMES:
        raise ConfigError(
            f"scenario: unknown scenario {scenario!r}; choose from {', '.join(SCENARIO_NAMES)}"
        )

    unknown = set(raw) - set(_PARSERS)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}")
    _reject_not_applicable(scenario, raw.keys() & _UNUSED[scenario].keys())
    return ScenarioConfig(**{key: _PARSERS[key](key, value) for key, value in raw.items()})


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def _require(cfg: ScenarioConfig, keys: set[str]):
    missing = sorted(k for k in keys if getattr(cfg, k) is None)
    if missing:
        raise ConfigError(
            f"scenario {cfg.scenario!r} requires key(s): {', '.join(missing)}"
        )


def _reject_not_applicable(scenario: str, keys: set[str]):
    if keys:
        raise ConfigError(
            f"key(s) not applicable to scenario {scenario!r}: {', '.join(sorted(keys))}")


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Scenario-specific completeness and consistency checks, run by each `ScenarioConfig` built."""
    if cfg.scenario not in SCENARIO_NAMES:
        raise ConfigError(f"scenario: unknown scenario {cfg.scenario!r}")
    _require(cfg, SCENARIO_KEYS[cfg.scenario][0])
    for key, ((_, cls, expected), nullable) in _FIELDS.items():
        value = getattr(cfg, key)
        if not (value is None and nullable or _fits(cls, value)):
            raise ConfigError(f"{key}: expected {expected}, got {value!r}")
        values = value if isinstance(value, tuple) else (value,)
        # a number a float field holds, an int too, must be a finite float
        if cls in (Real, tuple) and not all(abs(v) <= sys.float_info.max
                                            for v in values if v is not None):
            raise ConfigError(f"{key}: must be finite, got {value}")
    pops = cfg.initial_populations
    if len(pops) != 3:
        raise ConfigError(
            f"initial_populations: expected three comma-separated populations, got {pops}")
    if any(v < 0 for v in pops):
        raise ConfigError(f"initial_populations: populations must be nonnegative, got {pops}")
    if abs(sum(pops) - 1.0) > TRACE_TOL:
        raise ConfigError(f"initial_populations: populations must sum to 1, got sum {sum(pops)!r}")
    if cfg.sweep_values == ():
        raise ConfigError("sweep_values: expected a comma-separated value list")
    # a field the scenario does not use holds its default, as the parser requires
    _reject_not_applicable(cfg.scenario, {key for key, default in _UNUSED[cfg.scenario].items()
                                          if getattr(cfg, key) != default})

    if cfg.propagator not in ("spectral", "runge_kutta"):
        raise ConfigError(f"propagator: must be 'spectral' or 'runge_kutta', got {cfg.propagator!r}")
    if cfg.n_steps is not None and not 1 <= cfg.n_steps < MAX_GRID:  # n_steps + 1 states
        raise ConfigError(f"n_steps: must be between 1 and {MAX_GRID - 1}, got {cfg.n_steps}")
    if cfg.snapshot_stride < 0:
        raise ConfigError(f"snapshot_stride: must be >= 0, got {cfg.snapshot_stride}")
    if not 2 <= cfg.n_grid <= MAX_GRID:
        raise ConfigError(f"n_grid: must be between 2 and {MAX_GRID}, got {cfg.n_grid}")
    if cfg.alpha_t_max <= 0:
        raise ConfigError(f"alpha_t_max: must be positive, got {cfg.alpha_t_max}")
    if cfg.workers != 1:  # sweep points run in one process
        raise ConfigError(f"workers: must be 1, got {cfg.workers}")
    if cfg.output_path == "":
        raise ConfigError("output_path: must not be empty")

    if cfg.scenario in ("collision-vs-me", "negative-temperature", "beyond-far-off"):
        if cfg.tau is not None and cfg.alpha_tau is not None:
            raise ConfigError("give either tau or alpha_tau, not both")
        if cfg.alpha_tau is not None and cfg.delta == 0:
            raise ConfigError("alpha_tau requires a nonzero delta")
        if not 0 < cfg.effective_tau() < math.inf:  # raises without either; the product may overflow
            raise ConfigError(f"collision duration must be positive and finite, got {cfg.effective_tau()}")
    if cfg.scenario == "collision-vs-me" and cfg.initial_populations[2] != 0:
        raise ConfigError("collision-vs-me requires zero initial top-level population "
                          "(the master equation describes the effective qubit)")
    if cfg.delta == 0 and cfg.scenario in ("verify-elimination", "collision-vs-me",
                                           "negative-temperature"):
        raise ConfigError("delta: zero detuning: adiabatic elimination is singular")
    if cfg.scenario == "verify-elimination":
        if cfg.delta < 0:
            raise ConfigError(f"delta: verify-elimination needs a positive detuning, got {cfg.delta}")
        # the run's np.linspace(0, alpha_t_max / alpha, n_grid) increases strictly at a normal
        # step, for any grid memory holds (under 2^51 points)
        alpha = compute_alpha(cfg.delta)
        step = cfg.alpha_t_max / alpha / (cfg.n_grid - 1)  # alpha = 1/delta > 0 at a finite delta
        if step < sys.float_info.min:
            raise ConfigError(f"alpha_t_max: time step (alpha_t_max / alpha) / (n_grid - 1) = "
                              f"{step!r} with alpha = g^2/delta is below the normal float range")

    if cfg.scenario == "sweep":
        if cfg.sweep_scenario not in SCENARIO_NAMES or cfg.sweep_scenario == "sweep":
            raise ConfigError(
                f"sweep_scenario: must be a non-sweep scenario, got {cfg.sweep_scenario!r}"
            )
        if cfg.sweep_param not in SWEEPABLE_KEYS:
            raise ConfigError(
                f"sweep_param: must be one of {', '.join(sorted(SWEEPABLE_KEYS))}, "
                f"got {cfg.sweep_param!r}"
            )
        base_required, base_optional = SCENARIO_KEYS[cfg.sweep_scenario]
        if cfg.sweep_param not in base_required | base_optional:
            raise ConfigError(
                f"sweep_param {cfg.sweep_param!r} is not a parameter of {cfg.sweep_scenario!r}"
            )
        fractional = [v for v in cfg.sweep_values if v % 1]
        if cfg.sweep_param == "n_steps" and fractional:
            raise ConfigError(f"sweep_values: n_steps must be whole numbers, got {fractional[0]!r}")
        sweep_points(cfg)  # each point validates as built, so keys its scenario does not use hold defaults
    return cfg


def sweep_points(cfg: ScenarioConfig) -> tuple[ScenarioConfig, ...]:
    """The single-run config of each sweep point, in ``sweep_values`` order: the
    sweep's own fields are reset to their defaults, and the rest are kept."""
    return tuple(replace(cfg, scenario=cfg.sweep_scenario, output_path=None, sweep_scenario=None,
                         sweep_param=None, sweep_values=None,
                         **{cfg.sweep_param: int(v) if cfg.sweep_param == "n_steps" else v})
                 for v in cfg.sweep_values)
