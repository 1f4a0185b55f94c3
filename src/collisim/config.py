"""Scenario configuration: flat key-value text files, strictly validated.

The format is one ``key = value`` pair per line, ``#`` comments, blank
lines ignored.  Only documented keys are accepted and every scenario
declares which keys it requires; unknown keys are rejected outright
because a silently ignored typo in a physics parameter is the most
likely way to produce a plausible-looking wrong answer.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, replace
from numbers import Integral, Real
from pathlib import Path

from .errors import ConfigError
from .operators import TRACE_TOL

_BASE_KEYS = {"scenario", "g", "output_path"}
_COLLISION_KEYS = {
    "delta", "x1", "x2", "tau", "alpha_tau", "n_steps", "omega_a1", "omega_a2",
    "propagator", "substeps", "initial_state", "initial_populations", "snapshot_stride",
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

SWEEPABLE_KEYS = {"delta", "x1", "x2", "tau", "alpha_tau", "n_steps", "g"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated inputs for one named experiment."""

    scenario: str
    g: float = 1.0
    delta: float | None = None
    x1: float | None = None
    x2: float | None = None
    tau: float | None = None
    alpha_tau: float | None = None
    n_steps: int | None = None
    omega_a1: float | None = None
    omega_a2: float | None = None
    propagator: str = "spectral"
    substeps: int | None = None
    initial_state: str = "ground_S"
    initial_populations: tuple[float, float, float] | None = None
    output_path: str | None = None
    n_grid: int = 2000
    alpha_t_max: float = 5.0
    snapshot_stride: int = 10
    sweep_scenario: str | None = None
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] | None = None
    workers: int = 1

    def effective_tau(self) -> float:
        """Collision duration, from ``tau`` directly or from ``alpha_tau``."""
        if self.tau is not None:
            return self.tau
        if self.alpha_tau is None:
            raise ConfigError(f"scenario {self.scenario!r} requires tau or alpha_tau")
        _require(self, {"delta"})
        return self.alpha_tau * self.delta / self.g**2


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
    and whether it allows None."""
    kind = next(t for t in typing.get_args(declared) or (declared,) if t is not type(None))
    return _KINDS[typing.get_origin(kind) or kind], type(None) in typing.get_args(declared)


def _fits(cls, value) -> bool:
    """Whether ``value`` is a ``cls``, holding only numbers if a tuple; a bool is no number."""
    if cls is tuple:
        return isinstance(value, tuple) and all(_fits(Real, v) for v in value)
    return isinstance(value, cls) and not isinstance(value, bool)


# key -> (`_KINDS` entry, whether None is allowed), one per `ScenarioConfig` field
_FIELDS = {key: _kind_of(declared) for key, declared in typing.get_type_hints(ScenarioConfig).items()}
_PARSERS = {key: kind[0] for key, (kind, _) in _FIELDS.items()}


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

    required, optional = SCENARIO_KEYS[scenario]
    allowed = required | optional | {"scenario"}
    unknown = set(raw) - set(_PARSERS)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}")
    disallowed = set(raw) - allowed
    if disallowed:
        raise ConfigError(
            f"key(s) not applicable to scenario {scenario!r}: {', '.join(sorted(disallowed))}"
        )

    cfg = ScenarioConfig(**{key: _PARSERS[key](key, value) for key, value in raw.items()})
    validate_config(cfg)
    return cfg


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


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Scenario-specific completeness and consistency checks."""
    if cfg.scenario not in SCENARIO_NAMES:
        raise ConfigError(f"scenario: unknown scenario {cfg.scenario!r}")
    required, _ = SCENARIO_KEYS[cfg.scenario]
    _require(cfg, required)
    for key, ((_, cls, expected), optional) in _FIELDS.items():
        value = getattr(cfg, key)
        if not (value is None and optional or _fits(cls, value)):
            raise ConfigError(f"{key}: expected {expected}, got {value!r}")
        values = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            raise ConfigError(f"{key}: must be finite, got {value}")
    pops = cfg.initial_populations
    if pops is not None:
        if len(pops) != 3:
            raise ConfigError(
                f"initial_populations: expected three comma-separated populations, got {pops}")
        if any(v < 0 for v in pops):
            raise ConfigError(f"initial_populations: populations must be nonnegative, got {pops}")
        if abs(sum(pops) - 1.0) > TRACE_TOL:
            raise ConfigError(
                f"initial_populations: populations must sum to 1, got sum {sum(pops)!r}")
    if cfg.sweep_values == ():
        raise ConfigError("sweep_values: expected a comma-separated value list")

    if cfg.g <= 0:
        raise ConfigError(f"g: must be positive, got {cfg.g}")
    if cfg.propagator not in ("spectral", "runge_kutta"):
        raise ConfigError(f"propagator: must be 'spectral' or 'runge_kutta', got {cfg.propagator!r}")
    if cfg.substeps is not None and cfg.substeps < 1:
        raise ConfigError(f"substeps: must be >= 1, got {cfg.substeps}")
    if cfg.initial_state not in ("ground_S", "custom"):
        raise ConfigError(f"initial_state: must be 'ground_S' or 'custom', got {cfg.initial_state!r}")
    if cfg.initial_state == "custom" and cfg.initial_populations is None:
        raise ConfigError("initial_state = custom requires initial_populations")
    if cfg.initial_state == "ground_S" and cfg.initial_populations is not None:
        raise ConfigError("initial_populations only applies when initial_state = custom")
    if cfg.n_steps is not None and cfg.n_steps < 1:
        raise ConfigError(f"n_steps: must be >= 1, got {cfg.n_steps}")
    if cfg.snapshot_stride < 0:
        raise ConfigError(f"snapshot_stride: must be >= 0, got {cfg.snapshot_stride}")
    if cfg.n_grid < 2:
        raise ConfigError(f"n_grid: must be >= 2, got {cfg.n_grid}")
    if cfg.alpha_t_max <= 0:
        raise ConfigError(f"alpha_t_max: must be positive, got {cfg.alpha_t_max}")
    if cfg.workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {cfg.workers}")

    if cfg.scenario in ("collision-vs-me", "negative-temperature", "beyond-far-off"):
        if cfg.tau is None and cfg.alpha_tau is None:
            raise ConfigError(f"scenario {cfg.scenario!r} requires tau or alpha_tau")
        if cfg.tau is not None and cfg.alpha_tau is not None:
            raise ConfigError("give either tau or alpha_tau, not both")
        if cfg.alpha_tau is not None and cfg.delta == 0:
            raise ConfigError("alpha_tau requires a nonzero delta")
        if not 0 < cfg.effective_tau() < math.inf:  # alpha_tau * delta may overflow
            raise ConfigError(f"collision duration must be positive and finite, got {cfg.effective_tau()}")
    if (cfg.scenario == "collision-vs-me" and cfg.initial_populations is not None
            and cfg.initial_populations[2] != 0):
        raise ConfigError("collision-vs-me requires zero initial top-level population "
                          "(the master equation describes the effective qubit)")
    if cfg.delta == 0 and cfg.scenario in ("verify-elimination", "collision-vs-me",
                                           "negative-temperature"):
        raise ConfigError("delta: zero detuning: adiabatic elimination is singular")
    if cfg.omega_a1 is not None and cfg.omega_a1 == cfg.omega_a2:
        raise ConfigError("omega_a1 = omega_a2: effective inverse temperature undefined")

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
        # every sweep point must itself validate
        for value in cfg.sweep_values:
            if cfg.sweep_param == "n_steps" and not float(value).is_integer():
                raise ConfigError(f"sweep_values: n_steps must be whole numbers, got {value!r}")
            point_cfg = sweep_point_config(cfg, value)
            validate_config(point_cfg)
    return cfg


def sweep_point_config(cfg: ScenarioConfig, value: float) -> ScenarioConfig:
    """The single-run config for one sweep point."""
    overrides = {
        "scenario": cfg.sweep_scenario,
        "sweep_scenario": None,
        "sweep_param": None,
        "sweep_values": None,
        "output_path": None,
        cfg.sweep_param: int(value) if cfg.sweep_param == "n_steps" else value,
    }
    return replace(cfg, **overrides)
