"""Off-resonant quantum collision model simulator.

A three-level system repeatedly collides with fresh thermal qubits from
two baths.  The package builds the exact and eliminated-level collision
Hamiltonians, runs the stroboscopic dynamics with spectral or
Runge-Kutta propagators, integrates the matching continuous-time master
equations, and quantifies where the effective descriptions hold.

Public names load lazily: each module is imported when one of its names
is first used, so ``import collisim`` and loading or validating a config
never import numpy; the simulation modules bring it in.  Submodules load
the same way, so ``collisim.operators`` works after ``import collisim``.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "collision": "closed_evolution collision_superoperator default_substeps run_collisions "
                 "second_order_map",
    "config": "ScenarioConfig compute_alpha load_config parse_config_text validate_config",
    "errors": "ConfigError InvariantViolation NumericError",
    "lindblad": "LindbladGenerator generator_effective_qubit generator_qutrit_two_bath integrate "
                "steady_residual",
    "model": "DerivedRates FAR_OFF_THRESHOLD ModelParams QUTRIT_SPACE ancilla_pair basis_index "
             "build_h_eff build_h_prime build_v derive_rates",
    "operators": "density_operator kron thermal_qubit trace_distance transition",
    "scenarios": "ComparisonReport metrics run_scenario run_sweep",
    "trajectory": "Trajectory",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS.values():  # a submodule
        return import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS.values()})
