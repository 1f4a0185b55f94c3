"""Off-resonant quantum collision model simulator.

A three-level system repeatedly collides with fresh thermal qubits from
two baths.  The package builds the exact and eliminated-level collision
Hamiltonians, runs the stroboscopic dynamics with spectral or
Runge-Kutta propagators, integrates the matching continuous-time master
equations, and quantifies where the effective descriptions hold.
"""

from .collision import (
    PropagatorChoice,
    closed_evolution,
    collision_superoperator,
    default_substeps,
    run_collisions,
    second_order_map,
)
from .config import ScenarioConfig, load_config, parse_config_text, validate_config
from .errors import ConfigError, InvariantViolation, NumericError
from .lindblad import (
    LindbladGenerator,
    generator_effective_qubit,
    generator_qutrit_two_bath,
    integrate,
    rhs,
    steady_residual,
)
from .model import (
    DerivedRates,
    FAR_OFF_THRESHOLD,
    ModelParams,
    QUTRIT_SPACE,
    ancilla_pair,
    basis_index,
    build_h_eff,
    build_h_prime,
    build_v,
    compute_alpha,
    derive_rates,
)
from .operators import (
    anticommutator,
    commutator,
    density_operator,
    is_hermitian,
    kron,
    thermal_qubit,
    trace_distance,
    transition,
)
from .scenarios import ComparisonReport, metrics, run_scenario, run_sweep
from .trajectory import Trajectory

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConfigError",
    "DerivedRates",
    "FAR_OFF_THRESHOLD",
    "InvariantViolation",
    "LindbladGenerator",
    "ModelParams",
    "NumericError",
    "PropagatorChoice",
    "QUTRIT_SPACE",
    "ScenarioConfig",
    "Trajectory",
    "ancilla_pair",
    "anticommutator",
    "basis_index",
    "build_h_eff",
    "build_h_prime",
    "build_v",
    "closed_evolution",
    "collision_superoperator",
    "commutator",
    "compute_alpha",
    "default_substeps",
    "density_operator",
    "derive_rates",
    "generator_effective_qubit",
    "generator_qutrit_two_bath",
    "integrate",
    "is_hermitian",
    "kron",
    "load_config",
    "metrics",
    "parse_config_text",
    "rhs",
    "run_collisions",
    "run_scenario",
    "run_sweep",
    "second_order_map",
    "steady_residual",
    "thermal_qubit",
    "trace_distance",
    "transition",
    "validate_config",
]
