"""Phase-space toolkit for a spin-1/2 particle on a one-dimensional lattice.

Builds the matrix-valued Wigner function of lattice-plus-spin states, its
closed-form reference cases, continuous-time dynamics (tight-binding
Hamiltonians, Bessel-kernel propagators, Lindblad decoherence), the
discrete-time quantum walk, and the trace-norm negativity.  Every closed-form
path is cross-checked against a brute-force density-operator route.

The public names below are resolved on first use (PEP 562): ``import
lattice_wigner`` loads neither numpy nor any layer, and ``lattice_wigner.X``
is always the defining module's current ``X``, nothing being cached here.
"""

from importlib import import_module

__version__ = "0.1.0"

# Defining module -> the public names the package exports from it.
_EXPORTS = {
    "errors": (
        "BoundaryLeakError", "ConfigError", "ConvergenceError", "DomainError", "GridError",
        "InvariantViolation", "LatticeWignerError", "StateError", "StepCountError",
        "StepSizeError", "WindowError",
    ),
    "grids": ("KGrid", "k_derivative"),
    "special": ("bessel_jn", "bessel_jn_sequence", "theta3"),
    "states": (
        "DensityOperator", "LatticeDensity", "LatticeWindow", "PureState", "apply_spin_rotation",
        "density_from_pure", "lattice_density_from_amplitudes", "spin_trace",
    ),
    "wigner": (
        "ScalarWigner", "WignerMatrix", "apply_spin_rotation_wigner", "hermiticity_defect",
        "marginal_momentum", "marginal_position", "normalization_total", "phase_shift_defect",
        "reconstruct_density", "scalar_wigner_of_lattice", "spin_trace_wigner", "trace_product",
        "wigner_of_density", "wigner_of_operator", "wigner_of_pure",
    ),
    "analytic": (
        "CatSpec", "DoubleDeltaSpec", "TwoGaussianSpec", "WernerSpec", "cat_state",
        "double_delta_state", "double_delta_wigner_closed", "gaussian_lattice_state",
        "gaussian_product_state", "gaussian_scalar_wigner", "product_density", "product_wigner",
        "spinless_double_delta_wigner", "two_gaussian_state", "two_gaussian_wigner_closed",
        "werner_density", "werner_wigner",
    ),
    "continuous": (
        "EvolutionResult", "HamiltonianSpec", "NoiseSpec", "Potential", "decohere_wigner",
        "lindblad_rk4", "lindblad_wigner_closed", "linear_potential_propagate",
        "spin_linear_propagate", "von_neumann_exact", "wigner_evolution_rhs",
    ),
    "walk": (
        "CoinSpec", "ProjectiveNoiseSpec", "coin_operator", "iterated_cat_wigner", "projective_map",
        "qw_step_state", "qw_step_wigner", "walk_trajectory",
    ),
    "negativity": ("NegativityReport", "matrix_negativity", "scalar_negativity"),
    "scenario": ("ScenarioConfig", "build_state", "parse_config", "run", "validate_config"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
