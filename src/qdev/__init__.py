"""Deviation bounds and concentration inequalities for continuously
monitored quantum Markov semigroups, with trajectory Monte Carlo
validation."""

__version__ = "0.1.0"

import importlib

from .linalg import (
    FaithfulState,
    density_matrix,
    inner_product,
    spectral_transform,
)
from .lindblad import (
    GeneratorContext,
    Lindbladian,
    check_detailed_balance,
    dirichlet_form,
    lindbladian_from_channel,
    stationary_state,
)
from .deviation import (
    BoundReport,
    MeasurementSetup,
    main_bound,
    mean_vector,
    rate_function,
)
from .trajectories import (
    EmpiricalTail,
    TrajectoryConfig,
    compare_with_bound,
    run_ensemble,
    run_linear_ensemble,
    simulate_path,
)
# The names of inequalities and models resolve on first use (PEP 562), so
# that importing the package, or a verb that needs neither, does not load
# them.
_LAZY = {
    "inequalities": ("FunctionalConstants", "LipschitzContext", "concentration_bound",
                     "lipschitz_norm", "lsi_depolarizing", "spectral_gap",
                     "tensorization_lsi_bounds", "ti_from_lsi", "tilde_observable",
                     "w1_lower_bound"),
    "models": ("ClassicalChain", "CommutingHamiltonian", "appendix_b_fixtures",
               "classical_embedding", "depolarizing", "heat_bath", "maximally_mixed",
               "tensor_product"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value
