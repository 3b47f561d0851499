"""Deviation bounds and concentration inequalities for continuously
monitored quantum Markov semigroups, with trajectory Monte Carlo
validation."""

__version__ = "0.1.0"

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
from .inequalities import (
    FunctionalConstants,
    LipschitzContext,
    concentration_bound,
    lipschitz_norm,
    lsi_depolarizing,
    spectral_gap,
    tensorization_lsi_bounds,
    ti_from_lsi,
    tilde_observable,
    w1_lower_bound,
)
from .models import (
    ClassicalChain,
    CommutingHamiltonian,
    appendix_b_fixtures,
    classical_embedding,
    depolarizing,
    heat_bath,
    maximally_mixed,
    tensor_product,
)
