"""Simulation and verification engine for exactly scale-invariant
log-infinitely divisible cascade measures."""

__version__ = "0.1.0"

from .levy import (  # noqa: F401
    AtomicJumps,
    DiagnosticsReport,
    MomentDomainError,
    NoiseModel,
    TabulatedJumps,
    ZeroJumps,
    build_model,
    diagnose,
    levy_exponent,
    lognormal_model,
    single_atom_model,
    structure_function,
)
from .field import (  # noqa: F401
    FieldSample,
    GridSpec,
    truncated_model,
)
from .cascade import (  # noqa: F401
    BatchSimulator,
    Realization,
    build_realization,
    decompose_star,
    juxtaposed_total_masses,
    read_binary_masses,
    realization_to_binary,
    realization_to_csv,
    refine,
    scaled_mass_samples,
    simulate_prefix_masses,
    simulate_total_masses,
)
from .moments import (  # noqa: F401
    covariance_report,
    estimate_moment,
    exact_joint_moment,
    growth_ratio_probe,
    hill_tail_report,
    implicit_renewal_constant,
    juxtaposed_covariance_series,
    ks_two_sample,
    moment_pair_exponent,
    scaling_exponent,
    scaling_fit,
    selberg_moment,
)
from .config import (  # noqa: F401
    ConfigError,
    RunConfig,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
