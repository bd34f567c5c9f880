"""Simulation and verification engine for exactly scale-invariant
log-infinitely divisible cascade measures.

Importing the package loads none of its modules (and no numpy): each
public name loads the module that defines it on first use (PEP 562), so
`from idcascade import diagnose` runs levy alone and no sampler.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "levy": (
        "AtomicJumps", "DiagnosticsReport", "MomentDomainError",
        "NoiseModel", "TabulatedJumps", "ZeroJumps", "build_model",
        "diagnose", "levy_exponent", "lognormal_model", "single_atom_model",
        "structure_function",
    ),
    "field": ("FieldSample", "GridSpec", "truncated_model"),
    "cascade": (
        "BatchSimulator", "Realization", "build_realization",
        "decompose_star", "juxtaposed_total_masses", "read_binary_masses",
        "realization_to_binary", "realization_to_csv",
        "scaled_mass_samples", "simulate_prefix_masses",
        "simulate_total_masses",
    ),
    "moments": (
        "covariance_report", "estimate_moment", "exact_joint_moment",
        "growth_ratio_probe", "hill_tail_report", "implicit_renewal_constant",
        "juxtaposed_covariance_series", "ks_two_sample",
        "moment_pair_exponent", "scaling_exponent", "scaling_fit",
        "selberg_moment",
    ),
    "config": (
        "ConfigError", "RunConfig", "config_hash", "load_config",
        "parse_config", "serialize_config",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
# the modules bound as idcascade.<module> (idcascade.config.KEYS, say)
_MODULES = ("levy", "field", "cascade", "moments", "config", "checks",
            "cones")
__all__ = [*_HOME, *_MODULES]


def __getattr__(name):
    """Load the module defining the public name, bind the name here and
    return it; later lookups find it without this call.  A module name
    returns its module, which the import binds here."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
