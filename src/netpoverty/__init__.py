"""Multidimensional poverty measurement with interdimensional dependence.

Deprivation gaps are coupled through a validated dependence structure,
poverty is identified with the dual-cutoff rule on the resulting counts,
and the aggregate FGT-family measure divides by the structure's count
ceiling so it cannot be inflated by declaring extra connections.  The
axioms module re-verifies the framework's properties on randomized
instances.

The package is a lazy namespace: ``import netpoverty`` loads no
submodule (and so no numpy).  ``_EXPORTS`` maps each public name to the
submodule that defines it; the first access of a name, or of a
submodule's own name, imports that submodule and stores the value here,
so every later lookup is a plain attribute.
"""

import sys as _sys

__version__ = "0.1.0"

#: each public name and the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "aggregation": "DecompositionResult FgtResult decompose_by_group fgt_naive "
        "fgt_network_adjusted fgt_via_coefficients",
        "axioms": "AXIOMS AxiomReport GeneratorSettings apply_bistochastic_average "
        "apply_rearrangement apply_simple_increment axiom_covered run_axiom_suite",
        "bounds": "BoundsSummary attainable_scores bounds_summary dimension_jumps "
        "lower_bound upper_bound weighted_upper_bound",
        "core": "AchievementMatrix CutoffVector DependenceStructure MethodologyConfig "
        "WeightVector connections_of is_disconnected validate_dependence_structure "
        "validate_weights",
        "config": "ConfigDocument load_config load_config_document resolve_methodology",
        "dataio": "Dataset build_report load_dataset recompute_fgt_value run_report",
        "deprivation": "DeprivationCounts DeprivationMatrix GapMatrix deprivation_counts "
        "deprivation_matrix deprivation_score gap_matrix gap_sensitivity normalized_gap",
        "identification": "PovertyStatusVector headcount_ratio identify",
        "weights": "ImpliedWeights SymmetricConsistencyReport aggregation_coefficients "
        "check_symmetric_consistency implied_weights",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset({*_EXPORTS.values(), "cli", "errors"})

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # an import statement's path: -X importtime lists it
    value = _sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
