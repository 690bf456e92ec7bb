"""Systemic performance/robustness measures of first-order consensus networks
over weighted undirected graphs: evaluation, verification and design.

The package namespace is lazy (PEP 562): `import systemic` loads no layer
module, and a name such as `systemic.evaluate` imports its layer on first use.
"""

import importlib

__version__ = "0.1.0"

# layer module -> the names the package re-exports from it
_EXPORTS = {
    "design": ("AugmentationReport", "RankingEntry", "RewireResult", "SolverOptions",
               "Topology", "WeightAllocationResult", "fundamental_limit",
               "greedy_augment", "optimize_weights", "project_simplex",
               "rewire_bruteforce"),
    "errors": ("ConfigError", "ConnectivityError", "DimensionError", "DomainError",
               "GenerationError", "GraphFormatError", "InputError", "NumericalError",
               "ScaleError", "SystemicError"),
    "graphs": ("WeightedGraph", "generate", "graph_add", "is_connected", "laplacian",
               "parse_graph", "scalar_mul", "serialize_graph", "spanning_tree_count"),
    "measures": ("ENTROPY_FORM_WARNING", "MeasureDescriptor", "QuadratureSettings",
                 "SpectralFunction", "applicable_properties", "entropy_via_trees",
                 "evaluate", "evaluate_eigenvalues", "get_spectral_function",
                 "hp_norm", "hp_norm_numeric", "is_homogeneous", "is_spectral",
                 "zeta", "zeta_measure"),
    "properties": ("PropertyReport", "Violation", "replay_trial", "run_check"),
    "sim": ("SimConfig", "estimate_h2"),
    "spectral": ("Spectrum", "eig_sym", "graph_spectrum", "laplacian_spectrum"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
