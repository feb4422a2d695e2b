"""Exact best approximations on finite quasi-cone metric instances.

Distances take values in a rational vector space ordered by a pointed
polyhedral cone; every predicate in the library is exact, so best sets,
witness certificates, and classifications are decided, not estimated.

The public API is every name in ``__all__``, read from the package:
``from quasicone import best_approximation_set``. Importing the package
loads no submodule; the first read of a name imports its home module
(PEP 562), so a command-line run loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "approximation": (
        "ApproximationResult",
        "DominanceStats",
        "MinimalFrontFallback",
        "best_approximation_set",
        "duality_check",
        "minimal_front_dnc",
        "minimal_front_naive",
    ),
    "chebyshev": (
        "CensusEntry",
        "ChebyshevReport",
        "QueryFamily",
        "classify",
        "counterexample_to_theorem_form",
    ),
    "cones": (
        "OrderedSpace",
        "PolyhedralCone",
        "Vec",
        "as_rational",
        "check_cone_axioms",
        "exact_rank",
        "format_rational",
        "kernel_vector",
    ),
    "errors": (
        "ConeNotPointed",
        "ConeNotSolid",
        "DimensionMismatch",
        "DuplicateLabel",
        "EmbeddingRequired",
        "InstanceFileError",
        "NotARational",
        "QuasiConeError",
        "UnknownLabel",
    ),
    "files": (
        "LoadedInstance",
        "instance_json",
        "load_instance_file",
        "load_witness_file",
        "parse_instance",
        "parse_witness",
        "witness_json",
    ),
    "metric": (
        "BACKWARD",
        "FORWARD",
        "Provenance",
        "QcmInstance",
        "Query",
        "alpha_distance",
        "build_example3",
        "build_example4",
        "directed_distance",
        "direction_distance",
        "transpose",
        "verify_axioms",
    ),
    "reports": ("AxiomCheck", "AxiomReport"),
    "witnesses": (
        "ANCHOR_EQUALITY",
        "GAP_NOT_IN_CONE",
        "SHIFT_NOT_IN_CONE",
        "WitnessTable",
        "WitnessVerdict",
        "canonical_witness",
        "default_witness_pool",
        "search_counterexample_witness",
        "verify_witness_for_element",
        "verify_witness_for_set",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
