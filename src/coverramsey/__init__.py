"""Computational toolkit for cover Ramsey numbers of Berge hypergraphs:
covering hosts, Berge-subgraph certificates, resolvable designs,
scatter/trace and product reductions, exhaustive coloring search with a
constructive local-lemma resampler, and exact bound arithmetic.

The public names below are loaded lazily (PEP 562): `import coverramsey`
imports no submodule, and the first use of a name imports the one that
defines it, so that a CLI run loads only what its subcommand calls.
"""

# A literal, so that setuptools reads it without importing the package.
__version__ = "0.2.0"

_EXPORTS = {
    "berge": ("BergeCertificate", "complete_graph", "contains_mono_berge",
              "cycle_graph", "find_berge", "matching_for_assignment",
              "parse_target", "path_graph", "verify_certificate"),
    "bounds": ("BoundReport", "NoValidNError", "asymptotic_lower",
               "lll_inequality_holds", "lll_threshold_n",
               "sufficiency_inequality_holds", "thm1_upper_bound"),
    "designs": ("ResolvableDesign", "UnsupportedParametersError",
                "construct_resolvable_bibd", "design_to_hypergraph",
                "format_design", "parse_design", "verify_resolvable_bibd"),
    "hypergraph": ("EdgeColoring", "Hypergraph", "complete_host",
                   "format_coloring", "format_hypergraph",
                   "minimal_covering_subhypergraph", "parse_coloring",
                   "parse_hypergraph"),
    "reductions": ("ProductReduction", "ScatterSample", "TraceColoring",
                   "find_mono_subgraph", "lift_mono_subgraph",
                   "lift_trace_subgraph", "multicolor_product_reduction",
                   "sample_scattered_subset", "scatter_failure_bound",
                   "scatter_rejection_trials", "trace_coloring"),
    "search": ("AVOIDABLE", "BadEvent", "LimitExceededError",
               "LowerBoundCertificate", "MTRun", "UNAVOIDABLE",
               "UnavoidabilityResult", "VerificationFailure",
               "classical_ramsey_small", "lower_bound_certificate",
               "moser_tardos_coloring", "scan_bad_events", "unavoidable",
               "unavoidable_sharded"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
