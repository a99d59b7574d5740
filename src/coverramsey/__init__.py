"""Computational toolkit for cover Ramsey numbers of Berge hypergraphs:
covering hosts, Berge-subgraph certificates, resolvable designs,
scatter/trace and product reductions, exhaustive coloring search with a
constructive local-lemma resampler, and exact bound arithmetic.
"""

__version__ = "0.2.0"

from .berge import (BergeCertificate, complete_graph, contains_mono_berge,
                    cycle_graph, find_berge, matching_for_assignment,
                    parse_target, path_graph, verify_certificate)
from .bounds import (BoundReport, KNOWN_RAMSEY, NoValidNError,
                     asymptotic_lower, lll_inequality_holds, lll_threshold_n,
                     sufficiency_inequality_holds, thm1_upper_bound)
from .designs import (ResolvableDesign, UnsupportedParametersError,
                      construct_resolvable_bibd, design_to_hypergraph,
                      format_design, parse_design, verify_resolvable_bibd)
from .hypergraph import (EdgeColoring, Hypergraph, complete_host,
                         format_coloring, format_hypergraph,
                         minimal_covering_subhypergraph, parse_coloring,
                         parse_hypergraph)
from .reductions import (ProductReduction, ScatterSample, TraceColoring,
                         find_mono_subgraph, lift_mono_subgraph,
                         lift_trace_subgraph, multicolor_product_reduction,
                         sample_scattered_subset, scatter_failure_bound,
                         scatter_rejection_trials, trace_coloring)
from .search import (AVOIDABLE, BadEvent, LimitExceededError,
                     LowerBoundCertificate, MTRun, UNAVOIDABLE,
                     UnavoidabilityResult, VerificationFailure,
                     classical_ramsey_small, lower_bound_certificate,
                     moser_tardos_coloring, scan_bad_events, unavoidable,
                     unavoidable_sharded)
