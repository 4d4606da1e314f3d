"""quasiline: incidence structures as monotone quasiline arrangements.

Realize arbitrary combinatorial incidence structures as generalized
wiring diagrams (wires pairwise crossing an odd number of times), sweep
and classify the underlying move sequences, apply admissible local
moves, produce bend-free straight-line drawings of digon-free
arrangements, and compute the induced maps on closed surfaces with their
Euler characteristic, genus, straight-ahead walks, and mutation-class
fingerprints.
"""

from .incidence import (
    IncidenceStructure,
    LeviGraph,
    are_isomorphic,
    build,
    configuration_signature,
    format_lines_text,
    is_lineal,
    levi_graph,
    parse_lines_text,
)
from .realization import (
    Realization,
    RealizationPlan,
    default_plan,
    realize,
    topological_unwanted_bound,
    unwanted_crossing_count,
)
from .sequences import (
    Move,
    PermSequence,
    SequenceClass,
    are_swap_equivalent,
    classify,
    elementary_swap,
    make_sequence,
    sequence_from_json_dict,
    sequence_to_json_dict,
)
from .surface import (
    EmbeddingScheme,
    MapSummary,
    StraightAheadWalk,
    fingerprint,
    scheme_from_json_dict,
    scheme_from_realization,
    scheme_to_json_dict,
    straight_ahead_walks,
    summary_to_json_dict,
    trace_and_summarize,
)
from . import errors, wiring

__version__ = "0.1.0"
