"""Ribbon graphs as permutation triples and their three-variable polynomial.

The package represents oriented ribbon graphs by permutation triples,
computes the Bollobas-Riordan polynomial C(X, Y, Z) by four independent
methods (state sum, spanning-tree expansion, deletion/contraction, and a
quasi-tree expansion with far fewer summands), enumerates quasi-trees
with their chord diagrams and live/dead activities, counts quasi-trees by
genus, and checks ribbon-graph duality exactly.
"""

from .errors import (
    BijectionFailure,
    Disconnected,
    IdentityFailure,
    LoopContraction,
    Mismatch,
    NegativeExponent,
    NotInvolution,
    NotPartition,
    NotQuasiTree,
    RibbonPolyError,
    SizeLimit,
    SplitRoot,
)
from .expansions import (
    BrtResult,
    DEFAULT_SUBGRAPH_CAP,
    DualityReport,
    Method,
    SpanningTreeRow,
    VerifyReport,
    compute,
    deletion_contraction,
    duality_check,
    quasi_tree_sum,
    spanning_tree_expansion,
    spanning_tree_rows,
    state_sum,
    verify_all,
)
from .mpoly import (
    MPoly,
    ONE,
    T,
    X,
    Y,
    Z,
    counting_substitution,
    genus_counting_series,
)
from .multigraph import MultiGraph, SpanningTreeActivities
from .permutation import Perm
from .quasitrees import (
    Activity,
    ChordDiagram,
    QuasiTree,
    QuasiTreeWeight,
    activity_string,
    chord_diagram,
    classify_activities,
    enumerate_quasi_trees,
    genus_histogram,
    quasi_tree_weight,
)
from .ribbon import (
    GraphCounts,
    RibbonGraph,
    build_ribbon_graph,
    graph_from_json,
    graph_to_json_dict,
)

__version__ = "0.1.0"

__all__ = [
    "Activity",
    "BijectionFailure",
    "BrtResult",
    "ChordDiagram",
    "DEFAULT_SUBGRAPH_CAP",
    "Disconnected",
    "DualityReport",
    "GraphCounts",
    "IdentityFailure",
    "LoopContraction",
    "Method",
    "Mismatch",
    "MPoly",
    "MultiGraph",
    "NegativeExponent",
    "NotInvolution",
    "NotPartition",
    "NotQuasiTree",
    "ONE",
    "Perm",
    "QuasiTree",
    "QuasiTreeWeight",
    "RibbonGraph",
    "RibbonPolyError",
    "SizeLimit",
    "SpanningTreeActivities",
    "SpanningTreeRow",
    "SplitRoot",
    "T",
    "VerifyReport",
    "X",
    "Y",
    "Z",
    "activity_string",
    "build_ribbon_graph",
    "chord_diagram",
    "classify_activities",
    "compute",
    "counting_substitution",
    "deletion_contraction",
    "duality_check",
    "enumerate_quasi_trees",
    "genus_counting_series",
    "genus_histogram",
    "graph_from_json",
    "graph_to_json_dict",
    "quasi_tree_sum",
    "quasi_tree_weight",
    "spanning_tree_expansion",
    "spanning_tree_rows",
    "state_sum",
    "verify_all",
]
