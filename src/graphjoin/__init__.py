"""Property-graph joins over indexed multisets.

The package splits into a reference layer and an optimized layer.  The
reference layer (``model``, ``relational``, ``logical``) defines the
data model and a deliberately simple join whose behaviour is the
contract.  The optimized layer (``engine``) computes the same results
for equality conditions through hash buckets, with counters exposing
exactly how much work it did.  ``graphio`` covers files and synthetic
data, ``verify`` the randomized law checking, ``cli`` the command-line
front end.
"""

from .model import (
    EMPTY_RECORD,
    DataFormatError,
    Element,
    Graph,
    GraphJoinError,
    IncompleteBucket,
    IndexedSet,
    PropertyGraph,
    Record,
    SpecMismatch,
    UndefinedExtension,
    UndefinedIndexUniverse,
    UnknownComponent,
    ValidationError,
    combine_elements,
    combine_indices,
    combine_pairs,
    combine_records,
    combine_sets,
    combine_value,
    component_from_payloads,
    decompose,
    runtime_extend,
)
from .relational import ThetaPredicate, invert_predicate, theta_join
from .logical import CONJUNCTIVE, DISJUNCTIVE, JoinResult, JoinSpec, graph_join, join_vertices
from .engine import (
    EngineIndex,
    EngineRun,
    OpCounters,
    explain,
    prepare,
    prepare_files,
    run_join,
    stable_hash,
)
from .graphio import (
    GeneratorParams,
    build_graph,
    generate,
    load_graph_pair,
    write_graph,
    write_join_result,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY_RECORD",
    "DataFormatError",
    "Element",
    "Graph",
    "GraphJoinError",
    "IncompleteBucket",
    "IndexedSet",
    "PropertyGraph",
    "Record",
    "SpecMismatch",
    "UndefinedExtension",
    "UndefinedIndexUniverse",
    "UnknownComponent",
    "ValidationError",
    "combine_elements",
    "combine_indices",
    "combine_pairs",
    "combine_records",
    "combine_sets",
    "combine_value",
    "component_from_payloads",
    "decompose",
    "runtime_extend",
    "ThetaPredicate",
    "invert_predicate",
    "theta_join",
    "CONJUNCTIVE",
    "DISJUNCTIVE",
    "JoinResult",
    "JoinSpec",
    "graph_join",
    "join_vertices",
    "EngineIndex",
    "EngineRun",
    "OpCounters",
    "explain",
    "prepare",
    "prepare_files",
    "run_join",
    "stable_hash",
    "GeneratorParams",
    "build_graph",
    "generate",
    "load_graph_pair",
    "write_graph",
    "write_join_result",
    "__version__",
]
