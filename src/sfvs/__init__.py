"""Subset feedback vertex set toolkit for chordal and split graphs.

The public surface re-exported here covers the four layers most callers
need: instances and their file format (``Graph``, ``Instance``,
``parse_instance``, ``format_instance``), the split-graph kernelization
(``kernelize``), the chordal branch-and-reduce solver (``solve``), and the
exact oracle plus generators used for validation (``oracle_decide``,
``vc_to_sfvs``, ``GenSpec``, ``generate``).
"""

from .chordal import (
    CliqueTree,
    NotChordalError,
    NotSplitError,
    build_clique_tree,
    maximal_cliques,
    require_chordal,
    require_split,
    split_partition,
)
from .expansion import (
    BipartiteView,
    ExpansionError,
    ExpansionPreconditionError,
    ExpansionResult,
    find_expansion,
    find_matching_expansion_with_witness,
    maximum_matching,
)
from .generators import FAMILIES, GenError, GenSpec, generate, generate_text
from .graph import (
    Graph,
    GraphError,
    Instance,
    ParseError,
    find_bridges,
    find_terminal_cycle,
    format_instance,
    is_t_forest,
    parse_instance,
)
from .kernel import KernelOutcome, kernelize
from .oracle import (
    ORACLE_VERTEX_CAP,
    OracleGuardError,
    oracle_decide,
    vc_to_sfvs,
)
from .solver import SolveResult, solve
from .trace import RuleTrace, TraceEntry, replay

__version__ = "0.1.0"

__all__ = [
    "BipartiteView",
    "CliqueTree",
    "ExpansionError",
    "ExpansionPreconditionError",
    "ExpansionResult",
    "FAMILIES",
    "GenError",
    "GenSpec",
    "Graph",
    "GraphError",
    "Instance",
    "KernelOutcome",
    "NotChordalError",
    "NotSplitError",
    "ORACLE_VERTEX_CAP",
    "OracleGuardError",
    "ParseError",
    "RuleTrace",
    "SolveResult",
    "TraceEntry",
    "build_clique_tree",
    "find_bridges",
    "find_expansion",
    "find_matching_expansion_with_witness",
    "find_terminal_cycle",
    "format_instance",
    "generate",
    "generate_text",
    "is_t_forest",
    "kernelize",
    "maximal_cliques",
    "maximum_matching",
    "oracle_decide",
    "parse_instance",
    "replay",
    "require_chordal",
    "require_split",
    "solve",
    "split_partition",
    "vc_to_sfvs",
    "__version__",
]
