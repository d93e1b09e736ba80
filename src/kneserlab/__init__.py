"""kneserlab: a laboratory for Kneser, odd and middle-levels graphs.

Builds the four graph families, decomposes them by edge-color deletion,
verifies the component censuses, explicit isomorphisms, covering maps,
meta-graph structure and Catalan-number identities that govern them, and
searches for Hamiltonian cycles with an exhaustive backtracking kernel.
"""

from .errors import (
    DegenerateCaseError,
    NotAdjacentError,
    ParameterError,
    UnlabeledGraphError,
)
from .graphs import (
    Family,
    LabeledGraph,
    PathSeq,
    Report,
    build,
    components,
    degree_profile,
    distance,
    edge_label,
    girth,
    verify_distance_formula,
)
from .hamilton import (
    SearchBudget,
    SearchResult,
    find_hamiltonian_cycle,
    kernel_name,
    recursion_pipeline,
    verify_cycle,
)
from .setcore import (
    MAX_GROUND,
    Block,
    Perm,
    apply_perm,
    binomial,
    catalan_fourth_convolution,
    complement,
    k_blocks,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "DegenerateCaseError",
    "Family",
    "LabeledGraph",
    "MAX_GROUND",
    "NotAdjacentError",
    "ParameterError",
    "PathSeq",
    "Perm",
    "Report",
    "SearchBudget",
    "SearchResult",
    "UnlabeledGraphError",
    "apply_perm",
    "binomial",
    "build",
    "catalan_fourth_convolution",
    "complement",
    "components",
    "degree_profile",
    "distance",
    "edge_label",
    "find_hamiltonian_cycle",
    "girth",
    "k_blocks",
    "kernel_name",
    "recursion_pipeline",
    "verify_cycle",
    "verify_distance_formula",
]
