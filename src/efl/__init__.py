"""Clique covers of Erdos-Faber-Lovasz type.

Model instances made of n cliques of order n that pairwise share at most one
vertex, color them with the intersection-matrix method or a degree-ordered
greedy, and verify everything against exact oracles and the combinatorial
identities such covers must satisfy.
"""

from types import ModuleType as _Module

from .errors import (
    CoreSizeLimitError,
    EflError,
    IncompleteColoringError,
    InconsistentBlockError,
    InvalidInstanceError,
    ParseError,
    UnknownVertexError,
)
from .export import export_coloring, export_dot, serialize_instance
from .generators import (
    EXAMPLE_ASSIGNMENTS,
    EXAMPLE_FINAL_MATRIX,
    GenSpec,
    RandomBuildResult,
    SplitMix64,
    build_random,
    example_instance,
    gen_dense,
    gen_disjoint,
    gen_random,
)
from .greedy import (
    CliqueCount,
    HypothesisReport,
    check_sy1,
    check_sy2,
    check_sy2_all,
    run_greedy,
)
from .instance import (
    CoreGraph,
    DegreeProfile,
    Instance,
    ValidationReport,
    Violation,
    clique_degree,
    core_subgraph,
    degree_profile,
    incidence,
    intersecting_pair_count,
    parse_instance,
    shared_vertex,
    validate,
)
from .matrix_engine import (
    DISJOINT,
    UNASSIGNED,
    Assigned,
    BudgetExhausted,
    ColorMatrix,
    ColoringResult,
    EngineConfig,
    RepairRecolored,
    RepairSkipped,
    initial_matrix,
    matrix_to_coloring,
    render_trace,
    replay_trace,
    run_matrix_method,
)
from .oracle import (
    CheckReport,
    CheckRow,
    Coloring,
    IdentityResult,
    VerifyReport,
    chromatic_number_exact,
    corollary_bound_check,
    is_n_colorable,
    theorem_identity,
    verify_proper,
)

# the exported names, without the submodules that importing them binds here
__all__ = sorted(k for k, v in vars().items() if k[0] != "_" and not isinstance(v, _Module))
