"""Analysis of place/transition Petri nets and labelled transition systems,
and synthesis of nets from transition systems via regions.
"""

from .common import (
    AptError,
    BoundExceededError,
    Check,
    CycleCapExceededError,
    ParseError,
    PreconditionError,
    StateLimitExceededError,
    UnboundedNetError,
    UnsupportedInputError,
)
from .lts import (
    Arc,
    Lts,
    ParikhVector,
    SpanningTree,
    bisimilar,
    cycles_same_pv,
    is_deterministic,
    is_persistent,
    is_reversible,
    is_totally_reachable,
    isomorphic,
    language_equivalent,
    reachable_states,
    small_cycle_parikh_vectors,
    spanning_tree,
    strongly_connected_components,
    weak_small_cycle_property,
    weakly_connected_components,
)
from .petri import (
    OMEGA,
    Marking,
    PetriNet,
    StateGraph,
    bounded,
    coverability_graph,
    enabled,
    fire,
    fire_sequence,
    gcd_initial_marking,
    has_isolated_elements,
    is_bcf,
    is_bicf,
    is_conflict_free,
    is_marked_graph,
    is_output_nonbranching,
    is_plain,
    is_pure,
    is_strongly_connected,
    is_tnet,
    is_weakly_connected,
    non_plain_side_conditions,
    persistent,
    reachability_graph,
    reversible,
    separable,
    side_conditions,
    weakly_live,
    word_in_language,
)
from .linalg import (
    LinearSystem,
    integer_kernel_basis,
    minimal_semipositive_solutions,
)
from .structure import (
    IncidenceMatrices,
    covered_by_invariants,
    incidence_matrices,
    invariants,
    minimal_siphons,
    minimal_traps,
)
from .synthesis import (
    PropertySet,
    Region,
    SeparationProblem,
    SynthesisOutcome,
    enumerate_separation_problems,
    format_report,
    minimize_regions,
    region_basis,
    solve_separation,
    synthesize,
    synthesize_language_only,
    word_lts,
    word_synthesize,
)
from .generators import bitnet, cyclenet, philnet_bistate
from .aptio import Document, parse, render, to_dot

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
