"""Set inversion by permutations, set packings with unbounded blocks,
and the counting bounds connecting them."""

from .setcore import (
    Collection,
    Permutation,
    Subset,
    apply,
    complement,
    inverted,
    inverts,
    parse_collection,
    parse_permutation,
    serialize_collection,
    serialize_permutation,
)
from .invert import (
    ConflictGraph,
    MatchingResult,
    check_disjoint_criterion,
    check_halfsize_conditions,
    check_triple,
    conflict_graph,
    decide_invertible,
    maximum_matching,
)
from .kappa import (
    SizeProfile,
    exhaustive_kappa,
    find_simple_permutation,
    kappa_lower_bound,
    lambda_simple,
    sigma,
)
from .pack import (
    GraphStats,
    PackingFamily,
    construct_packing,
    greedy_independent_set,
    no_three_invertible_family,
    packing_graph_stats,
    verify_packing,
)
from .bounds import (
    BoundReport,
    bound_report,
    entropy,
    finite_n_upper_bound,
    lower_bound_T,
    optimal_c,
    upper_bound_entropy,
    upper_bound_small_c,
)
from .qcube import (
    CubeEdgeSet,
    inversion_assisted_blocking,
    is_square_blocking,
    recursive_blocking_set,
)

__version__ = "0.1.0"
