"""Dense decompositions of supermodular functions, density peeling as noisy
Frank-Wolfe, and greedy spanning tree packing, with exact brute-force
oracles for everything at desk scale."""

from .decomp import (
    DenseDecomposition,
    certify_lex_optimal,
    decompose_submodular_deletion,
    decompose_supermodular,
    densest_set_bruteforce,
    density_vector,
    verify_decomposition_equivalence,
)
from .fw import (
    AVERAGING,
    STANDARD,
    ConvergenceTrace,
    curvature_bounds,
    delta_for_graph,
    frank_wolfe,
    harmonic_bound,
)
from .graph import (
    MultiGraph,
    components,
    is_connected,
    minimum_spanning_tree,
    parse_edge_list,
)
from .peel import (
    GreedyPPResult,
    PeelResult,
    greedy_pp,
    supergreedy_pp,
    weighted_greedy,
    weighted_supergreedy,
)
from .polytope import (
    BaseVector,
    Orientation,
    enumerate_base_vertices,
    lmo,
    optimal_orientation,
    verify_base,
    verify_bases,
)
from .setfn import (
    SetFunctionOracle,
    contract,
    dualize,
    edge_count_fn,
    graphic_rank_fn,
    nn_sum,
    restrict,
)
from .treepack import (
    fw_tree_pack,
    ideal_loads,
    tnw_ideal_loads,
    tnw_strength,
)

__version__ = "0.1.0"

__all__ = [
    "AVERAGING",
    "BaseVector",
    "ConvergenceTrace",
    "DenseDecomposition",
    "GreedyPPResult",
    "MultiGraph",
    "Orientation",
    "PeelResult",
    "STANDARD",
    "SetFunctionOracle",
    "certify_lex_optimal",
    "components",
    "contract",
    "curvature_bounds",
    "decompose_submodular_deletion",
    "decompose_supermodular",
    "delta_for_graph",
    "densest_set_bruteforce",
    "density_vector",
    "dualize",
    "edge_count_fn",
    "enumerate_base_vertices",
    "frank_wolfe",
    "fw_tree_pack",
    "graphic_rank_fn",
    "greedy_pp",
    "harmonic_bound",
    "ideal_loads",
    "is_connected",
    "lmo",
    "minimum_spanning_tree",
    "nn_sum",
    "optimal_orientation",
    "parse_edge_list",
    "restrict",
    "supergreedy_pp",
    "tnw_ideal_loads",
    "tnw_strength",
    "verify_base",
    "verify_bases",
    "verify_decomposition_equivalence",
    "weighted_greedy",
    "weighted_supergreedy",
]
