"""Dense decompositions of supermodular functions, density peeling as noisy
Frank-Wolfe, and greedy spanning tree packing, with exact brute-force
oracles for everything at desk scale.

Public names load on first use (PEP 562), so `import densefw` alone, or a
CLI call, imports only the modules it needs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "decomp": (
        "DenseDecomposition",
        "certify_lex_optimal",
        "decompose_submodular_deletion",
        "decompose_supermodular",
        "densest_set_bruteforce",
        "density_vector",
        "verify_decomposition_equivalence",
    ),
    "fw": (
        "AVERAGING",
        "STANDARD",
        "ConvergenceTrace",
        "curvature_bounds",
        "delta_for_graph",
        "frank_wolfe",
        "fw_qp",
        "harmonic_bound",
    ),
    "graph": (
        "MultiGraph",
        "components",
        "is_connected",
        "parse_edge_list",
    ),
    "peel": (
        "GreedyPPResult",
        "PeelResult",
        "supergreedy_pp",
        "weighted_supergreedy",
    ),
    "polytope": (
        "BaseVector",
        "Orientation",
        "enumerate_base_vertices",
        "lmo",
        "verify_bases",
    ),
    "setfn": (
        "SetFunctionOracle",
        "contract",
        "dualize",
        "edge_count_fn",
        "graphic_rank_fn",
        "nn_sum",
        "restrict",
    ),
    "treepack": (
        "fw_tree_pack",
        "ideal_loads",
        "tnw_ideal_loads",
        "tnw_strength",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
