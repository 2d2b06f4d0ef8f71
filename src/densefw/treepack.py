"""Greedy spanning tree packing and its ideal-load ground truth.

Packing k spanning trees one at a time, always picking the minimum
spanning tree under the current edge loads, is Frank-Wolfe with the
averaging schedule on min sum(load^2) over the spanning tree base polytope:
the MST under the load weights is an exact linear minimization oracle, and
the load vector after k trees is exactly (trees containing e) / k.

The limit object is the ideal load: ell*(e) = 1/tau of the subproblem the
edge dies in, where tau is the Tutte/Nash-Williams strength
min over partitions P of crossing(P) / (|P| - 1). ideal_loads computes it
from the deletion decomposition of the graphic rank function;
tnw_ideal_loads recomputes it independently by enumerating vertex
partitions and recursing, which is the cross-check used in tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .decomp import density_vector
from .errors import DisconnectedGraphError, GroundSetTooLargeError
from .fw import AVERAGING, ConvergenceTrace, frank_wolfe
from .graph import MultiGraph, is_connected, minimum_spanning_tree
from .polytope import BaseVector
from .setfn import graphic_rank_fn

PARTITION_CAP = 10  # largest vertex set the partition scans accept


def _require_connected(g: MultiGraph):
    if not is_connected(g):
        raise DisconnectedGraphError("tree packing needs a connected graph")


def ideal_loads(g: MultiGraph) -> BaseVector:
    """Exact per-edge ideal loads, summing to n - 1.

    Computed as the density vector of the graphic rank oracle: edges in the
    i-th deletion block carry the reciprocal of that block's ratio.
    """
    _require_connected(g)
    return density_vector(graphic_rank_fn(g))


def _partitions(n: int):
    """Every set partition of range(n) as a tuple of sorted blocks: each
    partition of range(n - 1) with n - 1 added to one of its blocks or
    placed in a block of its own."""
    if n == 0:
        yield ()
        return
    last = n - 1
    for parts in _partitions(last):
        for i, block in enumerate(parts):
            yield parts[:i] + (block + (last,),) + parts[i + 1 :]
        yield parts + ((last,),)


def _min_partition(g: MultiGraph, edge_ids) -> tuple[Fraction, tuple, list[tuple[int, int]]]:
    """Strength tau of the subgraph formed by `edge_ids`: the minimum of
    crossing(P) / (|P| - 1) over the partitions P, with >= 2 parts, of the
    vertices those edges touch. Returns tau, the finest minimizing partition
    (of local vertex indices) and each edge's pair of block indices under
    it. That partition is unique (refining two distinct minimizers would
    beat both), which is asserted."""
    verts = sorted({v for i in edge_ids for v in g.edges[i]})
    if len(verts) > PARTITION_CAP:
        raise GroundSetTooLargeError(f"partition enumeration limited to {PARTITION_CAP} vertices, got {len(verts)}")
    local = {v: i for i, v in enumerate(verts)}
    ends = [(local[g.edges[i][0]], local[g.edges[i][1]]) for i in edge_ids]
    block_of = [0] * len(verts)
    best = None  # (tau, -parts) of the finest minimizer so far
    ties_at_best = 0
    for parts in _partitions(len(verts)):
        if len(parts) < 2:
            continue
        for b, part in enumerate(parts):
            for v in part:
                block_of[v] = b
        crossing = sum(1 for u, v in ends if block_of[u] != block_of[v])
        key = (Fraction(crossing, len(parts) - 1), -len(parts))
        if best is None or key < best:
            best, best_parts, ties_at_best = key, parts, 1
        elif key == best:
            ties_at_best += 1
    assert best is not None
    assert ties_at_best == 1, "finest minimizing partition should be unique"
    block_of = {v: b for b, part in enumerate(best_parts) for v in part}
    return best[0], best_parts, [(block_of[u], block_of[v]) for u, v in ends]


def tnw_strength(g: MultiGraph) -> Fraction:
    """Strength tau(G) = min over partitions with >= 2 parts of
    crossing-edges / (parts - 1), by exhaustive partition enumeration."""
    _require_connected(g)
    if g.n < 2:
        raise ValueError("strength needs at least two vertices")
    return _min_partition(g, range(g.m))[0]


def tnw_ideal_loads(g: MultiGraph) -> BaseVector:
    """Independent ideal-load oracle: find the finest minimizing partition,
    assign 1/tau to its crossing edges, recurse on each part."""
    return _strength_and_ideal_loads(g)[1]


def _strength_and_ideal_loads(g: MultiGraph) -> tuple[Optional[Fraction], BaseVector]:
    """tnw_ideal_loads and the strength tau(G) its first scan found (None without edges)."""
    _require_connected(g)
    out: dict[int, Fraction] = {}
    tau = _tnw_recurse(g, list(range(g.m)), out)
    return tau, BaseVector(tuple(range(g.m)), tuple(out[i] for i in range(g.m)))


def _tnw_recurse(g: MultiGraph, edge_ids: list[int], out: dict[int, Fraction]) -> Optional[Fraction]:
    if not edge_ids:
        return None
    tau, _, ends = _min_partition(g, edge_ids)
    load = 1 / tau
    groups: dict[int, list[int]] = {}
    for i, (pu, pv) in zip(edge_ids, ends):
        if pu != pv:
            out[i] = load
        else:
            groups.setdefault(pu, []).append(i)
    for sub in groups.values():
        _tnw_recurse(g, sub, out)
    return tau


def _mst_lmo(g: MultiGraph):
    edge_ground = tuple(range(g.m))

    def lmo(weights) -> BaseVector:
        tree = set(minimum_spanning_tree(g, weights))
        return BaseVector(edge_ground, tuple(1 if i in tree else 0 for i in edge_ground))

    return lmo


def fw_tree_pack(
    g: MultiGraph,
    iterations: int,
    schedule: str = AVERAGING,
    ref=None,
    stop_dist: Optional[float] = None,
) -> tuple[BaseVector, ConvergenceTrace]:
    """Frank-Wolfe on the spanning tree base polytope with the MST oracle.

    With the default averaging schedule this is greedy tree packing, and
    k * load^(k) is exactly the vector of tree counts. The first query is
    at the MST under all-zero weights (smallest edge indices win).
    """
    _require_connected(g)
    lmo = _mst_lmo(g)
    return frank_wolfe(lmo, lmo([0] * g.m).values, schedule=schedule, iterations=iterations,
                       ref=ref, stop_dist=stop_dist)
