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
from .fw import AVERAGING, ConvergenceTrace, StepSchedule, frank_wolfe
from .graph import MultiGraph, is_connected, minimum_spanning_tree
from .polytope import BaseVector
from .setfn import graphic_rank_fn


def _require_connected(g: MultiGraph):
    if not is_connected(g):
        raise DisconnectedGraphError("tree packing needs a connected graph")


def ideal_loads(g: MultiGraph) -> BaseVector:
    """Exact per-edge ideal loads, summing to n - 1.

    Computed as the density vector of the graphic rank oracle: edges in the
    i-th deletion block carry the reciprocal of that block's ratio.
    """
    _require_connected(g)
    if g.m > 20:
        raise GroundSetTooLargeError(f"ideal loads limited to 20 edges, got {g.m}")
    return density_vector(graphic_rank_fn(g))


def _partitions(n: int):
    """All set partitions of range(n) as tuples of blocks, via restricted
    growth strings."""
    code = [0] * n
    maxes = [0] * n

    def emit():
        k = max(code) + 1
        blocks: list[list[int]] = [[] for _ in range(k)]
        for i, c in enumerate(code):
            blocks[c].append(i)
        return tuple(tuple(b) for b in blocks)

    while True:
        yield emit()
        i = n - 1
        while i > 0 and code[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        code[i] += 1
        maxes[i] = max(maxes[i - 1], code[i])
        for j in range(i + 1, n):
            code[j] = 0
            maxes[j] = maxes[i]


def _part_of(parts) -> dict[int, int]:
    """Map each element to the index of its block."""
    return {v: pi for pi, block in enumerate(parts) for v in block}


def tnw_strength(g: MultiGraph) -> Fraction:
    """Strength tau(G) = min over partitions with >= 2 parts of
    crossing-edges / (parts - 1), by exhaustive partition enumeration."""
    _require_connected(g)
    if g.n < 2:
        raise ValueError("strength needs at least two vertices")
    if g.n > 10:
        raise GroundSetTooLargeError(f"partition enumeration limited to 10 vertices, got {g.n}")
    best: Fraction | None = None
    for parts in _partitions(g.n):
        if len(parts) < 2:
            continue
        part_of = _part_of(parts)
        crossing = sum(1 for u, v in g.edges if part_of[u] != part_of[v])
        ratio = Fraction(crossing, len(parts) - 1)
        if best is None or ratio < best:
            best = ratio
    assert best is not None
    return best


def tnw_ideal_loads(g: MultiGraph) -> BaseVector:
    """Independent ideal-load oracle: find the finest minimizing partition,
    assign 1/tau to its crossing edges, recurse on each part.

    Among minimizing partitions the one with the most parts is unique
    (refining two distinct minimizers would beat both), which is asserted.
    """
    _require_connected(g)
    if g.n > 10:
        raise GroundSetTooLargeError(f"partition enumeration limited to 10 vertices, got {g.n}")
    out: dict[int, Fraction] = {}
    _tnw_recurse(g, list(range(g.m)), out)
    return BaseVector(tuple(range(g.m)), tuple(out[i] for i in range(g.m)))


def _tnw_recurse(g: MultiGraph, edge_ids: list[int], out: dict[int, Fraction]):
    if not edge_ids:
        return
    verts = sorted({v for i in edge_ids for v in g.edges[i]})
    local = {v: i for i, v in enumerate(verts)}
    best: Fraction | None = None
    best_parts = None
    ties_at_best = 0
    for parts in _partitions(len(verts)):
        if len(parts) < 2:
            continue
        part_of = _part_of(parts)
        crossing = sum(1 for i in edge_ids if part_of[local[g.edges[i][0]]] != part_of[local[g.edges[i][1]]])
        ratio = Fraction(crossing, len(parts) - 1)
        if best is None or ratio < best or (ratio == best and len(parts) > len(best_parts)):
            best = ratio
            best_parts = parts
            ties_at_best = 1
        elif ratio == best and len(parts) == len(best_parts):
            ties_at_best += 1
    assert best is not None and best_parts is not None
    assert ties_at_best == 1, "finest minimizing partition should be unique"
    load = 1 / best
    part_of = _part_of(best_parts)
    groups: dict[int, list[int]] = {}
    for i in edge_ids:
        u, v = g.edges[i]
        pu, pv = part_of[local[u]], part_of[local[v]]
        if pu != pv:
            out[i] = load
        else:
            groups.setdefault(pu, []).append(i)
    for sub in groups.values():
        _tnw_recurse(g, sub, out)


def _mst_lmo(g: MultiGraph):
    edge_ground = tuple(range(g.m))

    def lmo(weights) -> BaseVector:
        tree = set(minimum_spanning_tree(g, weights))
        return BaseVector(edge_ground, tuple(1 if i in tree else 0 for i in edge_ground))

    return lmo


def fw_tree_pack(
    g: MultiGraph,
    iterations: int,
    schedule: StepSchedule = AVERAGING,
    ref=None,
    stop_dist: Optional[float] = None,
    exact: bool = False,
) -> tuple[BaseVector, ConvergenceTrace]:
    """Frank-Wolfe on the spanning tree base polytope with the MST oracle.

    With the default averaging schedule this is greedy tree packing, and
    k * load^(k) is exactly the vector of tree counts. The starting point is the MST under all-zero weights (smallest edge
    indices win), which the first step immediately averages away.
    """
    _require_connected(g)
    return frank_wolfe(
        _mst_lmo(g),
        ground=tuple(range(g.m)),
        schedule=schedule,
        iterations=iterations,
        ref=ref,
        stop_dist=stop_dist,
        exact=exact,
    )
