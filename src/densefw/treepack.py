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
tnw_ideal_loads recomputes it independently from vertex partitions: find
the finest partition reaching tau, give its crossing edges 1/tau, recurse
on each part. Partitions come from one restricted-growth pass that carries
the crossing count as each vertex is placed. tnw_strength and
tnw_ideal_loads are the cross-check used in tests and (as `_tnw`) by `verify`.
"""

from __future__ import annotations

from fractions import Fraction

from .decomp import density_vector
from .errors import DisconnectedGraphError, GroundSetTooLargeError
from .fw import AVERAGING, ConvergenceTrace, fw_qp
from .graph import MultiGraph, is_connected
from .polytope import BaseVector
from .setfn import graphic_rank_fn

PARTITION_CAP = 10  # largest vertex set the partition scans accept


def _require_connected(g: MultiGraph):
    if not is_connected(g):
        raise DisconnectedGraphError("tree packing needs a connected graph")


def ideal_loads(g: MultiGraph) -> BaseVector:
    """Exact per-edge ideal loads, summing to n - 1; at most `setfn.ENUM_CAP` edges.

    Computed as the density vector of the graphic rank oracle: edges in the
    i-th deletion block carry the reciprocal of that block's ratio.
    """
    _require_connected(g)
    return density_vector(graphic_rank_fn(g))


def _min_partition(g: MultiGraph, edge_ids) -> tuple[Fraction, list[tuple[int, int]]]:
    """Strength tau of the subgraph formed by `edge_ids`: the minimum of
    crossing(P) / (|P| - 1) over the partitions P, with >= 2 parts, of the
    vertices those edges touch. Returns tau and each edge's pair of block
    indices under the finest minimizing partition; every vertex touches an
    edge, so the pairs pin that partition. It is unique (refining two
    distinct minimizers would beat both), which is asserted.

    One restricted-growth pass: vertex v joins one of the blocks opened so
    far or opens the next, and the crossing count grows by v's edges to
    earlier vertices in other blocks, so blocks are numbered by their
    smallest vertex."""
    verts = sorted({v for i in edge_ids for v in g.edges[i]})
    n = len(verts)
    GroundSetTooLargeError.check("partition enumeration", n, PARTITION_CAP, "vertices")
    local = {v: i for i, v in enumerate(verts)}
    ends = [(local[g.edges[i][0]], local[g.edges[i][1]]) for i in edge_ids]
    earlier: list[list[int]] = [[] for _ in range(n)]  # earlier[v]: the end below v of each edge at v
    for u, v in ends:
        earlier[max(u, v)].append(min(u, v))
    block_of = [0] * n
    num, den = 0, 0  # least crossing / (parts - 1) so far, by cross-multiplying; 0/0 loses to the first
    best, ties_at_best = None, 0

    def place(v: int, parts: int, crossing: int) -> None:
        nonlocal num, den, best, ties_at_best
        into = [0] * (parts + 1)  # into[b]: v's edges to earlier vertices in block b
        for u in earlier[v]:
            into[block_of[u]] += 1
        crossing += len(earlier[v])
        for b in range(parts + 1):
            block_of[v] = b
            p, x = parts + (b == parts), crossing - into[b]
            if v + 1 < n:
                place(v + 1, p, x)
            elif p >= 2:
                c = x * den - num * (p - 1)
                if c < 0 or (c == 0 and p - 1 > den):  # ties go to more parts
                    num, den, best, ties_at_best = x, p - 1, tuple(block_of), 1
                elif c == 0 and p - 1 == den:
                    ties_at_best += 1

    place(1, 1, 0)  # vertex 0 opens block 0
    assert den
    assert ties_at_best == 1, "finest minimizing partition should be unique"
    return Fraction(num, den), [(best[u], best[v]) for u, v in ends]


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
    return _tnw(g)[1]


def _tnw(g: MultiGraph) -> tuple[Fraction | None, BaseVector]:
    """tnw_strength(g), None without edges, and tnw_ideal_loads(g), from
    one partition scan per part: the first part is the whole edge set."""
    _require_connected(g)
    out: dict[int, Fraction] = {}
    strength, parts = None, [list(range(g.m))] if g.m else []
    while parts:
        edge_ids = parts.pop()
        tau, ends = _min_partition(g, edge_ids)
        strength = strength or tau  # tau > 0: each part is connected
        groups: dict[int, list[int]] = {}
        for i, (pu, pv) in zip(edge_ids, ends):
            if pu != pv:
                out[i] = 1 / tau
            else:
                groups.setdefault(pu, []).append(i)
        parts += groups.values()
    return strength, BaseVector(tuple(range(g.m)), tuple(out[i] for i in range(g.m)))


def fw_tree_pack(
    g: MultiGraph,
    iterations: int,
    schedule: str = AVERAGING,
    ref=None,
    stop_dist: float | None = None,
) -> tuple[BaseVector, ConvergenceTrace]:
    """`fw_qp` on the graphic rank: Frank-Wolfe on the spanning tree base
    polytope, whose greedy vertex is the MST (Kruskal along a stable sort
    by load).

    With the default averaging schedule this is greedy tree packing, and
    k * load^(k) is exactly the vector of tree counts. The first query is
    at the MST under all-zero weights (smallest edge indices win).
    """
    _require_connected(g)
    return fw_qp(graphic_rank_fn(g), iterations, schedule=schedule, ref=ref, stop_dist=stop_dist)
