"""Undirected multigraphs with stable edge indices.

Edges are an ordered list of unordered pairs; parallel edges are repeated
entries, self-loops are rejected. The edge index (position in the list) is
the identity used everywhere else in the package: spanning trees, load
vectors and orientations are all keyed by it, and every tie in the package
breaks toward the smaller vertex or edge index so that runs are repeatable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from .errors import DisconnectedGraphError, FrozenRecord, GraphParseError

VERTEX_CAP = 10**6  # largest vertex id parse_edge_list accepts


class MultiGraph(FrozenRecord):
    """Immutable multigraph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]
    _fields = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
        self.__dict__.update(n=n, edges=edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """degrees[v] counts the edges at v, parallel edges with multiplicity."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """adjacency[v] lists the other endpoint of every edge at v,
        with multiplicity for parallel edges."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(a) for a in adj)


def parse_edge_list(text: str) -> MultiGraph:
    """Parse whitespace-separated "u v" lines into a MultiGraph.

    Lines starting with '#' and blank lines are skipped. Vertex ids are
    ASCII digit strings with values up to VERTEX_CAP; the vertex set is
    0..max-id, so ids that never appear still exist as isolated vertices.
    Errors carry the offending 1-based line number.
    """
    edges: list[tuple[int, int]] = []
    max_id = -1
    ascii_text = text.isascii()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected two vertex ids, got {line!r}", lineno)
        a, b = parts
        # ASCII digits only: int() would also take "+1", "1_0" and other scripts' digits
        if not (a.isdigit() and b.isdigit() and (ascii_text or line.isascii())):
            signed = line.isascii() and a.removeprefix("-").isdigit() and b.removeprefix("-").isdigit()
            raise GraphParseError(f"{'negative' if signed else 'non-integer'} vertex id in {line!r}", lineno)
        try:
            u, v = int(a), int(b)
        except ValueError:  # digit strings longer than int() converts
            raise GraphParseError(f"non-integer vertex id in {line!r}", lineno) from None
        if u > VERTEX_CAP or v > VERTEX_CAP:
            raise GraphParseError(f"vertex id above {VERTEX_CAP} in {line!r}", lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if not edges:
        raise GraphParseError("empty graph: no edges found")
    return MultiGraph(max_id + 1, tuple(edges))


def components(g: MultiGraph, edge_subset: Iterable[int]) -> int:
    """Number of connected components of the spanning subgraph (V, edge_subset).

    Isolated vertices count as components, so the empty subset gives n.
    """
    edges = g.edges
    m = len(edges)
    parent = list(range(g.n))
    count = g.n
    for idx in edge_subset:
        if not (0 <= idx < m):
            raise ValueError(f"edge index {idx} out of range")
        u, v = edges[idx]
        while parent[u] != u:  # path halving
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[v] = u
            count -= 1
    return count


def is_connected(g: MultiGraph) -> bool:
    return components(g, range(g.m)) == 1


def minimum_spanning_tree(g: MultiGraph, weights: Sequence) -> tuple[int, ...]:
    """Edge indices of the minimum-weight spanning tree (Kruskal).

    Edges are taken in a stable sort by weight, so ties break toward the
    smaller edge index, which makes the result a deterministic function of
    the weight vector. Raises on disconnected input.
    """
    if len(weights) != g.m:
        raise ValueError(f"expected {g.m} weights, got {len(weights)}")
    order = sorted(range(g.m), key=weights.__getitem__)
    edges = g.edges
    parent = list(range(g.n))
    chosen: list[int] = []
    for idx in order:
        u, v = edges[idx]
        while parent[u] != u:  # path halving, as in components
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[v] = u
            chosen.append(idx)
            if len(chosen) == g.n - 1:
                break
    if len(chosen) != g.n - 1:
        raise DisconnectedGraphError("graph is not connected")
    return tuple(sorted(chosen))
