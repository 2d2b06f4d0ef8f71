"""Undirected multigraphs with stable edge indices.

Edges are an ordered list of unordered pairs; parallel edges are repeated
entries, self-loops are rejected. The edge index (position in the list) is
the identity used everywhere else in the package: spanning trees, load
vectors and orientations are all keyed by it, and every tie in the package
breaks toward the smaller vertex or edge index so that runs are repeatable.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

from .errors import GraphParseError, Record

VERTEX_CAP = 10**6  # largest vertex id parse_edge_list accepts


class MultiGraph(Record):
    """Immutable multigraph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
        Record.__init__(self, n, edges)

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

    Lines end only at '\\n', '\\r\\n' or a lone '\\r'; form feed, U+2028 and
    other separators are blanks inside a line. Blank lines and lines whose
    first non-blank character is '#' are skipped. Vertex ids are ASCII
    digit strings, leading zeros allowed, up to VERTEX_CAP; the vertex set
    is 0..max-id, so unseen ids are isolated vertices. Errors carry the
    offending 1-based line number.
    """
    edges: list[tuple[int, int]] = []
    max_id = -1
    ascii_text = text.isascii()
    if "\r" in text:  # universal newlines, as open() reads a file
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        if len(line) >= 640:  # int() may refuse 640 digits, never fewer (sys.int_info.str_digits_check_threshold)
            a, b = (s.lstrip("0")[: len(str(VERTEX_CAP)) + 1] or "0" for s in (a, b))
        u, v = int(a), int(b)
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
    Every index is checked before Kruskal runs, as Kruskal stops once it
    has a spanning forest.
    """
    subset = tuple(edge_subset)
    m = len(g.edges)
    for idx in subset:
        if not (0 <= idx < m):
            raise ValueError(f"edge index {idx} out of range")
    return g.n - len(_kruskal(g, subset))


def is_connected(g: MultiGraph) -> bool:
    return components(g, range(g.m)) == 1


def _kruskal(g: MultiGraph, order: Iterable[int]) -> list[int]:
    """Kruskal along `order`, a sequence of edge indices: the edges that
    join two components of the edges before them, in order. They are
    where the graphic rank's marginals along the order are 1. Its work
    and memory grow with n and len(order), not with m. Private, so a
    tracer that wraps the public functions still sees `components` as a
    leaf."""
    edges = g.edges
    parent = list(range(g.n))
    taken: list[int] = []
    left = g.n - 1  # edges a spanning forest still lacks, at most
    for idx in order:
        if not left:
            break
        u, v = edges[idx]
        while parent[u] != u:  # path halving
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[v] = u
            taken.append(idx)
            left -= 1
    return taken
