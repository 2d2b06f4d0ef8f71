"""Undirected multigraphs with stable edge indices.

Edges are an ordered list of unordered pairs; parallel edges are repeated
entries, self-loops are rejected. The edge index (position in the list) is
the identity used everywhere else in the package: spanning trees, load
vectors and orientations are all keyed by it, and every tie in the package
breaks toward the smaller vertex or edge index so that runs are repeatable.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import cached_property
from operator import eq, index

from .errors import GraphParseError, Record

VERTEX_CAP = 10**6  # largest vertex id parse_edge_list accepts

# A line break followed by a line that is not plain: not blanks (spaces and
# tabs) then an edge of two ids of at most 7 ASCII digits, a comment or
# nothing. Each line matches in one way only, so rejecting a text takes time
# linear in its length, not exponential.
_NOT_PLAIN = re.compile(r"\n(?![ \t]*(?:[0-9]{1,7}[ \t]+[0-9]{1,7}[ \t]*|#[^\n]*)?(?:\n|\Z))")
_COMMENT = re.compile(r"#[^\n]*")  # in a plain text, only comments hold '#'


class MultiGraph(Record):
    """Immutable multigraph on vertices 0..n-1. n and every id are read by
    `operator.index`: ints, bools and numpy ints pass, a float or a string
    (which int() would truncate or parse) raises TypeError."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        n = index(n)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = tuple((index(u), index(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
        Record.__init__(self, n, edges)

    @classmethod
    def _checked(cls, n: int, edges: tuple[tuple[int, int], ...]) -> MultiGraph:
        """The graph of int n and a tuple of int pairs that the caller has
        already checked as __init__ would: the parser's, once per edge."""
        g = cls.__new__(cls)
        Record.__init__(g, n, edges)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """degrees[v] counts the edges at v, parallel edges with multiplicity."""
        return tuple(map(len, self.adjacency))

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

    A plain text (spaces and tabs for blanks, ids of at most 7 digits, no
    bad line) is read in bulk; any other text, and every error, is the
    line loop's. Both give the same graph or the same error.
    """
    if "\r" in text:  # universal newlines, as open() reads a file
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _parse_plain(text) or _parse_lines(text)


def _parse_plain(text: str) -> MultiGraph | None:
    """The graph of a plain text, its ids converted and checked in C-level
    passes over one flat list; None when the text is not plain or fails a
    check, so that the line loop can name the line."""
    if _NOT_PLAIN.search("\n" + text):
        return None
    if "#" in text:
        text = _COMMENT.sub("", text)
    ids: list[int] = []
    start = 0
    while start < len(text):  # by slices of about 64 KiB, so that few id strings live at once
        end = text.find("\n", start + 65536) + 1 or len(text)
        ids += map(int, text[start:end].split())
        start = end
    top = max(ids, default=-1)
    pairs = iter(ids)
    if not 0 <= top <= VERTEX_CAP or any(map(eq, pairs, pairs)):  # no edge, an id above the cap, a self-loop
        return None
    pairs = iter(ids)
    return MultiGraph._checked(top + 1, tuple(zip(pairs, pairs)))


def _parse_lines(text: str) -> MultiGraph:
    """parse_edge_list one line at a time, on text whose lines end at '\\n'."""
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected two vertex ids, got {line!r}", lineno)
        a, b = parts
        # ASCII digits only: int() would also take "+1", "1_0" and other scripts' digits
        if not (a.isdigit() and b.isdigit() and line.isascii()):
            signed = line.isascii() and a.removeprefix("-").isdigit() and b.removeprefix("-").isdigit()
            raise GraphParseError(f"{'negative' if signed else 'non-integer'} vertex id in {line!r}", lineno)
        # VERTEX_CAP's digits plus one keep every id's verdict, and int() never sees a long string
        u, v = (int(s.lstrip("0")[: len(str(VERTEX_CAP)) + 1] or "0") for s in (a, b))
        if u > VERTEX_CAP or v > VERTEX_CAP:
            raise GraphParseError(f"vertex id above {VERTEX_CAP} in {line!r}", lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if not edges:
        raise GraphParseError("empty graph: no edges found")
    return MultiGraph._checked(max_id + 1, tuple(edges))


def components(g: MultiGraph, edge_subset: Iterable[int]) -> int:
    """Number of connected components of the spanning subgraph (V, edge_subset).

    Isolated vertices count as components, so the empty subset gives n.
    Every index is checked before Kruskal runs, as Kruskal stops once it
    has a spanning forest; O(len(subset) + n).
    """
    subset = tuple(edge_subset)
    m = len(g.edges)
    for idx in subset:
        if not (0 <= idx < m):
            raise ValueError(f"edge index {idx} out of range")
    return g.n - len(_kruskal(g, subset))


def is_connected(g: MultiGraph) -> bool:
    return g.m >= g.n - 1 and components(g, range(g.m)) == 1  # n vertices need n - 1 edges to connect


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
