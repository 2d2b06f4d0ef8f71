"""Shared instances and generators for the test suite.

Canonical graphs are built inline (the data/ files mirror them for CLI
tests). Random instances come from seeded generators so failures
reproduce; hypothesis strategies cover the structured property tests.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from densefw import MultiGraph

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def single_edge() -> MultiGraph:
    return MultiGraph(2, ((0, 1),))


def parallel_pair() -> MultiGraph:
    return MultiGraph(2, ((0, 1), (0, 1)))


def p3() -> MultiGraph:
    return MultiGraph(3, ((0, 1), (1, 2)))


def triangle() -> MultiGraph:
    return MultiGraph(3, ((0, 1), (1, 2), (2, 0)))


def star() -> MultiGraph:
    """Three leaves hanging off vertex 0 (matches data/k13.el)."""
    return MultiGraph(4, ((0, 1), (0, 2), (0, 3)))


def star_center_last() -> MultiGraph:
    """Same star with the hub at the highest index, so index tie-breaks
    peel every leaf before the hub."""
    return MultiGraph(4, ((0, 3), (1, 3), (2, 3)))


def k4() -> MultiGraph:
    return MultiGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def tri_pendant() -> MultiGraph:
    """Triangle 0-1-2 plus pendant vertex 3 on vertex 2; the pendant edge
    has index 3."""
    return MultiGraph(4, ((0, 1), (1, 2), (2, 0), (2, 3)))


def three_tier() -> MultiGraph:
    """K4 core {0,1,2,3}, attached triangle {4,5,6}, pendant vertex 7.

    Densest core 3/2, middle tier 4/3, pendant tier 1; mirrors
    data/three_tier.el edge for edge.
    """
    return MultiGraph(
        8,
        (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (4, 5), (4, 6), (5, 6),
            (0, 4), (0, 7),
        ),
    )


# name -> constructor; the instance sweep used by invariant tests.
CANONICAL = {
    "single_edge": single_edge,
    "parallel_pair": parallel_pair,
    "p3": p3,
    "triangle": triangle,
    "star": star,
    "star_center_last": star_center_last,
    "k4": k4,
    "tri_pendant": tri_pendant,
    "three_tier": three_tier,
}


def canonical_graphs():
    return [(name, make()) for name, make in CANONICAL.items()]


def random_multigraph(rng: random.Random, n_max: int = 8, m_max: int = 14) -> MultiGraph:
    """Seeded random multigraph: 2..n_max vertices, 1..m_max edges,
    parallel edges allowed, no self-loops."""
    n = rng.randint(2, n_max)
    m = rng.randint(1, m_max)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append((u, v))
    return MultiGraph(n, tuple(edges))


def random_connected_graph(rng: random.Random, n_max: int = 7, extra_max: int = 4) -> MultiGraph:
    """Random spanning tree plus a few extra (possibly parallel) edges."""
    n = rng.randint(2, n_max)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for i in range(1, n):
        edges.append((perm[i], perm[rng.randrange(i)]))
    for _ in range(rng.randint(0, extra_max)):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append((u, v))
    return MultiGraph(n, tuple(edges))


def kruskal_by_key(g: MultiGraph, w) -> tuple[int, ...]:
    """Kruskal over the edges sorted by the key (weight, index), with its
    own union-find: the tie rule the library keeps with a stable sort.
    Returns the chosen edge indices, sorted; on a disconnected graph they
    form a spanning forest."""
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    chosen = []
    for i in sorted(range(g.m), key=lambda i: (w[i], i)):
        u, v = map(find, g.edges[i])
        if u != v:
            parent[v] = u
            chosen.append(i)
    return tuple(sorted(chosen))


@st.composite
def multigraphs(draw, n_max: int = 6, m_max: int = 9):
    n = draw(st.integers(2, n_max))
    m = draw(st.integers(1, m_max))
    edges = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        if v >= u:
            v += 1
        edges.append((u, v))
    return MultiGraph(n, tuple(edges))


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(params=["default_max_str_digits", "str_digits_check_threshold", None],
                ids=["default-digit-limit", "lowest-digit-limit", "no-digit-limit"])
def int_digit_limit(request):
    """Run under Python's default limit on int() digits, under the lowest
    limit it allows, and with the limit off (PYTHONINTMAXSTRDIGITS=0)."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(getattr(sys.int_info, request.param) if request.param else 0)
    yield
    sys.set_int_max_str_digits(before)
