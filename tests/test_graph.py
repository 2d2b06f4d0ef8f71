"""Multigraph construction, parsing, components, and the deterministic MST
that the graphic rank's greedy LMO marks."""

import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (
    kruskal_by_key,
    multigraphs,
    p3,
    random_connected_graph,
    random_multigraph,
    star,
    tri_pendant,
    triangle,
)
from densefw import MultiGraph, components, graphic_rank_fn, lmo, parse_edge_list
from densefw.errors import GraphParseError
from densefw.graph import is_connected


class TestMultiGraph:
    def test_triangle_shape(self):
        g = triangle()
        assert g.n == 3
        assert g.m == 3
        assert g.edges == ((0, 1), (1, 2), (2, 0))

    def test_needs_a_vertex(self):
        with pytest.raises(ValueError):
            MultiGraph(0, ())

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            MultiGraph(2, ((0, 2),))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            MultiGraph(3, ((1, 1),))

    def test_edges_allow_zero(self):
        assert MultiGraph(1, ()).m == 0


class TestParseEdgeList:
    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n2 0")
        assert (g.n, g.m) == (3, 3)

    def test_parallel_edges_kept(self):
        g = parse_edge_list("0 1\n0 1")
        assert g.m == 2
        assert g.edges == ((0, 1), (0, 1))

    def test_empty_input_rejected(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("")

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_list("# header\n\n0 1\n  # indented comment\n1 2\n")
        assert (g.n, g.m) == (3, 2)

    def test_unseen_ids_become_isolated_vertices(self):
        g = parse_edge_list("0 4")
        assert g.n == 5
        assert g.degrees[2] == 0

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("0 1\n0 1 2\n")
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_non_integer_reports_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("0 x")
        assert exc.value.line == 1

    def test_negative_id_rejected(self):
        for text in ("0 -1", "-0 1", "-12 3"):
            with pytest.raises(GraphParseError, match="negative vertex id"):
                parse_edge_list(text)

    @pytest.mark.parametrize(
        "text",
        ["1_0 2", "\u0663 +1", "+1 2", "0 \u00b2", "0 1.0", "0 0x1", "-1 x", "-+1 2", "0 --1", "- 1"],
    )
    def test_ids_are_ascii_digits(self, text):
        """int() would read the first two lines as edges (10, 2) and (3, 1)."""
        with pytest.raises(GraphParseError, match="non-integer vertex id"):
            parse_edge_list(text)

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("0 1\n2 2")
        assert exc.value.line == 2


class TestDegree:
    def test_triangle(self):
        assert triangle().degrees == (2, 2, 2)

    def test_star_center(self):
        assert star().degrees == (3, 1, 1, 1)

    def test_parallel_edges_count_with_multiplicity(self):
        g = parse_edge_list("0 1\n0 1")
        assert g.degrees == (2, 2)

    def test_degree_sum_is_twice_edges(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_graph(rng)
            assert len(g.degrees) == g.n
            assert sum(g.degrees) == 2 * g.m


class TestComponents:
    def test_triangle_all_edges(self):
        assert components(triangle(), range(3)) == 1

    def test_triangle_no_edges(self):
        assert components(triangle(), ()) == 3

    def test_pendant_graph_without_pendant_edge(self):
        assert components(tri_pendant(), (0, 1, 2)) == 2

    def test_invalid_edge_index(self):
        with pytest.raises(ValueError):
            components(triangle(), (5,))

    def test_invalid_index_after_a_spanning_forest(self):
        """Edges 0 and 1 already span the triangle, so Kruskal alone would
        stop before it reads index 7."""
        with pytest.raises(ValueError, match="^edge index 7 out of range$"):
            components(triangle(), (0, 1, 7))
        with pytest.raises(ValueError, match="^edge index -1 out of range$"):
            components(triangle(), iter((0, 1, -1, 9)))

    def test_matches_a_breadth_first_count(self):
        rng = random.Random(71)
        for _ in range(60):
            g = random_multigraph(rng, n_max=9, m_max=12)
            g = MultiGraph(g.n + rng.randint(0, 2), g.edges + g.edges[:rng.randint(0, 2)])  # isolated, parallel
            subset = [i for i in range(g.m) if rng.random() < 0.6]
            adj = [[] for _ in range(g.n)]
            for i in subset:
                u, v = g.edges[i]
                adj[u].append(v)
                adj[v].append(u)
            seen, count = set(), 0
            for s in range(g.n):
                if s not in seen:
                    count += 1
                    seen.add(s)
                    queue = deque([s])
                    while queue:
                        for v in adj[queue.popleft()]:
                            if v not in seen:
                                seen.add(v)
                                queue.append(v)
            assert components(g, subset) == components(g, (i for i in subset)) == count

    @settings(deadline=None, max_examples=40)
    @given(multigraphs())
    def test_each_edge_drops_count_by_at_most_one(self, g):
        prev = g.n
        for i in range(g.m):
            cur = components(g, range(i + 1))
            assert cur in (prev, prev - 1)
            prev = cur


def lmo_tree(g, w):
    """The edges marked 1 in lmo(graphic_rank_fn(g), w): Kruskal's tree
    (a spanning forest when g is disconnected)."""
    return tuple(i for i, x in enumerate(lmo(graphic_rank_fn(g), w).values) if x)


class TestMinimumSpanningTree:
    def test_unique_mst(self):
        assert lmo_tree(triangle(), (1, 2, 3)) == (0, 1)

    def test_tie_break_smaller_edge_index(self):
        assert lmo_tree(triangle(), (1, 1, 1)) == (0, 1)

    def test_path_is_forced(self):
        assert lmo_tree(p3(), (9, 4)) == (0, 1)

    def test_one_vertex_and_an_isolated_vertex(self):
        assert lmo_tree(MultiGraph(1, ()), ()) == ()
        assert lmo_tree(MultiGraph(3, ((0, 1), (1, 0))), (1, 2)) == (0,)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            lmo_tree(triangle(), (1, 2))

    def test_tree_size_and_connectivity(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_connected_graph(rng)
            w = [rng.randint(0, 9) for _ in range(g.m)]
            ties = [rng.randint(0, 1) for _ in range(g.m)]
            thirds = [Fraction(x, 3) for x in ties]
            floats = [x / 3 for x in ties]
            mixed = [(thirds if i % 2 else floats)[i] for i in range(g.m)]
            for weights in (w, ties, thirds, floats, mixed):
                tree = lmo_tree(g, weights)
                assert len(tree) == g.n - 1
                assert components(g, tree) == 1
                assert tree == kruskal_by_key(g, weights)

    def test_affine_weight_invariance(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_connected_graph(rng)
            w = [rng.randint(0, 9) for _ in range(g.m)]
            base = lmo_tree(g, w)
            shifted = lmo_tree(g, [x + 5 for x in w])
            scaled = lmo_tree(g, [3 * x for x in w])
            assert base == shifted == scaled

    def test_total_weight_is_minimal(self):
        from itertools import combinations

        rng = random.Random(17)
        for _ in range(15):
            g = random_connected_graph(rng, n_max=5, extra_max=3)
            w = [rng.randint(0, 6) for _ in range(g.m)]
            tree = lmo_tree(g, w)
            best = min(
                sum(w[i] for i in sub)
                for sub in combinations(range(g.m), g.n - 1)
                if components(g, sub) == 1
            )
            assert sum(w[i] for i in tree) == best


def test_is_connected():
    assert is_connected(triangle())
    assert not is_connected(MultiGraph(3, ((0, 1),)))
