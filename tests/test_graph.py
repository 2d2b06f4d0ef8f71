"""Multigraph construction, parsing, components, and the deterministic MST."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import multigraphs, p3, random_connected_graph, star, tri_pendant, triangle
from densefw import MultiGraph, components, minimum_spanning_tree, parse_edge_list
from densefw.errors import DisconnectedGraphError, GraphParseError
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

    @settings(deadline=None, max_examples=40)
    @given(multigraphs())
    def test_each_edge_drops_count_by_at_most_one(self, g):
        prev = g.n
        for i in range(g.m):
            cur = components(g, range(i + 1))
            assert cur in (prev, prev - 1)
            prev = cur


def kruskal_by_key(g, w):
    """Kruskal over the edges sorted by the key (weight, index): the tie
    rule minimum_spanning_tree keeps with a stable sort."""
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


class TestMinimumSpanningTree:
    def test_unique_mst(self):
        assert minimum_spanning_tree(triangle(), (1, 2, 3)) == (0, 1)

    def test_tie_break_smaller_edge_index(self):
        assert minimum_spanning_tree(triangle(), (1, 1, 1)) == (0, 1)

    def test_path_is_forced(self):
        assert minimum_spanning_tree(p3(), (9, 4)) == (0, 1)

    def test_disconnected_raises(self):
        g = MultiGraph(4, ((0, 1), (2, 3)))
        with pytest.raises(DisconnectedGraphError):
            minimum_spanning_tree(g, (1, 1))

    def test_one_vertex_and_an_isolated_vertex(self):
        assert minimum_spanning_tree(MultiGraph(1, ()), ()) == ()
        with pytest.raises(DisconnectedGraphError):
            minimum_spanning_tree(MultiGraph(3, ((0, 1), (1, 0))), (1, 2))

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            minimum_spanning_tree(triangle(), (1, 2))

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
                tree = minimum_spanning_tree(g, weights)
                assert len(tree) == g.n - 1
                assert components(g, tree) == 1
                assert tree == kruskal_by_key(g, weights)

    def test_affine_weight_invariance(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_connected_graph(rng)
            w = [rng.randint(0, 9) for _ in range(g.m)]
            base = minimum_spanning_tree(g, w)
            shifted = minimum_spanning_tree(g, [x + 5 for x in w])
            scaled = minimum_spanning_tree(g, [3 * x for x in w])
            assert base == shifted == scaled

    def test_total_weight_is_minimal(self):
        from itertools import combinations

        rng = random.Random(17)
        for _ in range(15):
            g = random_connected_graph(rng, n_max=5, extra_max=3)
            w = [rng.randint(0, 6) for _ in range(g.m)]
            tree = minimum_spanning_tree(g, w)
            best = min(
                sum(w[i] for i in sub)
                for sub in combinations(range(g.m), g.n - 1)
                if components(g, sub) == 1
            )
            assert sum(w[i] for i in tree) == best


def test_is_connected():
    assert is_connected(triangle())
    assert not is_connected(MultiGraph(3, ((0, 1),)))
