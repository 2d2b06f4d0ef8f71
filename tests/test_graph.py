"""Multigraph construction, parsing, components, and the deterministic MST
that the graphic rank's greedy LMO marks."""

import random
import time
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from densefw import graph
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

    @pytest.mark.parametrize("n, edges", [
        (3, [(0.9, 1.2)]),
        (3, [(0, 1.0)]),
        (3, [("1", "2")]),
        (3, [(0, Fraction(1))]),
        (2.5, [(0, 1)]),
        ("3", [(0, 1)]),
    ], ids=["float-ids", "integral-float-id", "str-ids", "fraction-id", "float-n", "str-n"])
    def test_non_integers_refused_at_construction(self, n, edges):
        """int() would truncate 0.9 to vertex 0 and parse "1"; a float n
        used to fail only later, in degrees."""
        with pytest.raises(TypeError):
            MultiGraph(n, edges)

    def test_integer_types_read_as_ints(self):
        np = pytest.importorskip("numpy")
        g = MultiGraph(np.int64(3), [(np.int32(0), np.uint8(2)), (True, np.intp(2))])
        assert g == MultiGraph(3, ((0, 2), (1, 2)))
        assert {type(x) for x in (g.n, *(x for e in g.edges for x in e))} == {int}


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

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_universal_newlines_end_a_line(self, sep):
        """str.splitlines() also breaks at these; wc -l and the CLI's
        file reader do not, so here they are blanks inside a line."""
        assert parse_edge_list(f"0 1{sep}\n{sep}1 2{sep}\n").edges == ((0, 1), (1, 2))
        with pytest.raises(GraphParseError, match="^line 2: expected two vertex ids, got 'foo'$"):
            parse_edge_list(f"0 1{sep}\nfoo\n")
        with pytest.raises(GraphParseError, match="^line 1: expected two vertex ids") as exc:
            parse_edge_list(f"0 1{sep}1 2\n")
        assert exc.value.line == 1

    def test_crlf_and_lone_cr_end_lines(self):
        lf = parse_edge_list("0 1\n1 2\n\n2 0\n")
        assert parse_edge_list("0 1\r\n1 2\r\r2 0\r") == parse_edge_list("0 1\r1 2\r\n\r\n2 0") == lf
        with pytest.raises(GraphParseError, match="^line 3: "):
            parse_edge_list("0 1\r\n\rfoo\r\n")

    @pytest.mark.parametrize("text, edges", [
        ("0 " + "0" * 5000 + "1", ((0, 1),)),
        ("0" * 5000 + " 1", ((0, 1),)),
        ("0 " + "0" * 636 + "1", ((0, 1),)),  # 639 characters
        ("0 " + "0" * 637 + "1", ((0, 1),)),  # 640 characters
        ("1 " + "0" * 5000 + "1000000", ((1, 10**6),)),
    ], ids=["5001-digit-one", "5000-zero-first-id", "639-chars", "640-chars", "padded-cap"])
    def test_leading_zeros_under_any_digit_limit(self, int_digit_limit, text, edges):
        assert parse_edge_list(text).edges == edges

    @pytest.mark.parametrize(
        "text",
        ["0 " + "9" * 5000, "0 100000000", "0 " + "0" * 5000 + "1000001", "0 " + "0" * 5000 + "10000000",
         "9" * 640 + " 0"],
        ids=["5000-nines", "10^8", "padded-cap-plus-one", "padded-10^7", "640-nines-first-id"],
    )
    def test_large_ids_are_above_the_cap_under_any_digit_limit(self, int_digit_limit, text):
        """Ids compare with VERTEX_CAP by value, whatever int() would refuse."""
        with pytest.raises(GraphParseError, match="^line 1: vertex id above 1000000 in "):
            parse_edge_list(text)


# Odd atoms for the differential test. Each sends a text to the line loop,
# or is a line end that parse_edge_list folds before either path.
ODD_IDS = ["+1", "1_0", "\u0663", "00000001", "1000001", "9999999", "0" * 699 + "5", "9" * 700, "-1", "x"]
ODD_BLANKS = ["\x0c", "\xa0", " \x0c ", "\r\n", "\r"]
ids = st.integers(0, 60).map(str) | st.sampled_from(["00", "0000007", "1000000"])
blanks = st.sampled_from([" ", "\t", " \t", "   "])


def edge_lines(first, blank, second):
    ends = st.sampled_from(["", " ", "\t "])
    return st.builds("{}{}{}{}{}".format, ends, first, blank, second, ends)


plain_lines = (edge_lines(ids, blanks, ids).filter(lambda line: len(set(map(int, line.split()))) == 2)
               | st.sampled_from(["", " ", "\t\t", "#", "# 1 2 3", "  #\tx \x0c\xa0\u0663 #"]))
odd_ids, odd_blanks = st.sampled_from(ODD_IDS), st.sampled_from(ODD_BLANKS)
odd_lines = st.one_of(  # a plain line with one odd part
    edge_lines(odd_ids, blanks, ids), edge_lines(ids, odd_blanks, ids), edge_lines(ids, blanks, odd_ids),
    st.sampled_from(["7 7", "1 2 3", "0 1 # edge"]))
texts = st.builds(str.__add__, st.lists(st.one_of(*[plain_lines] * 4, odd_lines), max_size=8).map("\n".join),
                  st.sampled_from(["", "\n"]))


def outcome(parse, text):
    """The graph parse gives, or the message and line of its GraphParseError."""
    try:
        return parse(text)
    except GraphParseError as e:
        return str(e), e.line


def fold(text: str) -> str:
    """Universal newlines, as parse_edge_list folds them before either path."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


PLAIN_LINES = "# header n=10001\n" + "".join(f"{i} {i + 1}\n" for i in range(10**4))


class TestBulkPath:
    """A plain text is read in bulk, everything else by the line loop; both
    must give the same graph or the same error."""

    @settings(deadline=None, max_examples=400)
    @given(texts)
    def test_bulk_path_agrees_with_the_line_loop(self, text):
        lines = outcome(graph._parse_lines, fold(text))
        assert outcome(parse_edge_list, text) == lines
        bulk = graph._parse_plain(fold(text))
        assert bulk is None or bulk == lines

    @pytest.mark.parametrize("text", [
        "0 1", "0 1\n", "\t 0\t 1 \t\n\n  \n", "# c\x0c\xa0 1 2 3\n0 1", "0000007 1000000\n  # x\n1 2",
        PLAIN_LINES,
    ], ids=["one-line", "newline", "tabs", "odd-comment", "seven-digits", "10^4-lines"])
    def test_plain_texts_take_the_bulk_path(self, text):
        assert graph._parse_plain(text) == graph._parse_lines(text)

    @pytest.mark.parametrize("text", [
        "0\x0c1", "0\xa01", "00000001 2", "0 1\n" + " " * 700 + "0" * 8 + " 2", "", "# only\n\n",
        "0 1000001", "3 3", "0 1 2", "0 1 # edge", "0 x",
    ])
    def test_other_texts_take_the_line_loop(self, text):
        assert graph._parse_plain(text) is None

    @pytest.mark.parametrize("bad, message", [
        ("0 1 2", "expected two vertex ids, got '0 1 2'"),
        ("0 1 # edge", "expected two vertex ids, got '0 1 # edge'"),
        ("0 x", "non-integer vertex id in '0 x'"),
        ("0 +1", "non-integer vertex id in '0 +1'"),
        ("0 -1", "negative vertex id in '0 -1'"),
        ("0 1000001", "vertex id above 1000000 in '0 1000001'"),
        ("0 " + "9" * 700, "vertex id above 1000000 in '0 " + "9" * 700 + "'"),
        ("5 5", "self-loop at vertex 5"),
        ("0000005 5", "self-loop at vertex 5"),
    ])
    def test_first_bad_line_after_many_plain_lines(self, bad, message):
        text = PLAIN_LINES + bad + "\n" + PLAIN_LINES
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list(text)
        assert (str(exc.value), exc.value.line) == (f"line 10002: {message}", 10002)

    def test_only_comments_after_many_lines_is_empty(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("# c\n" * 10**4)
        assert (str(exc.value), exc.value.line) == ("empty graph: no edges found", None)

    @pytest.mark.parametrize("text", [
        "0 1\n" * 10**5 + "x\n",
        "0 1\n" * 10**5 + "0 1 2",
        " " + "1 " * 10**5 + "x",
        " \t" * 10**5 + "x",
        "1" + " \t" * 10**5 + "x",
        "1 2" + " \t" * 10**5 + "x",
    ], ids=["bad-last-line", "three-ids-last", "one-long-line", "blank-run", "blank-run-after-id", "blank-run-after-edge"])
    def test_rejection_takes_linear_time(self, text):
        """A line matches the plain form in one way only; were two ways
        open, a failing text would take time exponential in its length."""
        start = time.perf_counter()
        with pytest.raises(GraphParseError):
            parse_edge_list(text)
        assert time.perf_counter() - start < 10


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

    def test_small_subset_costs_nothing_per_edge(self):
        """A call allocates for n and the subset, not for all m edges."""
        g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)] * 33333 + [(0, 1), (1, 2)])  # m = 100001
        components(g, (0, 1))  # any first-call allocation happens here
        tracemalloc.start()
        try:
            assert components(g, (0, 1)) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000

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
