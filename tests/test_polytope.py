"""Greedy linear minimization, vertex enumeration, membership, orientations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (
    multigraphs,
    p3,
    random_multigraph,
    single_edge,
    star,
    three_tier,
    tri_pendant,
    triangle,
)
from densefw import (
    BaseVector,
    MultiGraph,
    Orientation,
    dualize,
    edge_count_fn,
    enumerate_base_vertices,
    graphic_rank_fn,
    lmo,
    verify_base,
    verify_bases,
)
from densefw.errors import GroundSetTooLargeError, OracleFlagError
from densefw.polytope import VERTEX_ENUM_CAP, _chain
from densefw.graph import parse_edge_list
from densefw.setfn import SUBMODULAR, SetFunctionOracle
from test_decomp import ref_verify_base
from test_setfn import tied_weights


class TestBaseVector:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BaseVector((0, 1), (1,))

    def test_dot_and_sum(self):
        x = BaseVector((0, 1, 2), (2, 1, 0))
        assert x.dot((1, 1, 1)) == 3
        assert x.dot((1, 2, 3)) == 4
        with pytest.raises(ValueError):
            x.dot((1, 2))

    def test_get_and_as_dict(self):
        x = BaseVector((3, 5), (Fraction(1, 2), 7))
        assert x.get(5) == 7
        assert {e: x.get(e) for e in x.ground} == {3: Fraction(1, 2), 5: 7}


class TestPolymatroidLMO:
    def test_triangle_rank_zero_weights(self):
        f = graphic_rank_fn(triangle())
        assert lmo(f, (0, 0, 0)).values == (1, 1, 0)

    def test_path_unique_base(self):
        f = graphic_rank_fn(p3())
        for w in ((0, 0), (5, 1), (-3, 2)):
            assert lmo(f, w).values == (1, 1)

    def test_triangle_rank_picks_light_tree(self):
        f = graphic_rank_fn(triangle())
        assert lmo(f, (3, 1, 2)).values == (0, 1, 1)

    def test_unnormalized_oracle_rejected(self):
        f = graphic_rank_fn(triangle())
        shifted = SetFunctionOracle(f.ground, f.kind, True, False, lambda s: f._eval(s) + 1)
        with pytest.raises(OracleFlagError, match="^lmo requires a normalized oracle$"):
            lmo(shifted, (0, 0, 0))

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            lmo(graphic_rank_fn(triangle()), (0, 0))


class TestContrapolymatroidLMO:
    def test_single_edge_goes_to_lighter_vertex(self):
        f = edge_count_fn(single_edge())
        assert lmo(f, (1, 2)).values == (1, 0)

    def test_triangle_zero_weights(self):
        f = edge_count_fn(triangle())
        assert lmo(f, (0, 0, 0)).values == (2, 1, 0)

    def test_star_light_center_absorbs_everything(self):
        f = edge_count_fn(star())
        assert lmo(f, (0, 1, 1, 1)).values == (3, 0, 0, 0)

    def test_dispatcher_matches_kind(self):
        g = triangle()
        assert lmo(edge_count_fn(g), (0, 0, 0)).values == (2, 1, 0)
        assert lmo(graphic_rank_fn(g), (0, 0, 0)).values == (1, 1, 0)


class TestLMOProperties:
    def test_scale_invariance(self):
        rng = random.Random(23)
        for _ in range(25):
            g = random_multigraph(rng, n_max=6, m_max=9)
            fe = edge_count_fn(g)
            fr = graphic_rank_fn(g)
            wv = [rng.randint(0, 9) for _ in range(g.n)]
            we = [rng.randint(0, 9) for _ in range(g.m)]
            for k in (2, 7, 100):
                assert lmo(fe, [k * x for x in wv]).values == \
                    lmo(fe, wv).values
                assert lmo(fr, [k * x for x in we]).values == \
                    lmo(fr, we).values

    @settings(deadline=None, max_examples=40)
    @given(multigraphs(n_max=6, m_max=8))
    def test_lmo_outputs_are_bases(self, g):
        fe = edge_count_fn(g)
        fr = graphic_rank_fn(g)
        rng = random.Random(g.n * 31 + g.m)
        for _ in range(3):
            wv = [rng.randint(-5, 9) for _ in range(g.n)]
            we = [rng.randint(-5, 9) for _ in range(g.m)]
            assert verify_base(fe, lmo(fe, wv))
            assert verify_base(fr, lmo(fr, we))

    def test_minimizes_over_enumerated_vertices(self):
        rng = random.Random(29)
        for _ in range(10):
            g = random_multigraph(rng, n_max=5, m_max=6)
            fe = edge_count_fn(g)
            verts = enumerate_base_vertices(fe)
            for _ in range(10):
                w = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(g.n)]
                assert lmo(fe, w).dot(w) == min(v.dot(w) for v in verts)


class TestLMOThroughTheChainHook:
    def test_stable_sort_gives_the_index_key_vertex(self):
        """lmo's stable index sort by w picks the vertex of the (w_i, i) key,
        with and without the hook, on tied int, Fraction and float weights."""
        rng = random.Random(113)
        for _ in range(40):
            g = random_multigraph(rng, n_max=7, m_max=10)
            g = MultiGraph(g.n + 1, g.edges + g.edges[:1])  # a parallel copy and an isolated vertex
            for f in (edge_count_fn(g), graphic_rank_fn(g), dualize(graphic_rank_fn(g))):
                n = len(f.ground)
                w = tied_weights(rng, n)
                want = _chain(f, sorted(range(n), key=lambda i: (w[i], i)))
                bare = SetFunctionOracle(f.ground, f.kind, f.monotone, f.normalized, f._eval)
                assert lmo(f, w).values == want
                assert lmo(bare, w).values == want

    def test_hooked_oracle_evaluates_no_sets(self):
        g = three_tier()
        for f in (edge_count_fn(g), graphic_rank_fn(g), dualize(graphic_rank_fn(g))):
            asked = []
            counted = SetFunctionOracle(
                f.ground, f.kind, True, True, lambda s, ev=f._eval: asked.append(s) or ev(s), f._gains, f._chain)
            w = [(7 * i) % 5 for i in range(len(f.ground))]
            assert lmo(counted, w) == lmo(SetFunctionOracle(f.ground, f.kind, True, True, f._eval), w)
            assert asked == []


class TestEnumerateBaseVertices:
    def test_triangle_rank_vertices_are_tree_indicators(self):
        verts = {v.values for v in enumerate_base_vertices(graphic_rank_fn(triangle()))}
        assert verts == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_path_has_one_vertex(self):
        assert len(enumerate_base_vertices(graphic_rank_fn(p3()))) == 1

    def test_single_edge_two_orientations(self):
        verts = {v.values for v in enumerate_base_vertices(edge_count_fn(single_edge()))}
        assert verts == {(1, 0), (0, 1)}

    def test_limit_enforced(self):
        assert VERTEX_ENUM_CAP == 7
        with pytest.raises(GroundSetTooLargeError, match="^vertex enumeration limited to 7 elements, got 8$"):
            enumerate_base_vertices(edge_count_fn(three_tier()))


class TestVerifyBase:
    def test_uniform_point_of_triangle_rank(self):
        f = graphic_rank_fn(triangle())
        assert verify_base(f, (Fraction(2, 3),) * 3)

    def test_concentrated_point_violates_pair_constraint(self):
        f = edge_count_fn(triangle())
        assert not verify_base(f, (3, 0, 0))

    def test_zero_vector_fails_when_total_positive(self):
        assert not verify_base(edge_count_fn(triangle()), (0, 0, 0))

    def test_wrong_total_fails(self):
        assert not verify_base(edge_count_fn(triangle()), (2, 2, 0))

    def test_negative_coordinate_fails(self):
        assert not verify_base(edge_count_fn(triangle()), (4, -1, 0))

    def test_float_just_off_the_polytope_fails(self):
        assert not verify_base(graphic_rank_fn(triangle()), (0.6666666666666666,) * 3)

    def test_size_cap(self):
        from densefw import MultiGraph

        f = edge_count_fn(MultiGraph(21, ()))
        with pytest.raises(GroundSetTooLargeError):
            verify_base(f, (0,) * 21)


class TestVerifyBases:
    """verify_bases: one packed walk for many vectors, against one walk per
    vector and against the frozenset reference."""

    def test_orientation_loads_match_per_vector_scans(self, data_dir):
        graphs = [parse_edge_list(p.read_text()) for p in sorted(data_dir.glob("*.el"))]
        rng = random.Random(61)
        graphs += [random_multigraph(rng, n_max=7, m_max=10) for _ in range(12)]
        for g in graphs:
            f = edge_count_fn(g)
            rows = sorted({Orientation.from_mask(g, mask).induced_load(g).values for mask in range(1 << g.m)})
            nudged = [row[:-2] + (row[-2] + 1, row[-1] - 1) for row in rows]
            assert verify_bases(f, rows) == [verify_base(f, r) for r in rows] == [True] * len(rows)
            assert verify_bases(f, nudged) == [verify_base(f, r) for r in nudged]

    def test_perturbed_vectors_match_per_vector_scans(self):
        rng = random.Random(67)
        based = total = 0
        for _ in range(30):
            g = random_multigraph(rng, n_max=6, m_max=9)
            for f in (edge_count_fn(g), graphic_rank_fn(g)):
                n = len(f.ground)
                xs = []
                for _ in range(6):
                    x = list(lmo(f, [rng.randint(0, 5) for _ in range(n)]).values)
                    if n >= 2 and rng.random() < 0.6:
                        i, j = rng.sample(range(n), 2)
                        d = rng.choice([1, 2, Fraction(1, 3), Fraction(rng.randint(1, 5), rng.randint(2, 7))])
                        x[i] += d
                        x[j] -= d
                    xs.append(x)
                got = verify_bases(f, xs)
                assert got == [verify_base(f, x) for x in xs] == [ref_verify_base(f, x) for x in xs]
                based += sum(got)
                total += len(got)
        assert total >= 300 and 0.2 < based / total < 0.8

    def test_slack_outside_the_field_bound_trips_the_assert(self):
        """The field width is computed from the vectors and from the range
        the declared kind allows f: here f jumps to 1000 on the pairs while
        its values at the empty set, the singletons, the triples and the
        ground set bound it by 0, so the fields would overflow."""
        f = SetFunctionOracle((0, 1, 2, 3), SUBMODULAR, True, True, lambda s: 1000 if len(s) == 2 else 0)
        with pytest.raises(AssertionError):
            verify_bases(f, [(0, 0, 0, 0)] * 3)


class TestOrientation:
    def test_validity(self):
        assert Orientation((0, 1, Fraction(1, 2))).is_valid()
        assert not Orientation((1.5,)).is_valid()

    def test_induced_load_triangle(self):
        g = triangle()
        ori = Orientation.from_mask(g, 0b111)  # every edge to its first endpoint
        assert ori.induced_load(g).values == (1, 1, 1)

    def test_half_shares_split_the_edge(self):
        g = single_edge()
        load = Orientation((Fraction(1, 2),)).induced_load(g)
        assert load.values == (Fraction(1, 2), Fraction(1, 2))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Orientation((1,)).induced_load(triangle())

    def test_valid_loads_are_bases(self):
        rng = random.Random(37)
        for _ in range(15):
            g = random_multigraph(rng, n_max=6, m_max=8)
            f = edge_count_fn(g)
            mask = rng.randrange(1 << g.m)
            assert verify_base(f, Orientation.from_mask(g, mask).induced_load(g))

    def test_every_vertex_is_an_integral_orientation_load(self):
        for g in (triangle(), star(), tri_pendant()):
            f = edge_count_fn(g)
            loads = {
                Orientation.from_mask(g, mask).induced_load(g).values
                for mask in range(1 << g.m)
            }
            for v in enumerate_base_vertices(f):
                assert v.values in loads


def orientation_load(g, w):
    """The load of the min-cost orientation: the greedy vertex of g's
    edge-count polytope, each edge to its lighter endpoint."""
    return lmo(edge_count_fn(g), w)


class TestOptimalOrientation:
    def test_single_edge(self):
        assert orientation_load(single_edge(), (5, 1)).values == (0, 1)

    def test_triangle_each_edge_to_lighter_endpoint(self):
        assert orientation_load(triangle(), (1, 2, 3)).values == (2, 1, 0)

    def test_star_light_center(self):
        assert orientation_load(star(), (0, 1, 1, 1)).values == (3, 0, 0, 0)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            orientation_load(triangle(), (1, 2))

    def test_beats_every_integral_orientation(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_multigraph(rng, n_max=6, m_max=8)
            w = [rng.randint(0, 9) for _ in range(g.n)]
            load = orientation_load(g, w)
            loads = [Orientation.from_mask(g, mask).induced_load(g) for mask in range(1 << g.m)]
            assert load in loads  # an integral orientation's load
            assert load.dot(w) == min(x.dot(w) for x in loads)
