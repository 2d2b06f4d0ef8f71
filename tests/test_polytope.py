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
    Orientation,
    edge_count_fn,
    enumerate_base_vertices,
    graphic_rank_fn,
    lmo,
    optimal_orientation,
    verify_base,
)
from densefw.errors import GroundSetTooLargeError, OracleFlagError
from densefw.polytope import VERTEX_ENUM_CAP
from densefw.setfn import SetFunctionOracle


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

    def test_float_tolerance(self):
        f = graphic_rank_fn(triangle())
        x = (0.6666666666666666,) * 3
        assert verify_base(f, x, tol=Fraction(1, 10 ** 9))
        assert not verify_base(f, x)

    def test_size_cap(self):
        from densefw import MultiGraph

        f = edge_count_fn(MultiGraph(21, ()))
        with pytest.raises(GroundSetTooLargeError):
            verify_base(f, (0,) * 21)


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


class TestOptimalOrientation:
    def test_single_edge(self):
        _, load = optimal_orientation(single_edge(), (5, 1))
        assert load.values == (0, 1)

    def test_triangle_each_edge_to_lighter_endpoint(self):
        _, load = optimal_orientation(triangle(), (1, 2, 3))
        assert load.values == (2, 1, 0)

    def test_star_light_center(self):
        _, load = optimal_orientation(star(), (0, 1, 1, 1))
        assert load.values == (3, 0, 0, 0)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            optimal_orientation(triangle(), (1, 2))

    def test_beats_every_integral_orientation(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_multigraph(rng, n_max=6, m_max=8)
            w = [rng.randint(0, 9) for _ in range(g.n)]
            ori, load = optimal_orientation(g, w)
            assert ori.is_valid()
            best = min(
                Orientation.from_mask(g, mask).induced_load(g).dot(w)
                for mask in range(1 << g.m)
            )
            assert load.dot(w) == best

    def test_agrees_with_greedy_lmo(self):
        rng = random.Random(43)
        for _ in range(30):
            g = random_multigraph(rng)
            w = [rng.randint(0, 12) for _ in range(g.n)]
            _, load = optimal_orientation(g, w)
            assert load.values == lmo(edge_count_fn(g), w).values
