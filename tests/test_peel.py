"""Weighted peeling passes and the iterated peeling density maximizers."""

import heapq
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    multigraphs,
    random_multigraph,
    single_edge,
    star,
    star_center_last,
    three_tier,
    tri_pendant,
    triangle,
)
from densefw import (
    MultiGraph,
    SetFunctionOracle,
    contract,
    density_vector,
    dualize,
    edge_count_fn,
    graphic_rank_fn,
    greedy_pp,
    supergreedy_pp,
    verify_base,
    weighted_greedy,
    weighted_supergreedy,
)
from densefw.errors import OracleFlagError
from densefw.setfn import SUPERMODULAR


def modular(ground, per_element):
    c = Fraction(per_element)
    return SetFunctionOracle(tuple(ground), SUPERMODULAR, True, True, lambda s: c * len(s))


def tuple_heap_peel(g, w):
    """weighted_greedy with (key, vertex, degree) heap entries: the reference
    its one-int entries must reproduce, order and marginals alike."""
    deg = list(g.degrees)
    alive = [True] * g.n
    heap = [(w[u] + deg[u], u, deg[u]) for u in range(g.n)]
    heapq.heapify(heap)
    order, dhat = [], [0] * g.n
    for _ in range(g.n):
        while True:
            _, u, du = heapq.heappop(heap)
            if alive[u] and du == deg[u]:
                break
        order.append(u)
        dhat[u] = deg[u]
        alive[u] = False
        for x in g.adjacency[u]:
            if alive[x]:
                deg[x] -= 1
                heapq.heappush(heap, (w[x] + deg[x], x, deg[x]))
    return tuple(order), tuple(dhat)


class TestWeightedGreedy:
    def test_triangle_peels_in_index_order(self):
        r = weighted_greedy(triangle(), (0, 0, 0))
        assert r.order == (0, 1, 2)
        assert r.dhat.values == (2, 1, 0)

    def test_star_leaves_go_first(self):
        # hub at the top index: every leaf records 1, the hub records 0
        r = weighted_greedy(star_center_last(), (0, 0, 0, 0))
        assert r.order == (0, 1, 2, 3)
        assert r.dhat.values == (1, 1, 1, 0)

    def test_heavy_weight_overrides_degree(self):
        r = weighted_greedy(single_edge(), (10, 0))
        assert r.order == (1, 0)
        assert r.dhat.values == (0, 1)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            weighted_greedy(triangle(), (0, 0))

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.0, 1.5])
    def test_non_int_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="int weights"):
            weighted_greedy(triangle(), (0, bad, 0))

    @settings(deadline=None, max_examples=80)
    @given(multigraphs(n_max=8, m_max=14), st.data())
    def test_matches_tuple_heap_peel(self, g, data):
        signed = st.integers(-12, 12)
        spread = st.one_of(st.integers(0, 2), st.integers(0, 10**18))
        for weights in (signed, spread):
            w = data.draw(st.lists(weights, min_size=g.n, max_size=g.n))
            r = weighted_greedy(g, w)
            assert (r.order, r.dhat.values) == tuple_heap_peel(g, w)
        w = [0] * g.n  # Greedy++ cumulative loads
        for _ in range(8):
            r = weighted_greedy(g, w)
            assert (r.order, r.dhat.values) == tuple_heap_peel(g, w)
            w = [a + b for a, b in zip(w, r.dhat.values)]

    @settings(deadline=None, max_examples=50)
    @given(multigraphs())
    def test_recorded_vector_is_an_orientation_load(self, g):
        rng = random.Random(g.n * 131 + g.m)
        w = [rng.randint(0, 8) for _ in range(g.n)]
        r = weighted_greedy(g, w)
        assert sorted(r.order) == list(range(g.n))
        assert sum(r.dhat.values) == g.m
        # each edge is charged to whichever endpoint peels first
        peel_pos = {v: i for i, v in enumerate(r.order)}
        load = [0] * g.n
        for u, v in g.edges:
            load[u if peel_pos[u] < peel_pos[v] else v] += 1
        assert tuple(load) == r.dhat.values
        assert verify_base(edge_count_fn(g), r.dhat)

    @settings(deadline=None, max_examples=30)
    @given(multigraphs())
    def test_suffix_densities_are_exact(self, g):
        """The marginals summed over each suffix of the order are f of it,
        which is how iterated peeling reads suffix densities."""
        f = edge_count_fn(g)
        r = weighted_greedy(g, [0] * g.n)
        for i in range(g.n):
            suffix = r.order[i:]
            assert sum(r.dhat.values[u] for u in suffix) == f.value(suffix)


class TestWeightedSupergreedy:
    def test_matches_degree_peeling_on_triangle(self):
        r = weighted_supergreedy(edge_count_fn(triangle()), (0, 0, 0))
        assert r.order == (0, 1, 2)
        assert r.dhat.values == (2, 1, 0)

    def test_star_leaves_first(self):
        r = weighted_supergreedy(edge_count_fn(star_center_last()), (0, 0, 0, 0))
        assert r.dhat.values == (1, 1, 1, 0)

    def test_modular_oracle_records_the_constant(self):
        f = modular((0, 1, 2, 3), 3)
        r = weighted_supergreedy(f, (0, 0, 0, 0))
        assert r.dhat.values == (3, 3, 3, 3)
        assert sum(r.dhat.values) == f.value(f.ground)

    def test_needs_supermodular_oracle(self):
        with pytest.raises(OracleFlagError):
            weighted_supergreedy(graphic_rank_fn(triangle()), (0, 0, 0))

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            weighted_supergreedy(edge_count_fn(triangle()), (0,))

    def test_matches_weighted_greedy_on_edge_counts(self):
        rng = random.Random(53)
        for _ in range(20):
            g = random_multigraph(rng, n_max=6, m_max=10)
            w = [rng.randint(0, 7) for _ in range(g.n)]
            a = weighted_greedy(g, w)
            b = weighted_supergreedy(edge_count_fn(g), w)
            assert a.order == b.order
            assert a.dhat.values == b.dhat.values

    def test_marginals_telescope_to_full_value(self):
        f = contract(edge_count_fn(three_tier()), {0})
        r = weighted_supergreedy(f, [0] * len(f.ground))
        assert sum(r.dhat.values) == f.value(f.ground)


class TestGreedyPP:
    def test_three_tier_finds_the_core(self):
        res = greedy_pp(three_tier(), 100)
        assert res.best_density == Fraction(3, 2)
        assert res.best_set == frozenset({0, 1, 2, 3})

    def test_single_edge_one_round(self):
        res = greedy_pp(single_edge(), 1)
        assert res.best_density == Fraction(1, 2)
        assert res.best_set == frozenset({0, 1})

    def test_star_whole_graph_wins(self):
        res = greedy_pp(star(), 10)
        assert res.best_density == Fraction(3, 4)
        assert res.best_set == frozenset({0, 1, 2, 3})

    def test_one_round_equals_single_unweighted_peel(self):
        rng = random.Random(59)
        for _ in range(20):
            g = random_multigraph(rng)
            f = edge_count_fn(g)
            order = weighted_greedy(g, [0] * g.n).order
            best = max(Fraction(f.value(order[i:]), g.n - i) for i in range(g.n))
            res = greedy_pp(g, 1)
            assert res.best_density == best
            # the first suffix reaching the maximum is the one reported
            first = next(i for i in range(g.n) if Fraction(f.value(order[i:]), g.n - i) == best)
            assert res.best_set == frozenset(order[first:])

    def test_sparse_round_is_linear(self):
        """One round on many isolated vertices and one edge, where the suffix
        density rises at every step, costs about one peel."""
        n = 20000
        g = MultiGraph(n, ((n - 2, n - 1),))
        t0 = time.perf_counter()
        weighted_greedy(g, [0] * n)
        peel_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        res = greedy_pp(g, 1)
        round_s = time.perf_counter() - t0
        assert res.best_set == frozenset({n - 2, n - 1})
        assert round_s <= 10 * peel_s

    def test_cumulative_loads_identity(self):
        g = tri_pendant()
        w = [0] * g.n
        for k in range(1, 8):
            d = weighted_greedy(g, w).dhat
            w = [x + y for x, y in zip(w, d.values)]
            assert tuple(Fraction(x, k) for x in w) == greedy_pp(g, k).x.values

    def test_averaged_vector_is_a_base(self):
        g = three_tier()
        f = edge_count_fn(g)
        for k in range(1, 13):
            assert verify_base(f, greedy_pp(g, k).x)

    def test_trace_fields(self):
        g = tri_pendant()
        ref = density_vector(edge_count_fn(g))
        for k in range(1, 6):
            res = greedy_pp(g, k, ref=ref)
            assert [rec.gamma for rec in res.trace.records] == [1.0 / i for i in range(1, k + 1)]
            rec = res.trace.records[-1]
            assert rec.objective == pytest.approx(float(sum(v * v for v in res.x.values)))
            assert rec.dist_ref == pytest.approx(math.dist(res.x.values, ref.values))

    def test_early_stop(self):
        g = three_tier()
        ref = density_vector(edge_count_fn(g))
        res = greedy_pp(g, 100, ref=ref, stop_dist=0.05)
        assert res.iterations < 100
        assert res.trace.records[-1].dist_ref <= 0.05

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            greedy_pp(triangle(), 0)

    def test_json_shape(self):
        d = greedy_pp(star(), 2).to_json_dict()
        assert d == {"best_set": [0, 1, 2, 3], "best_density": "3/4", "iterations": 2}


class TestSupergreedyPP:
    def test_matches_greedy_pp_on_edge_counts(self):
        rng = random.Random(61)
        for _ in range(8):
            g = random_multigraph(rng, n_max=6, m_max=9)
            a = greedy_pp(g, 3)
            b = supergreedy_pp(edge_count_fn(g), 3)
            assert a.best_set == b.best_set
            assert a.best_density == b.best_density
            assert a.x == b.x

    def test_modular_oracle_is_flat(self):
        res = supergreedy_pp(modular((0, 1, 2), 2), 1)
        assert res.best_density == 2
        assert res.best_set == frozenset({0, 1, 2})

    def test_three_tier_oracle(self):
        res = supergreedy_pp(edge_count_fn(three_tier()), 100)
        assert res.best_density == Fraction(3, 2)
        assert res.best_set == frozenset({0, 1, 2, 3})

    def test_run_asks_the_oracle_for_each_set_once(self):
        """Repeated rounds are served from the run's own cache, even for an
        oracle that remembers nothing itself."""
        edges = edge_count_fn(three_tier())
        asked = []
        f = SetFunctionOracle(
            edges.ground, SUPERMODULAR, True, True, lambda s: asked.append(s) or edges._eval(s))
        res = supergreedy_pp(f, 6)
        assert res.iterations == 6
        assert res.x == greedy_pp(three_tier(), 6).x
        assert len(asked) == len(set(asked))

    def test_hooked_runs_match_hookless_oracles_round_by_round(self):
        """Marginals read from _gains give the run the cached evaluations give:
        each round's order and dhat at the run's own weights, and best_set,
        best_density and x after every round."""
        rng = random.Random(127)
        for t in range(32):
            g = random_multigraph(rng, n_max=8, m_max=10)
            g = MultiGraph(g.n + 1, g.edges + g.edges[:1] * rng.randint(1, 2))
            f = edge_count_fn(g) if t % 2 else dualize(graphic_rank_fn(g))
            bare = SetFunctionOracle(f.ground, f.kind, True, True, f._eval)
            assert f._gains is not None and bare._gains is None
            for k in range(1, 7):
                a, b = supergreedy_pp(f, k), supergreedy_pp(bare, k)
                assert (a.best_set, a.best_density, a.x) == (b.best_set, b.best_density, b.x)
                w = [k * v for v in a.x.values]  # the weights of round k + 1
                pa, pb = weighted_supergreedy(f, w), weighted_supergreedy(bare, w)
                assert (pa.order, pa.dhat) == (pb.order, pb.dhat)

    def test_hooked_run_evaluates_one_set(self):
        """With _gains, a whole run evaluates f(ground) and nothing else."""
        for f in (edge_count_fn(three_tier()), dualize(graphic_rank_fn(tri_pendant()))):
            asked = []
            counted = SetFunctionOracle(
                f.ground, f.kind, True, True, lambda s, ev=f._eval: asked.append(s) or ev(s), f._gains)
            assert supergreedy_pp(counted, 9).x == supergreedy_pp(f, 9).x
            assert asked == [frozenset(f.ground)]

    def test_converges_to_density_vector(self):
        f = edge_count_fn(tri_pendant())
        ref = density_vector(f)
        res = supergreedy_pp(f, 200, ref=ref, stop_dist=0.05)
        assert res.trace.records[-1].dist_ref <= 0.05
