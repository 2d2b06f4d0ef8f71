"""Weighted peeling passes and the iterated peeling density maximizers."""

import heapq
import math
import random
import time
import tracemalloc
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
    BaseVector,
    MultiGraph,
    PeelResult,
    SetFunctionOracle,
    contract,
    density_vector,
    dualize,
    edge_count_fn,
    graphic_rank_fn,
    supergreedy_pp,
    verify_bases,
    weighted_supergreedy,
)
from densefw.errors import OracleFlagError, Record
from densefw.setfn import SUPERMODULAR


def modular(ground, per_element):
    c = Fraction(per_element)
    return SetFunctionOracle(tuple(ground), SUPERMODULAR, True, True, lambda s: c * len(s))


def without_hooks(f, *hooks):
    """f as an oracle with only the named hooks: `without_hooks(f)` is
    peeled by the value scan, `without_hooks(f, "_gains")` by the gains scan."""
    return SetFunctionOracle(f.ground, f.kind, f.monotone, f.normalized, f._eval,
                             **{hook: getattr(f, hook) for hook in hooks})


def tuple_heap_peel(g, w):
    """Charikar's weighted degree peel with (key, vertex, degree) heap
    entries: the reference the one-int entries of the heap peel must
    reproduce on edge count, order and marginals alike."""
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


def peel_instance(rng):
    """A seeded multigraph with parallel edges and isolated vertices."""
    g = random_multigraph(rng, n_max=10, m_max=20)
    return MultiGraph(g.n + rng.randint(0, 2), g.edges + g.edges[:rng.randint(1, 3)])


def reference_greedy_pp(g, k):
    """Greedy++ as Boob et al. state it, over `tuple_heap_peel`: each round
    peels at the cumulative loads, and the first densest suffix of any round
    wins. The best set, its density, the averaged loads and each round's
    objective."""
    loads, best, best_set, objectives = [0] * g.n, None, None, []
    for r in range(1, k + 1):
        order, dhat = tuple_heap_peel(g, loads)
        loads = [a + b for a, b in zip(loads, dhat)]
        objectives.append(sum(x * x for x in loads) / (r * r))
        left = sum(dhat)
        for i, u in enumerate(order):
            if best is None or Fraction(left, g.n - i) > best:
                best, best_set = Fraction(left, g.n - i), frozenset(order[i:])
            left -= dhat[u]
    return best_set, best, tuple(Fraction(x, k) for x in loads), objectives


class TestWeightedGreedy:
    """Weighted degree peeling: Super-Greedy++'s peel on edge count."""

    def test_triangle_peels_in_index_order(self):
        r = weighted_supergreedy(edge_count_fn(triangle()), (0, 0, 0))
        assert r.order == (0, 1, 2)
        assert r.dhat.values == (2, 1, 0)

    def test_star_leaves_go_first(self):
        # hub at the top index: every leaf records 1, the hub records 0
        r = weighted_supergreedy(edge_count_fn(star_center_last()), (0, 0, 0, 0))
        assert r.order == (0, 1, 2, 3)
        assert r.dhat.values == (1, 1, 1, 0)

    def test_heavy_weight_overrides_degree(self):
        r = weighted_supergreedy(edge_count_fn(single_edge()), (10, 0))
        assert r.order == (1, 0)
        assert r.dhat.values == (0, 1)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            weighted_supergreedy(edge_count_fn(triangle()), (0, 0))

    @settings(deadline=None, max_examples=80)
    @given(multigraphs(n_max=8, m_max=14), st.data())
    def test_matches_tuple_heap_peel(self, g, data):
        signed = st.integers(-12, 12)
        spread = st.one_of(st.integers(0, 2), st.integers(0, 10**18))
        for weights in (signed, spread):
            w = data.draw(st.lists(weights, min_size=g.n, max_size=g.n))
            r = weighted_supergreedy(edge_count_fn(g), w)
            assert (r.order, r.dhat.values) == tuple_heap_peel(g, w)
        w = [0] * g.n  # Greedy++ cumulative loads
        for _ in range(8):
            r = weighted_supergreedy(edge_count_fn(g), w)
            assert (r.order, r.dhat.values) == tuple_heap_peel(g, w)
            w = [a + b for a, b in zip(w, r.dhat.values)]

    @settings(deadline=None, max_examples=50)
    @given(multigraphs())
    def test_recorded_vector_is_an_orientation_load(self, g):
        rng = random.Random(g.n * 131 + g.m)
        w = [rng.randint(0, 8) for _ in range(g.n)]
        r = weighted_supergreedy(edge_count_fn(g), w)
        assert sorted(r.order) == list(range(g.n))
        assert sum(r.dhat.values) == g.m
        # each edge is charged to whichever endpoint peels first
        peel_pos = {v: i for i, v in enumerate(r.order)}
        load = [0] * g.n
        for u, v in g.edges:
            load[u if peel_pos[u] < peel_pos[v] else v] += 1
        assert tuple(load) == r.dhat.values
        assert verify_bases(edge_count_fn(g), [r.dhat])[0]

    @settings(deadline=None, max_examples=30)
    @given(multigraphs())
    def test_suffix_densities_are_exact(self, g):
        """The marginals summed over each suffix of the order are f of it,
        which is how iterated peeling reads suffix densities."""
        f = edge_count_fn(g)
        r = weighted_supergreedy(f, [0] * g.n)
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
        """On edge count the peel is Charikar's weighted greedy peel, by
        the heap and by both scans."""
        rng = random.Random(53)
        for _ in range(20):
            g = random_multigraph(rng, n_max=6, m_max=10)
            w = [rng.randint(0, 7) for _ in range(g.n)]
            f = edge_count_fn(g)
            for h in (f, without_hooks(f), without_hooks(f, "_gains")):
                b = weighted_supergreedy(h, w)
                assert (b.order, b.dhat.values) == tuple_heap_peel(g, w)

    def test_heap_peel_equals_both_scans(self):
        """Edge count's heap peel gives the value scan's and the gains scan's
        order and marginals on 400 seeded multigraphs with parallel edges
        and isolated vertices, under tied, signed, huge, Fraction and float
        weights."""
        rng = random.Random(71)
        draws = (
            lambda: rng.randint(0, 2),
            lambda: rng.randint(-12, 12),
            lambda: rng.randint(0, 10**18),
            lambda: Fraction(rng.randint(-6, 6)),
            lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
            lambda: rng.randint(-8, 8) / 4,
        )
        for t in range(400):
            f = edge_count_fn(peel_instance(rng))
            draw = draws[t % len(draws)]
            w = [draw() for _ in f.ground]
            if t % 12 == 5:  # ints and Fractions mixed
                w[0] = rng.randint(0, 3)
            want = weighted_supergreedy(f, w)
            for h in (without_hooks(f), without_hooks(f, "_gains")):
                got = weighted_supergreedy(h, w)
                assert (got.order, got.dhat) == (want.order, want.dhat)

    def test_every_peel_ties_to_the_smaller_ground_position(self):
        """On an unsorted ground with every key tied, the heap, the gains
        scan and the value scan all peel in ground order, not element order."""
        f = SetFunctionOracle((2, 0, 1), SUPERMODULAR, True, True, len,
                              _gains=lambda elems, base: lambda mask, j: 1,
                              _peel=lambda: ([1, 1, 1], [[], [], []]))
        for h in (f, without_hooks(f, "_gains"), without_hooks(f)):
            got = weighted_supergreedy(h, [0, 0, 0])
            assert (got.order, got.dhat) == ((2, 0, 1), BaseVector((2, 0, 1), (1, 1, 1)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("hooks", [("_gains", "_peel"), ("_gains",), ()],
                             ids=["heap", "gains scan", "value scan"])
    def test_every_peel_refuses_a_weight_that_is_not_finite(self, hooks, bad):
        """On the path 0-1-2 the heap, the gains scan and the value scan all
        refuse a NaN or infinite weight with one ValueError naming the first
        such weight; a finite int beyond the float range is still a weight."""
        f = without_hooks(edge_count_fn(MultiGraph(3, ((0, 1), (1, 2)))), *hooks)
        with pytest.raises(ValueError, match=f"^weight 0 is {bad}, not a finite number$"):
            weighted_supergreedy(f, [bad, 0, 0])
        with pytest.raises(ValueError, match=f"^weight 1 is {bad}, not a finite number$"):
            weighted_supergreedy(f, [0, bad, math.nan])
        assert weighted_supergreedy(f, [10**400, 0, 0]).order == (2, 1, 0)

    def test_marginals_telescope_to_full_value(self):
        f = contract(edge_count_fn(three_tier()), {0})
        r = weighted_supergreedy(f, [0] * len(f.ground))
        assert sum(r.dhat.values) == f.value(f.ground)


class TestGreedyPP:
    """Greedy++: Super-Greedy++ on edge count."""

    def test_three_tier_finds_the_core(self):
        res = supergreedy_pp(edge_count_fn(three_tier()), 100)
        assert res.best_density == Fraction(3, 2)
        assert res.best_set == frozenset({0, 1, 2, 3})

    def test_single_edge_one_round(self):
        res = supergreedy_pp(edge_count_fn(single_edge()), 1)
        assert res.best_density == Fraction(1, 2)
        assert res.best_set == frozenset({0, 1})

    def test_star_whole_graph_wins(self):
        res = supergreedy_pp(edge_count_fn(star()), 10)
        assert res.best_density == Fraction(3, 4)
        assert res.best_set == frozenset({0, 1, 2, 3})

    def test_one_round_equals_single_unweighted_peel(self):
        rng = random.Random(59)
        for _ in range(20):
            g = random_multigraph(rng)
            f = edge_count_fn(g)
            order = weighted_supergreedy(f, [0] * g.n).order
            best = max(Fraction(f.value(order[i:]), g.n - i) for i in range(g.n))
            res = supergreedy_pp(f, 1)
            assert res.best_density == best
            # the first suffix reaching the maximum is the one reported
            first = next(i for i in range(g.n) if Fraction(f.value(order[i:]), g.n - i) == best)
            assert res.best_set == frozenset(order[first:])

    def test_sparse_round_is_linear(self):
        """One round on many isolated vertices and one edge, where the suffix
        density rises at every step, costs about one peel."""
        n = 20000
        f = edge_count_fn(MultiGraph(n, ((n - 2, n - 1),)))
        t0 = time.perf_counter()
        weighted_supergreedy(f, [0] * n)
        peel_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        res = supergreedy_pp(f, 1)
        round_s = time.perf_counter() - t0
        assert res.best_set == frozenset({n - 2, n - 1})
        assert round_s <= 10 * peel_s

    def test_round_allocates_no_more_than_its_peel(self):
        """A run reads its densest suffix off the peel's own positions: it
        builds no vertex-to-position map and no copy of the ground set, so
        one round peaks within one boxed int per vertex of the lone peel
        (such a map and a ground copy add about 16 MB)."""
        n = 10**5 + 1
        g = MultiGraph(n, ((0, n - 1),))
        g.degrees, g.adjacency  # cached outside both measurements
        f = edge_count_fn(g)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        excess = peak(lambda: supergreedy_pp(f, 1)) - peak(lambda: weighted_supergreedy(f, [0] * n))
        assert excess < 36 * n

    def test_cumulative_loads_identity(self):
        f = edge_count_fn(tri_pendant())
        w = [0] * len(f.ground)
        for k in range(1, 8):
            d = weighted_supergreedy(f, w).dhat
            w = [x + y for x, y in zip(w, d.values)]
            assert tuple(Fraction(x, k) for x in w) == supergreedy_pp(f, k).x.values

    def test_averaged_vector_is_a_base(self):
        f = edge_count_fn(three_tier())
        for k in range(1, 13):
            assert verify_bases(f, [supergreedy_pp(f, k).x])[0]

    def test_trace_fields(self):
        f = edge_count_fn(tri_pendant())
        ref = density_vector(f)
        for k in range(1, 6):
            res = supergreedy_pp(f, k, ref=ref)
            assert [rec.gamma for rec in res.trace.records] == [1.0 / i for i in range(1, k + 1)]
            rec = res.trace.records[-1]
            assert rec.objective == pytest.approx(float(sum(v * v for v in res.x.values)))
            assert rec.dist_ref == pytest.approx(math.dist(res.x.values, ref.values))

    def test_early_stop(self):
        f = edge_count_fn(three_tier())
        ref = density_vector(f)
        res = supergreedy_pp(f, 100, ref=ref, stop_dist=0.05)
        assert len(res.trace.records) < 100
        assert res.trace.records[-1].dist_ref <= 0.05

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            supergreedy_pp(edge_count_fn(triangle()), 0)

    def test_reference_of_wrong_length_rejected(self):
        f = edge_count_fn(MultiGraph(3, ((0, 1), (1, 2))))
        with pytest.raises(ValueError, match="reference has 2 elements, expected 3"):
            supergreedy_pp(f, 5, ref=[1, 1], stop_dist=0.5)
        with pytest.raises(ValueError, match="reference has 4 elements, expected 3"):
            supergreedy_pp(without_hooks(f), 5, ref=[1, 1, 1, 1])


class TestSupergreedyPP:
    def test_matches_greedy_pp_on_edge_counts(self):
        """Greedy++ is Super-Greedy++ on edge count, run for run: the same
        set, density, iterate and objectives as Greedy++ stated directly
        over Charikar's peel, on 200 multigraphs, each with a parallel edge,
        over 1 to 30 rounds."""
        rng = random.Random(61)
        for _ in range(200):
            g = random_multigraph(rng, n_max=12, m_max=24)
            g = MultiGraph(g.n, g.edges + (rng.choice(g.edges),))
            k = rng.randint(1, 30)
            res = supergreedy_pp(edge_count_fn(g), k)
            best_set, best, x, objectives = reference_greedy_pp(g, k)
            assert (res.best_set, res.best_density, res.x.values) == (best_set, best, x)
            assert [r.objective for r in res.trace.records] == objectives

    def test_heap_runs_equal_both_scans(self):
        """Whole runs of the heap peel and of both scans on edge count agree
        in every field, over 1 to 40 rounds of 60 seeded multigraphs with
        parallel edges and isolated vertices."""
        rng = random.Random(67)
        for _ in range(60):
            f = edge_count_fn(peel_instance(rng))
            k = rng.randint(1, 40)
            ref = [rng.randint(0, 4) for _ in f.ground]
            runs = [supergreedy_pp(h, k, ref=ref) for h in (f, without_hooks(f), without_hooks(f, "_gains"))]
            assert runs[0] == runs[1] == runs[2]

    def test_modular_oracle_is_flat(self):
        res = supergreedy_pp(modular((0, 1, 2), 2), 1)
        assert res.best_density == 2
        assert res.best_set == frozenset({0, 1, 2})

    def test_three_tier_oracle(self):
        res = supergreedy_pp(edge_count_fn(three_tier()), 100)
        assert res.best_density == Fraction(3, 2)
        assert res.best_set == frozenset({0, 1, 2, 3})

    def test_orders_list_elements_of_a_ground_that_is_not_a_range(self):
        """The peel a run queries lists positions; the public order, best
        set and iterate are in the oracle's own elements."""
        f = contract(edge_count_fn(three_tier()), {0})
        assert f.ground == (1, 2, 3, 4, 5, 6, 7)
        r = weighted_supergreedy(f, (3, 0, 1, 0, 2, 0, 0))
        assert sorted(r.order) == list(f.ground)
        assert r.order == (7, 6, 4, 5, 2, 3, 1)
        assert r.dhat == BaseVector(f.ground, (1, 3, 2, 2, 0, 2, 1))
        res = supergreedy_pp(f, 5)
        assert (res.best_set, res.best_density) == (frozenset({1, 2, 3}), 2)
        assert res.x == BaseVector(f.ground, tuple(map(Fraction, ("11/5", "2", "9/5", "7/5", "6/5", "7/5", "1"))))

    def test_run_asks_the_oracle_for_each_set_once(self):
        """Repeated rounds are served from the run's own cache, even for an
        oracle that remembers nothing itself."""
        edges = edge_count_fn(three_tier())
        asked = []
        f = SetFunctionOracle(
            edges.ground, SUPERMODULAR, True, True, lambda s: asked.append(s) or edges._eval(s))
        res = supergreedy_pp(f, 6)
        assert len(res.trace.records) == 6
        assert res.x == supergreedy_pp(edges, 6).x
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
        """With _gains, a whole run evaluates f(ground) and nothing else;
        with _peel as well, it evaluates nothing."""
        for f in (edge_count_fn(three_tier()), dualize(graphic_rank_fn(tri_pendant()))):
            asked = []
            counted = SetFunctionOracle(
                f.ground, f.kind, True, True, lambda s, ev=f._eval: asked.append(s) or ev(s), f._gains)
            assert supergreedy_pp(counted, 9).x == supergreedy_pp(f, 9).x
            assert asked == [frozenset(f.ground)]
        f = edge_count_fn(three_tier())
        counted = SetFunctionOracle(
            f.ground, f.kind, True, True, lambda s: asked.append(s) or f._eval(s), f._gains, _peel=f._peel)
        asked.clear()
        assert supergreedy_pp(counted, 9) == supergreedy_pp(f, 9)
        assert asked == []

    def test_run_builds_no_peel_result(self, monkeypatch):
        """A run's LMO turns each round's positions into one BaseVector;
        only weighted_supergreedy builds a PeelResult, by heap or scan."""
        built = []

        def counted(self, *values):
            built.append(values)
            Record.__init__(self, *values)

        monkeypatch.setattr(PeelResult, "__init__", counted)
        f = edge_count_fn(three_tier())
        for h in (f, without_hooks(f, "_gains"), without_hooks(f)):
            assert supergreedy_pp(h, 9).best_set == frozenset({0, 1, 2, 3})
            assert built == []
        weighted_supergreedy(f, [0] * len(f.ground))
        assert len(built) == 1

    def test_converges_to_density_vector(self):
        f = edge_count_fn(tri_pendant())
        ref = density_vector(f)
        res = supergreedy_pp(f, 200, ref=ref, stop_dist=0.05)
        assert res.trace.records[-1].dist_ref <= 0.05
