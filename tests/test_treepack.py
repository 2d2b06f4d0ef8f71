"""Spanning tree packing, graph strength, and ideal-load cross-checks."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest

from conftest import (
    canonical_graphs,
    k4,
    kruskal_by_key,
    p3,
    random_connected_graph,
    single_edge,
    star,
    three_tier,
    tri_pendant,
    triangle,
)
from densefw import (
    STANDARD,
    MultiGraph,
    decompose_submodular_deletion,
    frank_wolfe,
    fw_tree_pack,
    graphic_rank_fn,
    harmonic_bound,
    ideal_loads,
    lmo,
    tnw_ideal_loads,
    tnw_strength,
    verify_base,
)
from densefw.errors import DisconnectedGraphError, GroundSetTooLargeError
from densefw.treepack import PARTITION_CAP, _min_partition


def cycle(n):
    return MultiGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def two_islands():
    return MultiGraph(4, ((0, 1), (2, 3)))


def exact_pack(g, iterations):
    """fw_tree_pack's run in exact arithmetic: averaging Frank-Wolfe with the
    MST oracle, first queried at the MST under all-zero weights."""
    f = graphic_rank_fn(g)
    return frank_wolfe(partial(lmo, f), lmo(f, [0] * g.m).values, iterations=iterations, exact=True)


class TestIdealLoads:
    def test_triangle(self):
        assert ideal_loads(triangle()).values == (Fraction(2, 3),) * 3

    def test_pendant_graph(self):
        assert ideal_loads(tri_pendant()).values == (
            Fraction(2, 3), Fraction(2, 3), Fraction(2, 3), Fraction(1))

    def test_k4(self):
        assert ideal_loads(k4()).values == (Fraction(1, 2),) * 6

    def test_three_tier_layers(self):
        assert ideal_loads(three_tier()).values == (
            (Fraction(1, 2),) * 6 + (Fraction(2, 3),) * 3 + (Fraction(1), Fraction(1)))

    def test_trees_carry_unit_loads(self):
        assert ideal_loads(p3()).values == (Fraction(1), Fraction(1))
        assert ideal_loads(star()).values == (Fraction(1),) * 3

    def test_sums_to_spanning_tree_size(self):
        rng = random.Random(41)
        graphs = [g for _, g in canonical_graphs()]
        graphs += [random_connected_graph(rng) for _ in range(10)]
        for g in graphs:
            loads = ideal_loads(g)
            assert sum(loads.values) == g.n - 1
            assert verify_base(graphic_rank_fn(g), loads)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            ideal_loads(two_islands())

    def test_size_cap(self):
        with pytest.raises(GroundSetTooLargeError):
            ideal_loads(cycle(21))


class TestStrength:
    def test_frozen_values(self):
        assert tnw_strength(triangle()) == Fraction(3, 2)
        assert tnw_strength(tri_pendant()) == Fraction(1)
        assert tnw_strength(p3()) == Fraction(1)
        assert tnw_strength(star()) == Fraction(1)
        assert tnw_strength(k4()) == Fraction(2)
        assert tnw_strength(single_edge()) == Fraction(1)

    def test_first_deletion_ratio_is_strength(self):
        for name, g in canonical_graphs():
            assert decompose_submodular_deletion(graphic_rank_fn(g)).densities[0] == tnw_strength(g), name

    def test_max_load_is_reciprocal_strength(self):
        for name, g in canonical_graphs():
            assert max(ideal_loads(g).values) == 1 / tnw_strength(g), name

    def test_errors(self):
        with pytest.raises(DisconnectedGraphError):
            tnw_strength(two_islands())
        with pytest.raises(ValueError):
            tnw_strength(MultiGraph(1, ()))
        with pytest.raises(GroundSetTooLargeError):
            tnw_strength(cycle(11))


def _partitions(n: int):
    """Every set partition of range(n) as a tuple of sorted blocks: each
    partition of range(n - 1) with n - 1 added to one of its blocks or
    placed in a block of its own."""
    if n == 0:
        yield ()
        return
    last = n - 1
    for parts in _partitions(last):
        for i, block in enumerate(parts):
            yield parts[:i] + (block + (last,),) + parts[i + 1 :]
        yield parts + ((last,),)


def fraction_min_partition(g, edge_ids):
    """Reference for _min_partition, sharing no code with it: each partition
    from the recursive enumerator, relabelled and rescanned edge by edge,
    tallied by (crossing, parts); the least (Fraction(crossing, parts - 1),
    -parts) wins. Returns tau, the finest minimizing partition, each edge's
    pair of blocks, and how many partitions reach tau."""
    verts = sorted({v for i in edge_ids for v in g.edges[i]})
    local = {v: i for i, v in enumerate(verts)}
    ends = [(local[g.edges[i][0]], local[g.edges[i][1]]) for i in edge_ids]
    block_of = [0] * len(verts)
    first, count = {}, {}  # by (crossing, parts): the first such partition, and how many
    for parts in _partitions(len(verts)):
        if len(parts) < 2:
            continue
        for b, part in enumerate(parts):
            for v in part:
                block_of[v] = b
        pair = (sum(1 for u, v in ends if block_of[u] != block_of[v]), len(parts))
        first.setdefault(pair, parts)
        count[pair] = count.get(pair, 0) + 1
    best = min(first, key=lambda pair: (Fraction(pair[0], pair[1] - 1), -pair[1]))
    assert count[best] == 1
    tau = Fraction(best[0], best[1] - 1)
    block_of = {v: b for b, part in enumerate(first[best]) for v in part}
    reach = sum(c for (x, p), c in count.items() if Fraction(x, p - 1) == tau)
    return tau, first[best], [(block_of[u], block_of[v]) for u, v in ends], reach


class TestPartitionOracle:
    @pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877), (8, 4140)])
    def test_partitions_are_the_bell_number_of_set_partitions(self, n, bell):
        seen = set()
        for parts in _partitions(n):
            assert all(list(b) == sorted(b) and b for b in parts)
            assert sorted(v for b in parts for v in b) == list(range(n))
            seen.add(frozenset(frozenset(b) for b in parts))
        assert len(seen) == bell
        assert sum(1 for _ in _partitions(n)) == bell

    def test_matches_rank_decomposition_on_named_instances(self):
        for name, g in canonical_graphs():
            assert tnw_ideal_loads(g).values == ideal_loads(g).values, name

    def test_matches_on_random_connected_graphs(self):
        rng = random.Random(43)
        for _ in range(12):
            g = random_connected_graph(rng)
            assert tnw_ideal_loads(g).values == ideal_loads(g).values

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            tnw_ideal_loads(two_islands())

    def test_integer_scan_matches_the_fraction_scan(self):
        rng = random.Random(2027)
        tied = 0
        for i in range(220):
            g = random_connected_graph(rng, n_max=8, extra_max=5)
            ids = range(g.m) if i % 2 else sorted(rng.sample(range(g.m), rng.randint(1, g.m)))
            tau, parts, ends, reach = fraction_min_partition(g, ids)
            assert _min_partition(g, ids) == (tau, parts, ends)
            tied += reach > 1
        assert tied >= 50  # several partitions share tau, so the tie rule decides
        for n, count in ((9, 3), (PARTITION_CAP, 2)):  # at and below the cap, on every edge
            for _ in range(count):
                g = random_connected_graph(rng, n_max=n, extra_max=8)
                while g.n != n:
                    g = random_connected_graph(rng, n_max=n, extra_max=8)
                tau, parts, ends, _ = fraction_min_partition(g, range(g.m))
                assert _min_partition(g, range(g.m)) == (tau, parts, ends)


class TestGreedyPacking:
    def test_tree_instances_are_immediate_fixed_points(self):
        for g in (p3(), star()):
            loads, trace = exact_pack(g, 4)
            assert loads.values == (Fraction(1),) * g.m
            assert all(r.objective == float(g.n - 1) for r in trace.records)

    def test_triangle_rotates_to_exact_answer_in_three_trees(self):
        loads, _ = exact_pack(triangle(), 3)
        assert loads.values == (Fraction(2, 3),) * 3

    def test_triangle_long_run_near_ideal(self):
        ref = ideal_loads(triangle())
        loads, trace = fw_tree_pack(triangle(), 10_000, ref=ref)
        assert trace.records[-1].dist_ref <= 0.02
        assert math.dist(loads.values, ref.values) <= 0.02

    def test_pendant_bridge_saturates_every_iterate(self):
        g = tri_pendant()
        for k in range(1, 61):
            loads, _ = fw_tree_pack(g, k)
            assert loads.values[3] == 1.0

    def test_iterates_stay_in_the_polytope_box(self):
        g = k4()
        for k in range(1, 51):
            loads, _ = fw_tree_pack(g, k)
            assert abs(sum(loads.values) - (g.n - 1)) < 1e-9
            assert all(-1e-12 <= v <= 1 + 1e-12 for v in loads.values)

    def test_greedy_is_averaging_frank_wolfe(self):
        """Literal greedy packing through a reference Kruskal alone: the
        first tree is the MST under the indicator of the zero-weight MST,
        each later one the MST under the integer tree counts, and the k-tree
        loads are the counts over k."""
        graphs = [triangle(), tri_pendant(), k4(), three_tier()]
        rng = random.Random(7)
        graphs += [random_connected_graph(rng) for _ in range(10)]
        for g in graphs:
            zero_tree = kruskal_by_key(g, [0] * g.m)
            tree = kruskal_by_key(g, [int(i in zero_tree) for i in range(g.m)])
            counts = [0] * g.m
            for k in range(1, 121):
                for i in tree:
                    counts[i] += 1
                if k <= 40 or k == 120:
                    assert fw_tree_pack(g, k)[0].values == tuple(c / k for c in counts)
                tree = kruskal_by_key(g, counts)

    def test_standard_schedule_hits_tolerance_within_budget(self):
        eps = 0.02
        for g in (triangle(), tri_pendant()):
            budget = int(4 * g.m / eps**2)
            ref = ideal_loads(g)
            _, trace = fw_tree_pack(
                g, budget, schedule=STANDARD, ref=ref, stop_dist=eps)
            assert trace.records[-1].dist_ref <= eps
            assert trace.records[-1].k <= budget

    def test_averaging_objective_gap_under_harmonic_bound(self):
        for g in (triangle(), tri_pendant(), k4()):
            opt = float(sum(v * v for v in ideal_loads(g).values))
            cap = 2 * g.m  # each load coordinate moves within [0, 1]
            _, trace = fw_tree_pack(g, 2000)
            for rec in trace.records:
                bound = float(harmonic_bound(rec.k, cap, 0))
                assert rec.objective - opt <= bound + 1e-9

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            fw_tree_pack(two_islands(), 5)
