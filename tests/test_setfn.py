"""Set-function oracles: constructors, closure operations, exhaustive checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import multigraphs, random_multigraph, star, three_tier, tri_pendant, triangle
from densefw import (
    MultiGraph,
    SetFunctionOracle,
    components,
    contract,
    dualize,
    edge_count_fn,
    graphic_rank_fn,
    nn_sum,
    restrict,
)
from densefw.errors import GroundSetTooLargeError, OracleFlagError
from densefw.setfn import (
    CHECK_CAP,
    ENUM_CAP,
    SUBMODULAR,
    SUPERMODULAR,
    check_kind,
    check_monotone,
    check_normalized,
    walk,
)
from densefw.polytope import _chain


def modular(ground, per_element):
    """f(S) = per_element * |S|; both kinds apply, declared supermodular."""
    c = Fraction(per_element)
    return SetFunctionOracle(tuple(ground), SUPERMODULAR, True, True, lambda s: c * len(s))


def all_subsets(elems):
    from itertools import combinations

    for r in range(len(elems) + 1):
        yield from (frozenset(c) for c in combinations(elems, r))


class TestOracleBasics:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SetFunctionOracle((0, 1), "convex", True, True, len)

    def test_duplicate_ground_rejected(self):
        with pytest.raises(ValueError):
            SetFunctionOracle((0, 0), SUBMODULAR, True, True, len)

    def test_value_outside_ground_rejected(self):
        f = edge_count_fn(triangle())
        with pytest.raises(ValueError):
            f.value({0, 9})

    def test_marginal_of_member_rejected(self):
        f = edge_count_fn(triangle())
        with pytest.raises(ValueError):
            f.marginal(0, {0, 1})

    def test_marginal_outside_ground_rejected(self):
        f = edge_count_fn(triangle())
        with pytest.raises(ValueError):
            f.marginal(7, {0})

    @pytest.mark.parametrize("make", [edge_count_fn, lambda g: dualize(graphic_rank_fn(g))])
    def test_marginal_base_outside_ground_rejected(self, make):
        f = make(MultiGraph(3, ((0, 1), (1, 2))))
        with pytest.raises(ValueError, match="not within ground set"):
            f.marginal(0, {1, 99})


class TestEdgeCount:
    def test_triangle_full(self):
        assert edge_count_fn(triangle()).value({0, 1, 2}) == 3

    def test_three_tier_core(self):
        assert edge_count_fn(three_tier()).value({0, 1, 2, 3}) == 6

    def test_empty_is_zero(self):
        assert edge_count_fn(three_tier()).value(()) == 0

    def test_parallel_edges_counted(self):
        from conftest import parallel_pair

        assert edge_count_fn(parallel_pair()).value({0, 1}) == 2

    def test_declared_flags(self):
        f = edge_count_fn(triangle())
        assert f.kind == SUPERMODULAR and f.monotone and f.normalized


class TestGraphicRank:
    def test_triangle_full(self):
        assert graphic_rank_fn(triangle()).value({0, 1, 2}) == 2

    def test_triangle_one_edge(self):
        assert graphic_rank_fn(triangle()).value({0}) == 1

    def test_pendant_graph_triangle_edges(self):
        assert graphic_rank_fn(tri_pendant()).value({0, 1, 2}) == 2

    def test_declared_flags(self):
        f = graphic_rank_fn(triangle())
        assert f.kind == SUBMODULAR and f.monotone and f.normalized


class TestMarginal:
    def test_closing_the_triangle_adds_two(self):
        f = edge_count_fn(triangle())
        assert f.marginal(2, {0, 1}) == 2

    def test_from_empty_is_singleton_value(self):
        f = edge_count_fn(star())
        for v in f.ground:
            assert f.marginal(v, ()) == f.value({v})

    def test_rank_saturates_on_spanning_subset(self):
        f = graphic_rank_fn(triangle())
        assert f.marginal(2, {0, 1}) == 0


class TestDualize:
    def test_triangle_rank_single_edge(self):
        g = dualize(graphic_rank_fn(triangle()))
        assert g.value({0}) == 0

    def test_empty_and_full(self):
        f = graphic_rank_fn(tri_pendant())
        g = dualize(f)
        assert g.value(()) == 0
        assert g.value(f.ground) == f.value(f.ground)

    def test_kind_flips(self):
        g = dualize(graphic_rank_fn(triangle()))
        assert g.kind == SUPERMODULAR
        assert check_kind(g)

    def test_requires_flags(self):
        bad = SetFunctionOracle((0, 1), SUBMODULAR, False, True, len)
        with pytest.raises(OracleFlagError):
            dualize(bad)

    def test_involution(self):
        f = graphic_rank_fn(tri_pendant())
        back = dualize(dualize(f))
        for s in all_subsets(f.ground):
            assert back.value(s) == f.value(s)

    @settings(deadline=None, max_examples=30)
    @given(multigraphs(n_max=5, m_max=6))
    def test_involution_random(self, g):
        f = graphic_rank_fn(g)
        back = dualize(dualize(f))
        for s in all_subsets(f.ground):
            assert back.value(s) == f.value(s)


class TestContractRestrictSum:
    def test_contract_triangle_vertex(self):
        f = contract(edge_count_fn(triangle()), {0})
        assert f.ground == (1, 2)
        assert f.value({1}) == 1

    def test_contract_is_normalized_and_same_kind(self):
        f = contract(edge_count_fn(tri_pendant()), {2})
        assert f.value(()) == 0
        assert f.kind == SUPERMODULAR
        assert check_kind(f)

    def test_contract_outside_ground_rejected(self):
        with pytest.raises(ValueError):
            contract(edge_count_fn(triangle()), {9})

    def test_restrict_to_full_ground_is_identity(self):
        f = edge_count_fn(tri_pendant())
        r = restrict(f, f.ground)
        for s in all_subsets(f.ground):
            assert r.value(s) == f.value(s)

    def test_restrict_matches_induced_subgraph(self):
        r = restrict(edge_count_fn(tri_pendant()), {0, 1, 2})
        f_tri = edge_count_fn(triangle())
        for s in all_subsets((0, 1, 2)):
            assert r.value(s) == f_tri.value(s)

    def test_restrict_outside_ground_rejected(self):
        with pytest.raises(ValueError):
            restrict(edge_count_fn(triangle()), {0, 5})

    def test_nn_sum_identity(self):
        f = edge_count_fn(triangle())
        g = modular(f.ground, 2)
        s = nn_sum(1, f, 0, g)
        for sub in all_subsets(f.ground):
            assert s.value(sub) == f.value(sub)

    def test_nn_sum_combines(self):
        f = edge_count_fn(triangle())
        g = modular(f.ground, 2)
        s = nn_sum(Fraction(1, 2), f, 3, g)
        assert s.value({0, 1, 2}) == Fraction(3, 2) + 18
        assert check_kind(s)

    def test_nn_sum_negative_coefficient_rejected(self):
        f = edge_count_fn(triangle())
        with pytest.raises(ValueError):
            nn_sum(-1, f, 1, f)

    def test_nn_sum_ground_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nn_sum(1, edge_count_fn(triangle()), 1, edge_count_fn(star()))

    def test_nn_sum_kind_mismatch_rejected(self):
        g = triangle()
        with pytest.raises(OracleFlagError):
            nn_sum(1, edge_count_fn(g), 1, graphic_rank_fn(g))


def subset_at(elems, mask):
    return frozenset(e for j, e in enumerate(elems) if mask >> j & 1)


def walk_matches_eval(h, ref=None):
    """Every (mask, size, value) of walk(h) against the frozenset
    evaluation ref(S), by default h._eval(S); returns the number of subsets."""
    ref = ref or h._eval
    seen = 0
    for mask, size, value in walk(h):
        s = subset_at(h.ground, mask)
        assert size == len(s)
        assert value == ref(s), sorted(s)
        seen += 1
    return seen


def part_of(f, elems, base):
    """walk(part_of(f, elems, base)) scans the subsets S of elems with
    values f(S | base) - f(base), and a reference for those values."""
    h = restrict(contract(f, base), elems)
    return h, lambda s: f._eval(s | base) - f._eval(base)


def reordered(h, ground):
    """h with its ground set listed in another order: same _eval and _gains."""
    return SetFunctionOracle(ground, h.kind, h.monotone, h.normalized, h._eval, h._gains)


def multigraph_with_extras(rng):
    """A seeded random multigraph plus one edge repeated 1-5 more times
    (multiplicities up to 6 exercise every mask layer) and one isolated
    vertex at the top index."""
    g = random_multigraph(rng, n_max=8, m_max=10)
    edges = g.edges + (g.edges[0],) * rng.randint(1, 5)
    return MultiGraph(g.n + 1, edges)


def rank_graph_with_extras(rng):
    """A seeded random multigraph with at most 10 edges (often disconnected)
    plus 1-3 parallel copies of one edge and one isolated vertex at the top
    index."""
    g = random_multigraph(rng, n_max=7, m_max=7)
    edges = g.edges + (g.edges[0],) * rng.randint(1, 3)
    return MultiGraph(g.n + 1, edges)


class TestSubsets:
    """setfn.walk, the one subset enumerator."""

    def test_cap_raises_at_call_time(self):
        asked = []
        f = SetFunctionOracle(
            tuple(range(21)), SUPERMODULAR, True, True,
            lambda s: asked.append(s) or 0, lambda elems, base: asked.append(elems))
        refusal = "^subset enumeration limited to 20 elements, got 21$"
        with pytest.raises(GroundSetTooLargeError, match=refusal):
            walk(f)
        with pytest.raises(GroundSetTooLargeError, match=refusal):
            walk(edge_count_fn(MultiGraph(21, ((0, 20),))))
        assert asked == []

    def test_at_cap_is_accepted(self):
        assert ENUM_CAP == 20
        f = edge_count_fn(MultiGraph(20, ((0, 19),)))
        scan = walk(f)
        assert next(scan) == (0, 0, 0)

    @pytest.mark.parametrize("hooked", [True, False])
    def test_gray_order_visits_each_mask_once(self, hooked):
        f = edge_count_fn(MultiGraph(8, ((0, 1), (0, 1), (2, 3), (5, 6))))
        if not hooked:
            f = SetFunctionOracle(f.ground, f.kind, True, True, f._eval)
        assert (f._gains is not None) == hooked
        for n in range(len(f.ground) + 1):
            rows = list(walk(restrict(f, f.ground[:n])))
            masks = [mask for mask, _, _ in rows]
            assert masks[0] == 0
            assert sorted(masks) == list(range(1 << n))
            assert all((a ^ b).bit_count() == 1 for a, b in zip(masks, masks[1:]))
            assert all(size == mask.bit_count() for mask, size, _ in rows)

    def test_edge_count_hook_matches_eval(self):
        rng = random.Random(89)
        for _ in range(40):
            g = multigraph_with_extras(rng)
            f = edge_count_fn(g)
            assert f._gains is not None
            assert walk_matches_eval(f) == 1 << g.n
            cut = rng.sample(f.ground, rng.randint(1, g.n - 1))
            base = frozenset(cut[: rng.randint(0, len(cut))])
            elems = tuple(v for v in f.ground if v not in cut)
            h, ref = part_of(f, elems, base)
            assert h._gains is not None and h.ground == elems
            walk_matches_eval(h, ref)
            walk_matches_eval(reordered(h, elems[::-1]), ref)

    def test_restrict_and_contract_pass_the_hook_on(self):
        rng = random.Random(83)
        for _ in range(30):
            g = multigraph_with_extras(rng)
            f = edge_count_fn(g)
            keep = rng.sample(f.ground, rng.randint(1, g.n))
            r = restrict(f, keep)
            a = rng.sample(f.ground, rng.randint(0, g.n - 1))
            c = contract(f, a)
            assert r._gains is not None and c._gains is not None
            for h in (r, c):
                walk_matches_eval(h)
                split = rng.randint(0, len(h.ground))
                part, ref = part_of(h, h.ground[split:], frozenset(h.ground[:split]))
                assert part._gains is not None
                walk_matches_eval(part, ref)

    def test_graphic_rank_hook_matches_eval(self):
        rng = random.Random(97)
        split = 0
        for _ in range(48):
            g = rank_graph_with_extras(rng)
            split += components(g, range(g.m)) > 2  # beyond the isolated vertex
            f = graphic_rank_fn(g)
            assert f._gains is not None
            assert walk_matches_eval(f) == 1 << g.m
            r = restrict(f, rng.sample(f.ground, rng.randint(1, g.m)))
            c = contract(f, rng.sample(f.ground, rng.randint(1, g.m - 1)))
            assert r._gains is not None and c._gains is not None
            for h in (r, c):
                walk_matches_eval(h)
            cut = rng.sample(f.ground, rng.randint(1, g.m - 1))
            base = frozenset(cut[: rng.randint(1, len(cut))])
            elems = tuple(e for e in f.ground if e not in cut)
            h, ref = part_of(f, elems, base)
            assert h._gains is not None and h.ground == elems
            walk_matches_eval(h, ref)
            walk_matches_eval(reordered(h, elems[::-1]), ref)
        assert split >= 10

    def test_graphic_rank_gains_out_of_gray_order(self):
        """gain(mask, j) is a function of (mask, j) alone, whatever was asked before."""
        rng = random.Random(101)
        for _ in range(40):
            g = rank_graph_with_extras(rng)
            f = graphic_rank_fn(g)
            base = frozenset(rng.sample(f.ground, rng.randint(0, g.m - 1)))
            elems = [e for e in f.ground if e not in base]
            rng.shuffle(elems)
            gain = f._gains(tuple(elems), base)
            for _ in range(60):
                j = rng.randrange(len(elems))
                mask = rng.getrandbits(len(elems)) & ~(1 << j)
                s = subset_at(elems, mask) | base
                assert gain(mask, j) == f._eval(s | {elems[j]}) - f._eval(s)

    def test_dual_gains_match_eval(self):
        """dualize derives its _gains from f's; walks through it, directly and
        through contract and restrict, agree with the dual's evaluations."""
        rng = random.Random(103)
        for i in range(40):
            g = multigraph_with_extras(rng) if i % 2 else rank_graph_with_extras(rng)
            f = edge_count_fn(g) if i % 2 else graphic_rank_fn(g)
            d = dualize(f)
            assert d._gains is not None and dualize(d)._gains is not None
            assert walk_matches_eval(d) == 1 << len(d.ground)
            walk_matches_eval(dualize(d), f._eval)
            for h in (restrict(d, rng.sample(d.ground, rng.randint(1, len(d.ground)))),
                      contract(d, rng.sample(d.ground, rng.randint(0, len(d.ground) - 1)))):
                walk_matches_eval(h)
            cut = rng.sample(d.ground, rng.randint(1, len(d.ground) - 1))
            base = frozenset(cut[: rng.randint(0, len(cut))])
            elems = tuple(e for e in d.ground if e not in cut)
            h, ref = part_of(d, elems, base)
            assert h._gains is not None and h.ground == elems
            walk_matches_eval(h, ref)
            walk_matches_eval(reordered(h, elems[::-1]), ref)

    def test_dual_gains_out_of_gray_order(self):
        """A dual's gain(mask, j), asked in any order, is g(S + j) - g(S)."""
        rng = random.Random(107)
        for _ in range(40):
            g = rank_graph_with_extras(rng)
            d = dualize(graphic_rank_fn(g))
            base = frozenset(rng.sample(d.ground, rng.randint(0, len(d.ground) - 1)))
            elems = [e for e in d.ground if e not in base]
            rng.shuffle(elems)
            gain = d._gains(tuple(elems), base)
            for _ in range(60):
                j = rng.randrange(len(elems))
                mask = rng.getrandbits(len(elems)) & ~(1 << j)
                s = subset_at(elems, mask) | base
                assert gain(mask, j) == d._eval(s | {elems[j]}) - d._eval(s)

    def test_oracles_without_hook_walk_one_set(self):
        rng = random.Random(79)
        for _ in range(30):
            g = multigraph_with_extras(rng)
            fr = graphic_rank_fn(g)
            fe = edge_count_fn(g)
            plain = SetFunctionOracle(fe.ground, SUPERMODULAR, True, True, lambda s: len(s) ** 2)
            bare_rank = SetFunctionOracle(fr.ground, SUBMODULAR, True, True, fr._eval)
            for h in (dualize(bare_rank), nn_sum(Fraction(1, 3), fe, 2, plain), plain):
                assert h._gains is None
                walk_matches_eval(h)
                split = rng.randint(0, len(h.ground))
                part, ref = part_of(h, h.ground[split:], frozenset(h.ground[:split]))
                assert part._gains is None
                walk_matches_eval(part, ref)
                walk_matches_eval(reordered(part, part.ground[::-1]), ref)


class TestExhaustiveChecks:
    def test_edge_count_is_supermodular_monotone_normalized(self):
        for g in (triangle(), star(), tri_pendant(), three_tier()):
            f = edge_count_fn(g)
            assert check_kind(f)
            assert check_monotone(f)
            assert check_normalized(f)

    def test_graphic_rank_is_submodular_monotone_normalized(self):
        for g in (triangle(), star(), tri_pendant()):
            f = graphic_rank_fn(g)
            assert check_kind(f)
            assert check_monotone(f)
            assert check_normalized(f)

    def test_misdeclared_kind_detected(self):
        g = triangle()
        wrong = SetFunctionOracle(
            (0, 1, 2), SUBMODULAR, True, True, edge_count_fn(g)._eval
        )
        assert not check_kind(wrong)

    def test_misdeclared_monotonicity_detected(self):
        f = SetFunctionOracle((0, 1), SUBMODULAR, True, True, lambda s: -len(s))
        assert not check_monotone(f)
        assert not check_normalized(
            SetFunctionOracle((0,), SUBMODULAR, True, True, lambda s: 1)
        )

    def test_checks_cap_ground_size(self):
        from densefw import MultiGraph

        nine_cycle = MultiGraph(9, tuple((i, (i + 1) % 9) for i in range(9)))
        big = edge_count_fn(nine_cycle)
        assert CHECK_CAP == 8
        with pytest.raises(GroundSetTooLargeError, match="^kind check limited to 8 elements, got 9$"):
            check_kind(big)
        with pytest.raises(GroundSetTooLargeError, match="^monotonicity check limited to 8 elements, got 9$"):
            check_monotone(big)

    @settings(deadline=None, max_examples=30)
    @given(multigraphs(n_max=5, m_max=7))
    def test_random_instances_match_declared_structure(self, g):
        fe = edge_count_fn(g)
        assert check_kind(fe) and check_monotone(fe) and check_normalized(fe)
        if g.m <= 6:
            fr = graphic_rank_fn(g)
            assert check_kind(fr) and check_monotone(fr) and check_normalized(fr)


def tied_weights(rng, n):
    """Seeded weights with many ties, as ints, Fractions or floats."""
    kind = rng.randrange(3)
    vals = [rng.randint(-2, 3) for _ in range(n)]
    if kind == 1:
        return [Fraction(v, rng.choice((1, 2))) for v in vals]
    if kind == 2:
        return [v / 4 for v in vals]
    return vals


class TestChainHook:
    """_chain(order): the greedy marginals along an order, without evaluating a set."""

    def test_graph_oracles_and_duals_match_the_frozenset_chain(self):
        rng = random.Random(109)
        for i in range(60):
            g = multigraph_with_extras(rng) if i % 2 else rank_graph_with_extras(rng)
            for f in (edge_count_fn(g), graphic_rank_fn(g)):
                d = dualize(f)
                assert f._chain is not None and d._chain is f._chain
                n = len(f.ground)
                w = tied_weights(rng, n)
                shuffled = list(range(n))
                rng.shuffle(shuffled)
                for order in (sorted(range(n), key=lambda i: (w[i], i)), shuffled):
                    for h in (f, d, dualize(d)):
                        assert tuple(h._chain(order)) == _chain(h, order)

    def test_restrict_and_contract_pass_no_chain(self):
        g = three_tier()
        for f in (edge_count_fn(g), graphic_rank_fn(g)):
            assert restrict(f, f.ground[1:])._chain is None
            assert contract(f, f.ground[:1])._chain is None
            assert nn_sum(1, f, 1, f)._chain is None
