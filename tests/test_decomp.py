"""Exact decompositions, density vectors, and optimality certificates."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    canonical_graphs,
    random_connected_graph,
    k4,
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
    DenseDecomposition,
    MultiGraph,
    PeelResult,
    SetFunctionOracle,
    certify_lex_optimal,
    contract,
    decompose_submodular_deletion,
    decompose_supermodular,
    densest_set_bruteforce,
    density_vector,
    dualize,
    edge_count_fn,
    enumerate_base_vertices,
    fw_qp,
    graphic_rank_fn,
    lmo,
    supergreedy_pp,
    verify_bases,
    verify_decomposition_equivalence,
    weighted_supergreedy,
)
from densefw import decomp
from densefw.decomp import CONTRACTION, DELETION
from densefw.errors import (
    GroundSetTooLargeError,
    OracleFlagError,
)
from densefw.polytope import lmo
from densefw.setfn import ENUM_CAP, SUBMODULAR, SUPERMODULAR


def modular(ground, per_element, kind=SUPERMODULAR):
    c = Fraction(per_element)
    return SetFunctionOracle(tuple(ground), kind, True, True, lambda s: c * len(s))


def big_path_graph(n=21):
    return MultiGraph(n, tuple((i, i + 1) for i in range(n - 1)))


class TestDensestSet:
    def test_triangle(self):
        assert densest_set_bruteforce(edge_count_fn(triangle())) == (
            frozenset({0, 1, 2}), Fraction(1))

    def test_three_tier_core(self):
        s, d = densest_set_bruteforce(edge_count_fn(three_tier()))
        assert s == frozenset({0, 1, 2, 3})
        assert d == Fraction(3, 2)

    def test_star_prefers_the_whole_graph(self):
        s, d = densest_set_bruteforce(edge_count_fn(star()))
        assert s == frozenset({0, 1, 2, 3})
        assert d == Fraction(3, 4)

    def test_kind_enforced(self):
        with pytest.raises(OracleFlagError):
            densest_set_bruteforce(graphic_rank_fn(triangle()))

    def test_size_cap(self):
        with pytest.raises(GroundSetTooLargeError):
            densest_set_bruteforce(edge_count_fn(big_path_graph()))

    def test_scan_runs_in_constant_memory(self):
        """Neither the oracle nor the walk keeps anything per subset: the
        scan of all 2^20 subsets at the cap stays under 2 MiB."""
        tracemalloc.start()
        try:
            s, d = densest_set_bruteforce(edge_count_fn(big_path_graph(ENUM_CAP)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (s, d) == (frozenset(range(ENUM_CAP)), Fraction(ENUM_CAP - 1, ENUM_CAP))
        assert peak < 2 * 2**20

    def test_rank_scan_runs_in_constant_memory(self):
        """The graphic-rank hook keeps one DSU and an undo stack of at most m
        entries: the deletion decomposition of a 16-edge graph, whose first
        walk covers all 2^16 edge subsets, stays under 2 MiB."""
        k4a = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        k4b = [(a + 7, b + 7) for a, b in k4a]
        path = [(3, 4), (4, 5), (5, 6), (6, 7)]
        g = MultiGraph(11, tuple(k4a + path + k4b))
        tracemalloc.start()
        try:
            dec = decompose_submodular_deletion(graphic_rank_fn(g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.blocks == ((6, 7, 8, 9), (0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15))
        assert dec.densities == (Fraction(1), Fraction(2))
        assert peak < 2 * 2**20

    def test_empty_ground_set(self):
        """The two densest-set searches refuse an empty ground set before
        asking the oracle anything; the LMO, the peel, Frank-Wolfe (whose
        objective stays a float), the decomposition and the certificates
        take it."""
        e = contract(edge_count_fn(three_tier()), frozenset(range(8)))
        asked = []
        f = SetFunctionOracle((), SUPERMODULAR, True, True, lambda s: asked.append(s) or e._eval(s))
        for search in (densest_set_bruteforce, lambda h: supergreedy_pp(h, 3)):
            for h in (e, f):
                with pytest.raises(ValueError, match="nonempty ground set"):
                    search(h)
        assert asked == []
        empty = BaseVector((), ())
        assert weighted_supergreedy(e, ()) == PeelResult((), empty)
        assert lmo(e, ()) == density_vector(e) == empty
        for exact in (False, True):
            x, trace = fw_qp(e, 3, exact=exact)
            assert x == empty
            assert [(type(r.objective), r.objective) for r in trace.records] == [(float, 0.0)] * 3
        assert decompose_supermodular(e).blocks == ()
        assert verify_bases(e, [empty])[0] and certify_lex_optimal(e, empty)

    def test_misdeclared_oracle_fails_loudly(self):
        rank_as_super = SetFunctionOracle(
            (0, 1, 2), SUPERMODULAR, True, True, graphic_rank_fn(triangle())._eval
        )
        with pytest.raises(OracleFlagError):
            densest_set_bruteforce(rank_as_super)


class TestContractionDecomposition:
    def test_three_tier_blocks(self):
        dec = decompose_supermodular(edge_count_fn(three_tier()))
        assert dec.variant == CONTRACTION
        assert dec.blocks == ((0, 1, 2, 3), (4, 5, 6), (7,))
        assert dec.densities == (Fraction(3, 2), Fraction(4, 3), Fraction(1))

    def test_triangle_single_block(self):
        dec = decompose_supermodular(edge_count_fn(triangle()))
        assert dec.blocks == ((0, 1, 2),)
        assert dec.densities == (Fraction(1),)

    def test_modular_oracle_is_one_flat_block(self):
        dec = decompose_supermodular(modular((0, 1, 2, 3), Fraction(5, 2)))
        assert dec.blocks == ((0, 1, 2, 3),)
        assert dec.densities == (Fraction(5, 2),)

    def test_densities_strictly_decrease(self):
        rng = random.Random(67)
        for _ in range(15):
            g = random_multigraph(rng)
            dec = decompose_supermodular(edge_count_fn(g))
            assert all(a > b for a, b in zip(dec.densities, dec.densities[1:]))
            assert sorted(v for blk in dec.blocks for v in blk) == list(range(g.n))

    def test_kind_enforced(self):
        with pytest.raises(OracleFlagError):
            decompose_supermodular(graphic_rank_fn(triangle()))

    def test_edge_count_hook_survives_contraction(self):
        """Every block's walk runs on `contract(f, blocks so far)`, which
        must keep the edge-count hook: oracle evaluations then grow with the
        number of blocks, not with the 2^15 subsets a walk visits."""
        k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        k4 = [(u, v) for u in range(6, 10) for v in range(u + 1, 10)]
        p5 = [(v, v + 1) for v in range(10, 14)]
        g = MultiGraph(15, tuple(k6 + k4 + p5 + [(0, 6), (6, 10)]))
        f = edge_count_fn(g)
        calls = []
        counted = SetFunctionOracle(
            f.ground, f.kind, f.monotone, f.normalized,
            lambda s: calls.append(s) or f._eval(s), f._gains)
        dec = decompose_supermodular(counted)
        assert dec.blocks == (tuple(range(6)), tuple(range(6, 10)), tuple(range(10, 15)))
        assert dec.densities == (Fraction(5, 2), Fraction(7, 4), Fraction(1))
        assert len(calls) <= 4 * len(dec.blocks)

    def test_rising_block_density_fails_loudly(self):
        """A `_gains` hook that takes 4 off vertex 0's gains only on an
        empty base hides the K4 core from the first walk: block 1 comes out
        as {1,...,6} at density 1, then the true gains give {0} density 4."""
        f = edge_count_fn(three_tier())

        def gains(elems, base):
            gain = f._gains(elems, base)
            return gain if base else (lambda mask, j: gain(mask, j) - 4 * (elems[j] == 0))

        skewed = SetFunctionOracle(f.ground, f.kind, True, True, f._eval, gains)
        with pytest.raises(OracleFlagError, match="^block densities failed to decrease strictly$"):
            decompose_supermodular(skewed)


class TestDeletionDecomposition:
    def test_triangle_rank_single_block(self):
        dec = decompose_submodular_deletion(graphic_rank_fn(triangle()))
        assert dec.variant == DELETION
        assert dec.blocks == ((0, 1, 2),)
        assert dec.densities == (Fraction(3, 2),)

    def test_path_rank_single_block(self):
        dec = decompose_submodular_deletion(graphic_rank_fn(p3()))
        assert dec.blocks == ((0, 1),)
        assert dec.densities == (Fraction(1),)

    def test_pendant_edge_splits_off_first(self):
        dec = decompose_submodular_deletion(graphic_rank_fn(tri_pendant()))
        assert dec.blocks == ((3,), (0, 1, 2))
        assert dec.densities == (Fraction(1), Fraction(3, 2))

    def test_ratios_strictly_increase(self):
        rng = random.Random(71)
        for _ in range(15):
            g = random_multigraph(rng, n_max=6, m_max=9)
            dec = decompose_submodular_deletion(graphic_rank_fn(g))
            assert all(a < b for a, b in zip(dec.densities, dec.densities[1:]))

    def test_kind_and_flags_enforced(self):
        with pytest.raises(OracleFlagError):
            decompose_submodular_deletion(edge_count_fn(triangle()))
        not_monotone = SetFunctionOracle((0, 1), SUBMODULAR, False, True, len)
        with pytest.raises(OracleFlagError):
            decompose_submodular_deletion(not_monotone)

    def test_zero_singleton_rejected(self):
        f = SetFunctionOracle((0, 1), SUBMODULAR, True, True, lambda s: len(s & {0}))
        with pytest.raises(OracleFlagError):
            decompose_submodular_deletion(f)

    def test_degenerate_value_profile_reported(self):
        # submodular but secretly non-monotone: every singleton has value 1,
        # yet the full set drops back to 0, so no proper subset lowers it
        vals = {frozenset(): 0, frozenset({0}): 1, frozenset({1}): 1, frozenset({0, 1}): 0}
        f = SetFunctionOracle((0, 1), SUBMODULAR, True, True, lambda s: vals[s])
        with pytest.raises(OracleFlagError, match="^no proper subset drops the value"):
            decompose_submodular_deletion(f)

    def test_size_cap(self):
        with pytest.raises(GroundSetTooLargeError):
            decompose_submodular_deletion(graphic_rank_fn(big_path_graph(22)))

    def test_minimizers_not_closed_under_intersection(self):
        """|S|^2 declared submodular: the least ratio 1/7 is reached by all
        four 3-sets, whose intersection is empty, at ratio 1/4."""
        squared = SetFunctionOracle(range(4), SUBMODULAR, True, True, lambda s: len(s) ** 2)
        with pytest.raises(OracleFlagError, match="^minimizers not closed under intersection"):
            decompose_submodular_deletion(squared)

    def test_repeated_block_ratio_fails_loudly(self):
        """A triangle {0,1,2} with pendant edges 3 and 4. During the first
        block's m + 1 + 2^m evaluations (singletons, the whole set, the
        hook-less walk) the rank reads one too high on {0,1,2} and
        {0,1,2,4}, so block 1 is edge 4 alone at ratio 1; the true values
        after it give block 2, edge 3, the same ratio 1."""
        g = MultiGraph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (0, 4)))
        rank = graphic_rank_fn(g)
        calls = [0]

        def ev(s):
            calls[0] += 1
            bumped = calls[0] <= g.m + 1 + 2**g.m and s in ({0, 1, 2}, {0, 1, 2, 4})
            return rank._eval(s) + bumped

        with pytest.raises(OracleFlagError, match="^block ratios failed to increase strictly$"):
            decompose_submodular_deletion(SetFunctionOracle(rank.ground, SUBMODULAR, True, True, ev))


def vector_cases():
    rng = random.Random(311)
    named = [pytest.param(g, id=name) for name, g in canonical_graphs()]
    return named + [
        pytest.param(random_multigraph(rng, n_max=7, m_max=10), id=f"random{i}")
        for i in range(8)
    ]


class TestDensityVector:
    @pytest.mark.parametrize("g", vector_cases())
    def test_densest_set_is_first_contraction_block(self, g):
        fe = edge_count_fn(g)
        dec = decompose_supermodular(fe)
        assert densest_set_bruteforce(fe) == (frozenset(dec.blocks[0]), dec.densities[0])

    @pytest.mark.parametrize("g", vector_cases())
    def test_decomposition_vector_is_density_vector(self, g):
        fe = edge_count_fn(g)
        assert decompose_supermodular(fe).vector(fe.ground) == density_vector(fe)
        fr = graphic_rank_fn(g)
        assert decompose_submodular_deletion(fr).vector(fr.ground) == density_vector(fr)

    def test_three_tier_values(self):
        b = density_vector(edge_count_fn(three_tier()))
        assert b.values == (Fraction(3, 2),) * 4 + (Fraction(4, 3),) * 3 + (Fraction(1),)

    def test_star_uniform(self):
        b = density_vector(edge_count_fn(star()))
        assert b.values == (Fraction(3, 4),) * 4

    def test_k4_rank_uniform(self):
        b = density_vector(graphic_rank_fn(k4()))
        assert b.values == (Fraction(1, 2),) * 6

    def test_pendant_rank_loads(self):
        b = density_vector(graphic_rank_fn(tri_pendant()))
        assert b.values == (Fraction(2, 3),) * 3 + (Fraction(1),)

    def test_is_always_a_base(self):
        for name, g in canonical_graphs():
            fe = edge_count_fn(g)
            assert verify_bases(fe, [density_vector(fe)])[0], name
            if g.m >= 1:
                fr = graphic_rank_fn(g)
                assert verify_bases(fr, [density_vector(fr)])[0], name

    def test_deletion_values_telescope(self):
        for g in (p3(), triangle(), tri_pendant(), k4()):
            f = graphic_rank_fn(g)
            assert sum(density_vector(f).values) == f.value(f.ground)


class TestCertificate:
    def test_density_vectors_certify(self):
        for g in (single_edge(), p3(), triangle(), star(), k4(), tri_pendant()):
            fe = edge_count_fn(g)
            assert certify_lex_optimal(fe, density_vector(fe))
            if 1 <= g.m <= 7:
                fr = graphic_rank_fn(g)
                assert certify_lex_optimal(fr, density_vector(fr))

    def test_vertex_is_not_optimal(self):
        f = edge_count_fn(triangle())
        assert not certify_lex_optimal(f, (2, 1, 0))

    def test_uniform_point_of_symmetric_instance(self):
        assert certify_lex_optimal(edge_count_fn(triangle()), (1, 1, 1))

    def test_certifies_past_seven_elements(self):
        f = edge_count_fn(three_tier())
        assert len(f.ground) == 8
        assert certify_lex_optimal(f, density_vector(f))
        assert not certify_lex_optimal(f, lmo(f, [0] * 8))

    def test_agrees_with_vertex_enumeration(self):
        """One greedy LMO call finds the least <x, v> over all vertices v."""
        rng = random.Random(67)
        for _ in range(8):
            g = random_multigraph(rng, n_max=7, m_max=7)
            for f in (edge_count_fn(g), graphic_rank_fn(g), dualize(graphic_rank_fn(g))):
                verts = enumerate_base_vertices(f)
                a, b = rng.choice(verts), rng.choice(verts)
                n = len(f.ground)
                for x in (
                    density_vector(f),
                    a,
                    tuple(Fraction(p + q, 2) for p, q in zip(a.values, b.values)),
                    tuple(Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n)),
                    tuple(rng.uniform(0, 3) for _ in range(n)),
                ):
                    q = [Fraction(v) for v in (x.values if hasattr(x, "values") else x)]
                    want = min(v.dot(q) for v in verts) >= sum(v * v for v in q)
                    assert certify_lex_optimal(f, x) == want

    def test_sorted_vector_is_lexicographically_extreme(self):
        for g in (single_edge(), p3(), triangle(), star(), tri_pendant(), k4()):
            for f in (edge_count_fn(g),) + (
                (graphic_rank_fn(g),) if 1 <= g.m <= 7 else ()
            ):
                b = sorted(density_vector(f).values)
                for v in enumerate_base_vertices(f):
                    asc = sorted(v.values)
                    assert b >= asc  # largest possible smallest coordinates
                    assert list(reversed(b)) <= list(reversed(asc))


class TestEquivalence:
    def test_pendant_graph(self):
        assert verify_decomposition_equivalence(graphic_rank_fn(tri_pendant()))

    def test_trees_are_single_blocks(self):
        for g in (p3(), star()):
            f = graphic_rank_fn(g)
            assert verify_decomposition_equivalence(f)
            dele = decompose_submodular_deletion(f)
            cont = decompose_supermodular(dualize(f))
            assert dele.densities == (Fraction(1),)
            assert cont.densities == (Fraction(1),)

    def test_random_graphs(self):
        rng = random.Random(73)
        for _ in range(15):
            g = random_multigraph(rng, n_max=6, m_max=8)
            assert verify_decomposition_equivalence(graphic_rank_fn(g))

    @pytest.mark.parametrize("fake", [
        pytest.param(lambda dec: DenseDecomposition(dec.variant, dec.blocks[::-1], dec.densities[::-1]),
                     id="blocks-in-another-order"),
        pytest.param(lambda dec: DenseDecomposition(dec.variant, dec.blocks, tuple(2 * d for d in dec.densities)),
                     id="densities-not-reciprocal"),
    ])
    def test_contraction_blocks_or_densities_that_disagree_fail(self, monkeypatch, fake):
        exact = decomp.decompose_supermodular
        monkeypatch.setattr(decomp, "decompose_supermodular", lambda f: fake(exact(f)))
        assert len(exact(dualize(graphic_rank_fn(tri_pendant()))).blocks) == 2
        assert not verify_decomposition_equivalence(graphic_rank_fn(tri_pendant()))


class TestUniquenessStructure:
    @staticmethod
    def density_maximizers(f):
        subs = {}
        for r in range(1, len(f.ground) + 1):
            for c in combinations(f.ground, r):
                subs[frozenset(c)] = Fraction(f.value(c), r)
        best = max(subs.values())
        return {s for s, d in subs.items() if d == best}

    @staticmethod
    def ratio_minimizers(f):
        full = frozenset(f.ground)
        f_full = f.value(full)
        ratios = {}
        for r in range(len(f.ground)):
            for c in combinations(f.ground, r):
                s = frozenset(c)
                fs = f.value(s)
                if fs < f_full:
                    ratios[s] = Fraction(len(full) - r, f_full - fs)
        best = min(ratios.values())
        return {s for s, d in ratios.items() if d == best}

    def test_maximizers_union_closed_with_unique_top(self):
        for name, g in canonical_graphs():
            sets = self.density_maximizers(edge_count_fn(g))
            for a, b in combinations(sets, 2):
                assert a | b in sets, name
            maximal = [s for s in sets if not any(s < t for t in sets)]
            assert len(maximal) == 1, name

    def test_minimizers_intersection_closed_with_unique_bottom(self):
        for name, g in canonical_graphs():
            if g.m == 0:
                continue
            sets = self.ratio_minimizers(graphic_rank_fn(g))
            for a, b in combinations(sets, 2):
                assert a & b in sets, name
            minimal = [s for s in sets if not any(t < s for t in sets)]
            assert len(minimal) == 1, name


class TestDecompositionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            DenseDecomposition("other", ((0,),), (Fraction(1),))
        with pytest.raises(ValueError):
            DenseDecomposition(CONTRACTION, ((0,),), ())


# Frozenset references: the subset scans as they were before the int-mask
# walk, one frozenset and one Fraction per subset, by increasing size.
def ref_subsets(elems):
    return (frozenset(c) for r in range(len(elems) + 1) for c in combinations(elems, r))


def ref_densest(f, remaining, acc, f_acc):
    best = None
    union = set()
    for s in ref_subsets(remaining):
        if not s:
            continue
        d = Fraction(f._eval(s | acc) - f_acc, len(s))
        if best is None or d > best:
            best = d
            union = set(s)
        elif d == best:
            union |= s
    top = frozenset(union)
    if Fraction(f._eval(top | acc) - f_acc, len(top)) != best:
        raise OracleFlagError("maximizers not closed under union; oracle is not supermodular")
    return top, best


def ref_decompose_supermodular(f):
    remaining, acc = tuple(f.ground), frozenset()
    f_acc = f._eval(acc)
    blocks, densities = [], []
    while remaining:
        top, best = ref_densest(f, remaining, acc, f_acc)
        if densities and best >= densities[-1]:
            raise OracleFlagError("block densities failed to decrease strictly")
        blocks.append(tuple(sorted(top)))
        densities.append(best)
        acc = acc | top
        f_acc = f._eval(acc)
        remaining = tuple(e for e in remaining if e not in top)
    return DenseDecomposition(CONTRACTION, tuple(blocks), tuple(densities))


def ref_decompose_deletion(f):
    if f.kind != SUBMODULAR:
        raise OracleFlagError("decompose_submodular_deletion needs a submodular oracle")
    cur = tuple(f.ground)
    for v in cur:
        if f._eval(frozenset([v])) <= 0:
            raise OracleFlagError(f"deletion decomposition needs f({{{v}}}) > 0")
    f_cur = f._eval(frozenset(cur))
    blocks, ratios = [], []
    while cur:
        best, inter = None, None
        for s in ref_subsets(cur):
            if len(s) == len(cur):
                continue
            fs = f._eval(s)
            if fs >= f_cur:
                continue
            ratio = Fraction(len(cur) - len(s), f_cur - fs)
            if best is None or ratio < best:
                best, inter = ratio, set(s)
            elif ratio == best:
                inter &= s
        if best is None:
            raise OracleFlagError("no proper subset drops the value; f(V') = f(S) everywhere")
        core = frozenset(inter)
        f_core = f._eval(core)
        if f_core >= f_cur or Fraction(len(cur) - len(core), f_cur - f_core) != best:
            raise OracleFlagError("minimizers not closed under intersection; oracle is not submodular")
        if ratios and best <= ratios[-1]:
            raise OracleFlagError("block ratios failed to increase strictly")
        blocks.append(tuple(sorted(set(cur) - core)))
        ratios.append(best)
        cur = tuple(e for e in cur if e in core)
        f_cur = f_core
    return DenseDecomposition(DELETION, tuple(blocks), tuple(ratios))


def ref_verify_base(f, x):
    vals = x.values if hasattr(x, "values") else tuple(x)
    q = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in vals]
    if any(v < 0 for v in q):
        return False
    if sum(q) != f._eval(frozenset(f.ground)):
        return False
    x_of = dict(zip(f.ground, q))
    for s in ref_subsets(f.ground):
        if not s:
            continue
        xs = sum(x_of[e] for e in s)
        fs = f._eval(s)
        if f.kind == SUBMODULAR:
            if xs > fs:
                return False
        elif xs < fs:
            return False
    return True


def outcome(fn, *args):
    """A result, or the type and message of what was raised instead."""
    try:
        return "ok", fn(*args)
    except OracleFlagError as e:
        return type(e).__name__, str(e)


def reference_graphs(count=200):
    """Seeded random multigraphs, half of them connected, with a parallel
    copy of some edge in about half of them."""
    rng = random.Random(2029)
    for i in range(count):
        g = (random_connected_graph(rng, n_max=7, extra_max=2) if i % 2
             else random_multigraph(rng, n_max=7, m_max=8))
        if rng.random() < 0.5:
            g = MultiGraph(g.n, g.edges + (rng.choice(g.edges),))
        yield rng, g


class TestAgainstFrozensetReference:
    """The int-mask scans give what the frozenset scans gave, raise where
    they raised, and mis-flagged oracles still raise OracleFlagError."""

    def test_scans_equal_the_reference(self):
        for rng, g in reference_graphs():
            fe, fr = edge_count_fn(g), graphic_rank_fn(g)
            fd = dualize(fr)
            for f in (fe, fd):
                assert densest_set_bruteforce(f) == ref_densest(f, f.ground, frozenset(), 0)
                assert decompose_supermodular(f) == ref_decompose_supermodular(f)
            assert outcome(decompose_submodular_deletion, fr) == outcome(ref_decompose_deletion, fr)
            for f in (fe, fr, fd):
                n = len(f.ground)
                vertex = lmo(f, [rng.randint(0, 5) for _ in range(n)])
                star = density_vector(f)
                nudged = list(star.values)
                if n >= 2:
                    nudged[0] += Fraction(1, 7)
                    nudged[-1] -= Fraction(1, 7)
                for x in (
                    star, vertex, nudged,
                    [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)],
                    [float(v) + rng.uniform(-1e-3, 1e-3) for v in star.values],
                ):
                    assert verify_bases(f, [x])[0] == ref_verify_base(f, x)

    def test_misflagged_oracles_raise_as_before(self):
        raised = 0
        for _, g in reference_graphs(120):
            fe, fr = edge_count_fn(g), graphic_rank_fn(g)
            rank_as_super = SetFunctionOracle(fr.ground, SUPERMODULAR, True, True, fr._eval)
            dual_as_sub = SetFunctionOracle(fr.ground, SUBMODULAR, True, True, dualize(fr)._eval)
            edges_as_sub = SetFunctionOracle(fe.ground, SUBMODULAR, True, True, fe._eval)
            got = outcome(decompose_supermodular, rank_as_super)
            assert got == outcome(ref_decompose_supermodular, rank_as_super)
            assert outcome(densest_set_bruteforce, rank_as_super) == outcome(
                ref_densest, rank_as_super, rank_as_super.ground, frozenset(), 0)
            for f in (dual_as_sub, edges_as_sub):
                assert outcome(decompose_submodular_deletion, f) == outcome(ref_decompose_deletion, f)
            raised += got[0] == "OracleFlagError"
        assert raised >= 20

    def test_wrong_hook_fails_loudly(self):
        """The union re-check evaluates the frozenset, not the hook."""
        f = edge_count_fn(triangle())

        def inflated(elems, base):
            gain = f._gains(elems, base)
            return lambda mask, j: gain(mask, j) + (elems[j] == 0)

        bad = SetFunctionOracle(f.ground, SUPERMODULAR, True, True, f._eval, inflated)
        with pytest.raises(OracleFlagError):
            densest_set_bruteforce(bad)
