"""Acceptance suite: one test per shipped claim, exact tolerances, one
printed PASS/FAIL line each (run with -s to see them on success)."""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from conftest import (
    canonical_graphs,
    k4,
    random_multigraph,
    three_tier,
    tri_pendant,
    triangle,
)
from densefw import (
    AVERAGING,
    STANDARD,
    contract,
    curvature_bounds,
    decompose_supermodular,
    delta_for_graph,
    density_vector,
    edge_count_fn,
    enumerate_base_vertices,
    fw_tree_pack,
    graphic_rank_fn,
    greedy_pp,
    ideal_loads,
    lmo,
    tnw_ideal_loads,
    verify_base,
    verify_decomposition_equivalence,
    weighted_greedy,
    weighted_supergreedy,
)
from densefw.decomp import certify_lex_optimal
from densefw.fw import harmonic_numbers_float
from densefw.polytope import lmo
from densefw.checks import curvature_witness


def report(num: int, desc: str, problems: list):
    ok = not problems
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if problems:
        line += " :: " + "; ".join(str(p) for p in problems[:4])
    print(line)
    assert ok, line


def convergence_instances():
    """The named graphs plus 20 seeded random multigraphs (n <= 8)."""
    graphs = [("three_tier", three_tier()), ("tri_pendant", tri_pendant()), ("k4", k4())]
    rng = random.Random(2024)
    for i in range(20):
        graphs.append((f"random_{i}", random_multigraph(rng, n_max=8, m_max=14)))
    return graphs


def test_criterion_01_three_tier_decomposition():
    problems = []
    t0 = time.perf_counter()
    g = three_tier()
    dec = decompose_supermodular(edge_count_fn(g))
    b = density_vector(edge_count_fn(g))
    elapsed = time.perf_counter() - t0
    if dec.blocks != ((0, 1, 2, 3), (4, 5, 6), (7,)):
        problems.append(f"blocks {dec.blocks}")
    if dec.densities != (Fraction(3, 2), Fraction(4, 3), Fraction(1)):
        problems.append(f"densities {dec.densities}")
    for block, dens in zip(dec.blocks, dec.densities):
        for v in block:
            if b.get(v) != dens:
                problems.append(f"vector[{v}] = {b.get(v)} != {dens}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    report(1, "three-level instance decomposes into blocks 3/2, 4/3, 1 in under 1s", problems)


def test_criterion_02_iterated_peeling_converges():
    problems = []
    eps = 0.05
    for name, g in convergence_instances():
        budget = int(10 * g.m * g.n * g.n / eps**2)
        ref = density_vector(edge_count_fn(g))
        t0 = time.perf_counter()
        res = greedy_pp(g, min(budget, 100_000), ref=ref, stop_dist=eps)
        elapsed = time.perf_counter() - t0
        last = res.trace.records[-1]
        if not (last.dist_ref <= eps and last.k <= budget):
            problems.append(f"{name}: dist {last.dist_ref:.4f} at k={last.k} (budget {budget})")
        if elapsed >= 30.0:
            problems.append(f"{name}: took {elapsed:.1f}s")
    report(2, "averaged peel vector reaches 0.05 of the exact density vector in budget", problems)


def test_criterion_03_harmonic_bound_never_violated():
    problems = []
    h = harmonic_numbers_float(2001)
    for name, g in convergence_instances():
        _, hi = curvature_bounds(g)
        growth = 1.0 + float(delta_for_graph(g))
        opt = float(sum(v * v for v in density_vector(edge_count_fn(g)).values))
        res = greedy_pp(g, 2000)
        bad = 0
        for rec in res.trace.records:
            bound = 2.0 * hi * growth * h[rec.k + 1] / (rec.k + 1)
            if rec.objective - opt > bound + 1e-9:
                bad += 1
        if bad:
            problems.append(f"{name}: {bad} violations")
    report(3, "noisy-oracle objective gap stays below the harmonic envelope for k <= 2000", problems)


def test_criterion_04_peel_is_an_additive_approximate_oracle():
    problems = []
    rng = random.Random(404)
    plain = scaled = 0
    for _ in range(200):
        g = random_multigraph(rng, n_max=8, m_max=14)
        w = [rng.randint(0, 20) for _ in range(g.n)]
        sq = sum(d * d for d in g.degrees)
        dstar = lmo(edge_count_fn(g), w)  # the min-cost orientation's load
        base = dstar.dot(w)
        if weighted_greedy(g, w).dhat.dot(w) > base + sq:
            plain += 1
        for kk in (1, 10, 1000):
            dk = weighted_greedy(g, [kk * wi for wi in w]).dhat
            if dk.dot(w) > base + Fraction(sq, kk):
                scaled += 1
    if plain:
        problems.append(f"{plain} plain violations")
    if scaled:
        problems.append(f"{scaled} scaled violations")

    super_bad = 0
    rng2 = random.Random(405)
    for i in range(100):
        g = random_multigraph(rng2, n_max=7, m_max=12)
        f = edge_count_fn(g)
        if i % 3 == 0 and g.n >= 4:
            away = tuple(rng2.sample(range(g.n), rng2.randint(1, g.n - 2)))
            f = contract(f, away)
        n = len(f.ground)
        w = [rng2.randint(0, 15) for _ in range(n)]
        err = n * sum(
            f.marginal(u, f.ground_set - {u}) ** 2 for u in f.ground
        )
        dhat = weighted_supergreedy(f, w).dhat
        dstar = lmo(f, w)
        if dhat.dot(w) > dstar.dot(w) + err:
            super_bad += 1
    if super_bad:
        problems.append(f"{super_bad} supermodular violations")
    report(4, "peeling output is within the stated additive error of the exact oracle", problems)


def test_criterion_05_greedy_oracle_matches_vertex_enumeration():
    problems = []
    rng = random.Random(505)
    oracles = []
    for name, g in canonical_graphs():
        if g.n <= 6:
            oracles.append((f"{name}/edges", edge_count_fn(g)))
        if 1 <= g.m <= 6:
            oracles.append((f"{name}/rank", graphic_rank_fn(g)))
    for name, f in oracles:
        verts = enumerate_base_vertices(f)
        bad = 0
        for _ in range(100):
            w = [Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in f.ground]
            got = lmo(f, w).dot(w)
            want = min(v.dot(w) for v in verts)
            if got != want:
                bad += 1
        if bad:
            problems.append(f"{name}: {bad}/100 mismatches")
    report(5, "sorted-order oracle attains the exact vertex minimum on every small oracle", problems)


def test_criterion_06_decomposition_variants_agree():
    problems = []
    rng = random.Random(606)
    for i in range(50):
        g = random_multigraph(rng, n_max=6, m_max=9)
        if not verify_decomposition_equivalence(graphic_rank_fn(g)):
            problems.append(f"instance {i}")
    report(6, "deletion blocks of the rank equal contraction blocks of its dual, reciprocally", problems)


def test_criterion_07_density_vector_is_certified_and_lex_extreme():
    problems = []
    for name, g in canonical_graphs():
        fns = []
        if g.n <= 7:
            fns.append((f"{name}/edges", edge_count_fn(g)))
        if 1 <= g.m <= 7:
            fns.append((f"{name}/rank", graphic_rank_fn(g)))
        for fname, f in fns:
            b = density_vector(f)
            if not verify_base(f, b):
                problems.append(f"{fname}: not a base")
                continue
            if not certify_lex_optimal(f, b):
                problems.append(f"{fname}: certificate failed")
            asc = sorted(b.values)
            desc = sorted(b.values, reverse=True)
            for v in enumerate_base_vertices(f):
                if asc < sorted(v.values) or desc > sorted(v.values, reverse=True):
                    problems.append(f"{fname}: vertex {v.values} beats it")
                    break
    report(7, "density vector verifies as a base, certifies optimal, and is lex extreme", problems)


def test_criterion_08_tree_packing_hits_tolerance_and_matches_partitions():
    problems = []
    eps = 0.02
    for name, g in (("triangle", triangle()), ("tri_pendant", tri_pendant())):
        m = g.m
        ref = ideal_loads(g)
        budgets = (
            ("averaging", AVERAGING, math.ceil(4 * m * math.log(m / eps) / eps**2)),
            ("standard", STANDARD, math.ceil(4 * m / eps**2)),
        )
        for sched_name, sched, budget in budgets:
            _, tr = fw_tree_pack(g, budget, schedule=sched, ref=ref, stop_dist=eps)
            last = tr.records[-1]
            if not (last.dist_ref <= eps and last.k <= budget):
                problems.append(
                    f"{name}/{sched_name}: dist {last.dist_ref:.4f} at k={last.k} of {budget}")
    for name, g in canonical_graphs():
        if tnw_ideal_loads(g).values != ideal_loads(g).values:
            problems.append(f"{name}: partition oracle disagrees")
    report(8, "tree packing reaches 0.02 within budget; ideal loads match partition search", problems)


def test_criterion_09_curvature_witness_inside_bracket():
    problems = []
    rng = random.Random(909)
    for i in range(20):
        g = random_multigraph(rng, n_max=6, m_max=10)
        lo, hi = curvature_bounds(g)
        wit = curvature_witness(g)
        if not lo <= wit <= hi:
            problems.append(f"instance {i}: {lo} <= {wit} <= {hi}")
    report(9, "orientation-pair curvature witness lands in [2m, 2*sum(deg^2)]", problems)


def test_criterion_10_optimal_set_families_are_lattice_closed():
    problems = []
    for name, g in canonical_graphs():
        f = edge_count_fn(g)
        dens = {}
        for r in range(1, g.n + 1):
            for c in combinations(range(g.n), r):
                dens[frozenset(c)] = Fraction(f.value(c), r)
        top = max(dens.values())
        winners = {s for s, d in dens.items() if d == top}
        for a, b in combinations(winners, 2):
            if a | b not in winners:
                problems.append(f"{name}: density maximizers not union-closed")
                break
        if sum(1 for s in winners if not any(s < t for t in winners)) != 1:
            problems.append(f"{name}: maximal densest set not unique")

        if g.m == 0:
            continue
        fr = graphic_rank_fn(g)
        full = frozenset(fr.ground)
        f_full = fr.value(full)
        ratios = {}
        for r in range(g.m):
            for c in combinations(fr.ground, r):
                s = frozenset(c)
                fs = fr.value(s)
                if fs < f_full:
                    ratios[s] = Fraction(g.m - r, f_full - fs)
        bottom = min(ratios.values())
        winners = {s for s, d in ratios.items() if d == bottom}
        for a, b in combinations(winners, 2):
            if a & b not in winners:
                problems.append(f"{name}: ratio minimizers not intersection-closed")
                break
        if sum(1 for s in winners if not any(t < s for t in winners)) != 1:
            problems.append(f"{name}: minimal ratio set not unique")
    report(10, "maximizers are union-closed (unique max); minimizers intersection-closed (unique min)", problems)
