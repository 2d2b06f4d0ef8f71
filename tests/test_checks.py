"""The bundled invariant checker, exercised on small instances."""

import random

import pytest

from conftest import k4, random_multigraph, single_edge, three_tier, tri_pendant, triangle
from densefw import MultiGraph, curvature_bounds, edge_count_fn, verify_base
from densefw.checks import (
    curvature_witness,
    integral_orientation_loads,
    run_instance_checks,
)


class TestOrientationEnumeration:
    def test_shape_and_row_sums(self):
        g = tri_pendant()
        loads = integral_orientation_loads(g)
        assert len(loads) == 2 ** g.m
        assert all(len(row) == g.n for row in loads)
        assert all(sum(row) == g.m for row in loads)

    def test_single_edge_rows(self):
        rows = integral_orientation_loads(single_edge())
        assert sorted(map(tuple, rows)) == [(0, 1), (1, 0)]

    def test_size_cap(self):
        g = MultiGraph(2, ((0, 1),) * 11)
        with pytest.raises(ValueError):
            integral_orientation_loads(g)


class TestCurvatureWitness:
    def test_triangle_value(self):
        # reversing all three edges moves every coordinate by 2: ||s-x||^2 = 8
        assert curvature_witness(triangle()) == 16

    def test_single_edge_value(self):
        assert curvature_witness(single_edge()) == 4

    def test_within_bracket(self):
        for g in (single_edge(), triangle(), tri_pendant(), k4()):
            lo, hi = curvature_bounds(g)
            assert lo <= curvature_witness(g) <= hi

    def test_matches_pairwise_maximum(self):
        rng = random.Random(29)
        for _ in range(100):
            g = random_multigraph(rng, n_max=8, m_max=10)
            rows = set(integral_orientation_loads(g))
            want = 2 * max(sum((a - b) ** 2 for a, b in zip(s, x)) for s in rows for x in rows)
            assert curvature_witness(g) == want


class TestRunInstanceChecks:
    def test_all_green_on_named_instances(self):
        for g in (triangle(), tri_pendant(), three_tier(), k4()):
            results = run_instance_checks(g)
            assert results, "expected at least one check to run"
            for r in results:
                assert r.ok, f"{r.name}: {r.detail}"

    def test_treepack_checks_skipped_when_disconnected(self):
        results = run_instance_checks(MultiGraph(4, ((0, 1), (2, 3))))
        names = {r.name for r in results}
        assert "ideal_loads_match_partitions" not in names
        assert "max_load_is_inv_strength" not in names
        assert all(r.ok for r in results)

    def test_sparse_graph_above_enumeration_cap(self):
        """Orientations of a few edges are cheap, but checking each against
        the base polytope scans 2^n vertex subsets: above ENUM_CAP the base
        check is skipped and the curvature bracket still runs."""
        results = run_instance_checks(MultiGraph(22, ((0, 21),)))
        names = [r.name for r in results]
        assert "orientation_loads_are_bases" not in names
        assert "curvature_bracket" in names
        assert all(r.ok for r in results)

    def test_results_are_deterministic_for_a_seed(self):
        a = run_instance_checks(triangle(), seed=7)
        b = run_instance_checks(triangle(), seed=7)
        assert [(r.name, r.ok, r.detail) for r in a] == [
            (r.name, r.ok, r.detail) for r in b]


def test_orientation_rows_accepted_by_base_check():
    g = triangle()
    loads = integral_orientation_loads(g)
    assert all(isinstance(row, tuple) for row in loads)
    assert all(type(x) is int for row in loads for x in row)
    assert all(verify_base(edge_count_fn(g), row) for row in loads)
