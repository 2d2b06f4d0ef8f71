"""Frank-Wolfe driver, step schedules, traces, and curvature bookkeeping."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest

from conftest import k4, p3, random_multigraph, single_edge, star, tri_pendant, triangle
from densefw import (
    AVERAGING,
    STANDARD,
    BaseVector,
    curvature_bounds,
    delta_for_graph,
    density_vector,
    edge_count_fn,
    frank_wolfe,
    fw_qp,
    graphic_rank_fn,
    harmonic_bound,
    lmo,
    verify_base,
)
from densefw.errors import NumericalError
from densefw.fw import EXACT_ITERATION_CAP, harmonic_number, harmonic_numbers_float


def orientation_lmo(g):
    """The min-cost orientation's load: the greedy vertex of g's edge-count polytope."""
    return partial(lmo, edge_count_fn(g))


def orientation_qp(g, **kw):
    """fw_qp on the orientation polytope, as the fw-qp command runs it."""
    return fw_qp(edge_count_fn(g), **kw)


def gammas(schedule, iterations=4):
    """The gamma column of a trace: record k holds the step from iterate
    k-1 to k, gamma_{k-1}."""
    point = BaseVector((0,), (1,))
    _, trace = frank_wolfe(lambda w: point, (0,), schedule=schedule, iterations=iterations)
    return [rec.gamma for rec in trace.records]


class TestStepSchedule:
    def test_averaging_rule(self):
        assert gammas(AVERAGING) == [1.0, 1 / 2, 1 / 3, 1 / 4]

    def test_standard_rule(self):
        assert gammas(STANDARD) == [1.0, 2 / 3, 1 / 2, 2 / 5]

    def test_gamma_stays_in_unit_interval(self):
        for sched in (AVERAGING, STANDARD):
            assert all(0 < g <= 1 for g in gammas(sched, 200))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="^unknown schedule 'momentum'$"):
            gammas("momentum")

    def test_names(self):
        assert (AVERAGING, STANDARD) == ("avg", "standard")  # the CLI's --schedule choices
        for name in ("fast", "averaging"):  # no alias beyond the CLI's two names
            with pytest.raises(ValueError):
                gammas(name)


class TestFrankWolfe:
    def test_singleton_polytope_is_a_fixed_point(self):
        f = graphic_rank_fn(p3())
        for k in range(1, 6):
            x, trace = frank_wolfe(lambda w: lmo(f, w), (0, 0), iterations=k, exact=True)
            assert x.values == (1, 1)
            assert all(rec.objective == 2.0 for rec in trace.records)

    def test_single_edge_two_exact_steps_reach_the_middle(self):
        g = single_edge()
        first, _ = frank_wolfe(orientation_lmo(g), (1, 0), iterations=1, exact=True)
        assert first.values == (0, 1)
        x, _ = frank_wolfe(orientation_lmo(g), (1, 0), iterations=2, exact=True)
        assert x.values == (Fraction(1, 2), Fraction(1, 2))

    def test_default_start_is_lmo_at_zero(self):
        g = triangle()
        x, trace = orientation_qp(g, iterations=1, exact=True)
        # the all-zero query returns (2,1,0); the full first step moves to
        # the LMO answer at those weights
        assert x.values == lmo(edge_count_fn(g), (2, 1, 0)).values

    def test_averaging_mean_identity(self):
        g = tri_pendant()
        lmo = orientation_lmo(g)
        w0 = lmo((0,) * 4).values
        # replay: k * b^(k), the .x of a k-iteration run times k, must equal
        # the sum of the first k oracle answers, so (k+1) b^(k+1) = k b^(k) + d^(k+1)
        answers = []
        cur = w0
        for k in range(1, 13):
            x, _ = frank_wolfe(lmo, w0, iterations=k, exact=True)
            answers.append(lmo(cur).values)
            total = tuple(sum(col) for col in zip(*answers))
            assert tuple(v * k for v in x.values) == total
            cur = total

    def test_averaging_queries_x0_then_the_running_sums(self):
        g = tri_pendant()
        inner = orientation_lmo(g)
        queries = []

        def spy(w):
            queries.append(tuple(w))
            return inner(w)

        w0 = (1, 1, 2, 0)
        for exact in (True, False):
            queries.clear()
            frank_wolfe(spy, w0, iterations=6, exact=exact)
            assert queries[0] == w0
            total = (0,) * 4
            for k in range(1, 6):
                total = tuple(t + d for t, d in zip(total, inner(queries[k - 1]).values))
                assert queries[k] == total
                assert all(type(v) is int for v in queries[k])

    def test_standard_queries_w0_then_the_iterates(self):
        g = tri_pendant()
        inner = orientation_lmo(g)
        queries = []

        def spy(w):
            queries.append(tuple(w))
            return BaseVector((10, 11, 12, 13), inner(w).values)

        w0 = (1, 1, 2, 0)
        for exact in (True, False):
            queries.clear()
            x, _ = frank_wolfe(spy, w0, schedule=STANDARD, iterations=6, exact=exact)
            assert x.ground == (10, 11, 12, 13)  # the ground of the LMO's answers
            assert queries[0] == w0
            for k in range(1, 6):
                xk, _ = frank_wolfe(inner, w0, schedule=STANDARD, iterations=k, exact=exact)
                assert queries[k] == xk.values

    def test_exact_averaging_runs_past_the_standard_cap(self):
        g = tri_pendant()
        lmo = orientation_lmo(g)
        iters = 3 * EXACT_ITERATION_CAP
        x, trace = orientation_qp(g, iterations=iters, exact=True)
        assert len(trace.records) == iters
        total = [0] * 4
        cur = lmo((0,) * 4).values
        for rec in trace.records:
            total = [t + d for t, d in zip(total, lmo(cur).values)]
            assert rec.objective == float(Fraction(sum(t * t for t in total), rec.k ** 2))
            cur = total
        assert x.values == tuple(Fraction(t, iters) for t in total)
        assert all(type(v) is Fraction for v in x.values)

    def test_exact_iterates_stay_in_the_polytope(self):
        for g in (triangle(), tri_pendant(), k4()):
            f = edge_count_fn(g)
            for k in range(1, 21):
                x, _ = orientation_qp(g, iterations=k, exact=True)
                assert verify_base(f, x)

    def test_standard_schedule_objective_bound(self):
        for g in (triangle(), tri_pendant(), k4()):
            f = edge_count_fn(g)
            opt = float(sum(v * v for v in density_vector(f).values))
            _, hi = curvature_bounds(g)
            _, trace = orientation_qp(g, schedule=STANDARD, iterations=300)
            for rec in trace.records:
                assert rec.objective - opt <= 2 * hi / (rec.k + 2) + 1e-9

    def test_triangle_long_run_reaches_uniform_vector(self):
        g = triangle()
        ref = density_vector(edge_count_fn(g))
        x, trace = orientation_qp(g, iterations=10_000, ref=ref)
        assert trace.records[-1].dist_ref <= 0.05

    def test_early_stop_on_distance(self):
        g = triangle()
        ref = density_vector(edge_count_fn(g))
        _, trace = orientation_qp(g, iterations=10_000, ref=ref, stop_dist=0.05)
        assert len(trace.records) < 10_000
        assert trace.records[-1].dist_ref <= 0.05

    def test_iteration_validation(self):
        with pytest.raises(ValueError):
            frank_wolfe(lambda w: None, (0,), iterations=0)
        with pytest.raises(ValueError):
            frank_wolfe(lambda w: None, (0,), schedule=STANDARD, iterations=21, exact=True)

    def test_non_finite_iterate_detected(self):
        for values in ((float("inf"),), (float("nan"),), (1.0, 0.0, float("nan")), (2.0, float("-inf"))):
            bad = lambda w, values=values: BaseVector(tuple(range(len(values))), values)
            with pytest.raises(NumericalError):
                frank_wolfe(bad, (0.0,) * len(values), iterations=3)


class TestTrace:
    def test_csv_shape(self, tmp_path):
        g = triangle()
        ref = density_vector(edge_count_fn(g))
        _, trace = orientation_qp(g, iterations=4, ref=ref)
        text = trace.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "k,objective,gamma,dist_ref"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == 1.0
        float(first[1]), float(first[3])  # parse back
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        assert path.read_text() == text

    def test_distance_column_blank_without_reference(self):
        g = triangle()
        _, trace = orientation_qp(g, iterations=2)
        for line in trace.to_csv().strip().split("\n")[1:]:
            assert line.endswith(",")


class TestHarmonic:
    def test_exact_values(self):
        assert harmonic_number(0) == 0
        assert harmonic_number(1) == 1
        assert harmonic_number(3) == Fraction(11, 6)
        with pytest.raises(ValueError):
            harmonic_number(-1)
        for n in range(60, -1, -1):
            assert harmonic_number(n) == sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))

    def test_float_table_matches(self):
        h = harmonic_numbers_float(30)
        assert len(h) == 31
        for i in (0, 1, 7, 30):
            assert h[i] == pytest.approx(float(harmonic_number(i)))

    def test_bound_values(self):
        assert harmonic_bound(0, 1, 0) == 2
        assert harmonic_bound(1, 1, 0) == Fraction(3, 2)
        with pytest.raises(ValueError):
            harmonic_bound(-1, 1, 0)

    def test_bound_nonincreasing(self):
        vals = [harmonic_bound(k, 5, Fraction(1, 3)) for k in range(1, 60)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestCurvature:
    def test_bracket_values(self):
        assert curvature_bounds(triangle()) == (6, 24)
        assert curvature_bounds(star()) == (6, 24)
        assert curvature_bounds(single_edge()) == (2, 4)

    def test_delta_values(self):
        assert delta_for_graph(triangle()) == 4
        assert delta_for_graph(single_edge()) == 2

    def test_delta_regular_graph_is_twice_the_degree(self):
        assert delta_for_graph(k4()) == 6

    def test_delta_needs_edges(self):
        from densefw import MultiGraph

        with pytest.raises(ValueError):
            delta_for_graph(MultiGraph(3, ()))

    def test_bracket_ordering_random(self):
        rng = random.Random(47)
        for _ in range(20):
            g = random_multigraph(rng)
            lo, hi = curvature_bounds(g)
            assert lo <= hi
            assert math.isclose(float(delta_for_graph(g)), hi / (2 * g.m))
