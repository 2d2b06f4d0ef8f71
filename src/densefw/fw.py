"""Frank-Wolfe for min sum(x^2) over a base polytope: the one iterative
loop of the package.

The gradient of the objective is 2x, and linear minimization oracles are
scale-invariant, so the LMO may be queried at any positive multiple of the
current iterate. Two step schedules are supported: the standard 2/(k+2)
rule, which queries at the iterate, and the averaging rule 1/(k+1), under
which the iterate b^(k) is exactly the mean of the first k LMO answers.
Both take the full step gamma_0 = 1 first, so a run starts at its first
LMO query: only the answer to it enters an iterate. The averaging path
keeps the running sum of the answers in their own number type, queries
the LMO at that sum and divides only for output, so integer answers stay
exactly countable and (k+1) b^(k+1) = k b^(k) + d^(k+1) is literal. For a
peeling LMO, querying at the cumulative loads is the Greedy++ rule, so
greedy tree packing, Greedy++ and Super-Greedy++ all run on `frank_wolfe`.
`fw_qp` is the run with the exact greedy LMO: `fw-qp` on edge count, tree
packing on graphic rank.

`harmonic_bound` is the objective-gap guarantee for averaging steps with a
delta-approximate LMO: 2 * C * (1 + delta) * H_{k+1} / (k+1). Curvature C
for the edge-count polytope is bracketed by [2m, 2 * sum deg^2].
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import partial

from .errors import NumericalError, Record
from .graph import MultiGraph
from .polytope import BaseVector, lmo
from .setfn import SetFunctionOracle

AVERAGING = "avg"  # step schedule gamma_k = 1/(k+1), the CLI's --schedule avg
STANDARD = "standard"  # step schedule gamma_k = 2/(k+2)


class TraceRecord(Record):
    k: int
    objective: float
    gamma: float
    dist_ref: float | None


class ConvergenceTrace(Record):
    """Per-iteration log. Row k describes iterate b^(k): the objective
    sum(b^2), the step size used to produce it, and an optional distance
    to a reference vector."""

    records: list[TraceRecord]

    def write_csv(self, path) -> None:
        """Write the header, then one line per record; every line ends in '\\n'."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,objective,gamma,dist_ref\n")
            for r in self.records:
                dist = "" if r.dist_ref is None else format(r.dist_ref, ".12g")
                fh.write(f"{r.k},{format(r.objective, '.12g')},{format(r.gamma, '.12g')},{dist}\n")


def frank_wolfe(
    lmo: Callable[[Sequence], BaseVector],
    w0: Sequence,
    *,
    schedule: str = AVERAGING,
    iterations: int = 100,
    ref: Sequence | None = None,
    exact: bool = False,
    stop_dist: float | None = None,
) -> tuple[BaseVector, ConvergenceTrace]:
    """Run T iterations of Frank-Wolfe on min sum(x^2).

    `schedule` is AVERAGING or STANDARD. The LMO is queried at w0, then at
    k * b^(k) (AVERAGING) or b^(k) (STANDARD); the result's ground is the
    ground of its answers. `ref`, as long as w0 and, for a BaseVector, over
    the answers' ground, enables the dist_ref trace column and the optional
    early stop at stop_dist. Exact mode needs int or Fraction LMO answers
    and returns Fraction iterates; for int answers the denominators divide
    k, or k(k+1)/2 under STANDARD.
    """
    if schedule not in (AVERAGING, STANDARD):
        raise ValueError(f"unknown schedule {schedule!r}")
    averaging = schedule == AVERAGING
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    refv = None if ref is None else [float(r) for r in (ref.values if isinstance(ref, BaseVector) else ref)]
    if refv is not None and len(refv) != len(w0):
        raise ValueError(f"reference has {len(refv)} elements, expected {len(w0)}")

    # q is where the LMO is queried. Averaging: the running sum of the
    # answers, in their own number type; the iterate is q / k.
    # Standard: the iterate itself (scale 1).
    q = w0
    trace = ConvergenceTrace([])
    for k in range(1, iterations + 1):
        gamma = Fraction(1, k) if averaging else Fraction(2, k + 1)  # gamma_{k-1}, from iterate k-1 to k
        answer = lmo(q)
        if k == 1:
            if isinstance(ref, BaseVector) and ref.ground != answer.ground:
                raise ValueError("reference ground differs from the LMO's ground")
            q = answer.values  # gamma_0 = 1 under either schedule
        elif averaging:
            q = list(map(operator.add, q, answer.values))
        else:
            g = gamma if exact else float(gamma)
            keep = 1 - g
            q = [keep * t + g * dv for t, dv in zip(q, answer.values)]
        scale = k if averaging else 1
        if exact:
            objective = float(sum(map(operator.mul, q, q)) / (scale * scale))
            x = [float(t / scale) for t in q] if refv is not None else None
        else:
            x = [float(t) / scale for t in q]
            if not all(map(math.isfinite, x)):
                raise NumericalError(f"non-finite iterate at iteration {k}")
            objective = sum(map(operator.mul, x, x), 0.0)
        dist = None
        if refv is not None:
            dist = math.sqrt(sum((v - r) ** 2 for v, r in zip(x, refv)))
        trace.records.append(TraceRecord(k, objective, float(gamma), dist))
        if stop_dist is not None and dist is not None and dist <= stop_dist:
            break
    if exact:  # one Fraction per distinct value, shared by the elements holding it
        x = tuple(map({t: Fraction(t, scale) for t in set(q)}.__getitem__, q))
    return BaseVector(answer.ground, x), trace


def fw_qp(f: SetFunctionOracle, iterations: int, *, schedule: str = AVERAGING, ref: Sequence | None = None,
          exact: bool = False, stop_dist: float | None = None) -> tuple[BaseVector, ConvergenceTrace]:
    """`frank_wolfe` on min sum(x^2) over the base polytope of f, with
    Edmonds' greedy vertex `lmo(f, .)` as the exact LMO, first queried at
    the greedy vertex for all-zero weights (smallest indices first)."""
    return frank_wolfe(partial(lmo, f), lmo(f, [0] * len(f.ground)).values, schedule=schedule,
                       iterations=iterations, ref=ref, exact=exact, stop_dist=stop_dist)


_HARMONIC = [Fraction(0)]  # exact H_0, H_1, ..., grown on demand


def harmonic_number(n: int) -> Fraction:
    """H_n as an exact rational, read from prefix sums that grow on demand
    (small n only; denominators grow fast)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_HARMONIC) <= n:
        _HARMONIC.append(_HARMONIC[-1] + Fraction(1, len(_HARMONIC)))
    return _HARMONIC[n]


def harmonic_numbers_float(upto: int) -> list[float]:
    """[H_0, H_1, ..., H_upto] as floats, for bound checks over long runs."""
    h = [0.0] * (upto + 1)
    acc = 0.0
    for i in range(1, upto + 1):
        acc += 1.0 / i
        h[i] = acc
    return h


def harmonic_bound(k: int, curvature_upper, delta) -> Fraction:
    """Objective-gap bound 2 * C * (1 + delta) * H_{k+1} / (k+1) at iterate k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    c = Fraction(curvature_upper)
    d = Fraction(delta)
    return 2 * c * (1 + d) * harmonic_number(k + 1) / (k + 1)


def degree_square_sum(g: MultiGraph) -> int:
    """sum deg^2: one weighted peel's additive error bound, and the scale of the curvature bracket and delta."""
    return sum(d * d for d in g.degrees)


def curvature_bounds(g: MultiGraph) -> tuple[int, int]:
    """(2m, 2 * sum deg^2): bracket for the edge-count polytope curvature,
    the worst-case 2 ||s - x||^2 over pairs of feasible points."""
    return 2 * g.m, 2 * degree_square_sum(g)


def delta_for_graph(g: MultiGraph) -> Fraction:
    """LMO inaccuracy factor sum(deg^2)/m used in the peeling analysis.

    Equals 2d on a d-regular graph. Needs m >= 1.
    """
    if g.m == 0:
        raise ValueError("delta undefined for empty edge set")
    return Fraction(degree_square_sum(g), g.m)
