"""Peeling as an approximate linear minimization oracle.

weighted_greedy repeatedly removes the vertex minimizing w(u) + deg(u) in
the remaining graph and records its degree at removal time; each edge is
charged to whichever endpoint leaves first, so the recorded vector is the
load of an integral orientation and hence a base of the edge-count
polytope. weighted_supergreedy generalizes the rule to w(u) + f(u | rest)
for any supermodular oracle; the last element records f({u}) so the
recorded marginals still telescope to f(V).

greedy_pp / supergreedy_pp iterate the peel with cumulative weights: after
k rounds the cumulative load vector w_k equals k * b^(k), where b^(k) is
the averaging-schedule Frank-Wolfe iterate driven by this noisy oracle.
The marginals telescope (dhat summed over a suffix of the order is f of that
suffix), and the best suffix density seen anywhere (including the full set;
the first round is plain unweighted peeling) is tracked exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import GroundSetTooLargeError
from .fw import ConvergenceTrace, TraceRecord
from .graph import MultiGraph
from .polytope import BaseVector
from .setfn import SetFunctionOracle

SUPERGREEDY_CAP = 200  # largest ground set Super-Greedy++ accepts: one round makes O(n^2) oracle calls


@dataclass(frozen=True)
class PeelResult:
    """One peeling pass: removal order and recorded marginals (a base
    vector); dhat summed over order[i:] is f of that suffix."""

    order: tuple[int, ...]
    dhat: BaseVector


def weighted_greedy(g: MultiGraph, w: Sequence) -> PeelResult:
    """Peel argmin w(u) + deg(u), ties to the smaller vertex index.

    Lazy binary heap: stale entries are skipped by comparing the stored
    degree against the live one. Integer weights stay exact.
    """
    n = g.n
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    deg = [g.degree(v) for v in range(n)]
    adj = g.adjacency
    alive = [True] * n
    heap = [(w[u] + deg[u], u, deg[u]) for u in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    dhat: list[int] = [0] * n
    for _ in range(n):
        while True:
            _, u, du = heapq.heappop(heap)
            if alive[u] and du == deg[u]:
                break
        order.append(u)
        dhat[u] = deg[u]
        alive[u] = False
        for x in adj[u]:
            if alive[x]:
                deg[x] -= 1
                heapq.heappush(heap, (w[x] + deg[x], x, deg[x]))
    return PeelResult(tuple(order), BaseVector(tuple(range(n)), tuple(dhat)))


def weighted_supergreedy(f: SetFunctionOracle, w: Sequence) -> PeelResult:
    """Peel argmin w(u) + f(u | rest) from a supermodular oracle; the final
    element records f of its own singleton. Marginals are recomputed each
    round, so this is O(n^2) oracle calls; ground sets above SUPERGREEDY_CAP
    raise GroundSetTooLargeError before the first one."""
    return _supergreedy(f, w, {})


def _supergreedy(f: SetFunctionOracle, w: Sequence, cache: dict) -> PeelResult:
    """weighted_supergreedy with f's values kept in `cache`, keyed by
    bitmask over positions in f.ground."""
    if f.kind != "supermodular":
        raise ValueError("weighted_supergreedy needs a supermodular oracle")
    ground = list(f.ground)
    n = len(ground)
    if n > SUPERGREEDY_CAP:
        raise GroundSetTooLargeError(f"supermodular peeling limited to {SUPERGREEDY_CAP} elements, got {n}")
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    pos = {e: i for i, e in enumerate(ground)}
    cur = frozenset(ground)
    mask = (1 << n) - 1
    if mask not in cache:
        cache[mask] = f._eval(cur)
    order: list[int] = []
    dhat: list = [0] * n
    while cur:
        fcur = cache[mask]  # the full set, or the set the last round kept
        if len(cur) == 1:
            u = next(iter(cur))
            order.append(u)
            dhat[pos[u]] = fcur  # f({u}): keeps the totals at f(V)
            break
        best_key = None
        best_u = None
        best_marg = None
        for u in sorted(cur):
            rest = mask ^ (1 << pos[u])
            if rest not in cache:
                cache[rest] = f._eval(cur - {u})
            marg = fcur - cache[rest]
            key = (w[pos[u]] + marg, u)
            if best_key is None or key < best_key:
                best_key, best_u, best_marg = key, u, marg
        order.append(best_u)
        dhat[pos[best_u]] = best_marg
        cur -= {best_u}
        mask ^= 1 << pos[best_u]
    return PeelResult(tuple(order), BaseVector(tuple(ground), tuple(dhat)))


@dataclass
class GreedyPPResult:
    """Outcome of iterated peeling.

    best_set/best_density: densest suffix seen anywhere, exact arithmetic,
    first strict improvement wins ties. loads: final cumulative marginal
    vector (equals iterations * b^(final) exactly). With keep_iterates, each
    trace record's `iterate` holds b^(k) = loads_k / k as exact rationals.
    """

    best_set: frozenset[int]
    best_density: Fraction
    loads: tuple
    iterations: int
    trace: ConvergenceTrace

    def to_json_dict(self) -> dict:
        return {
            "best_set": sorted(self.best_set),
            "best_density": str(Fraction(self.best_density)),
            "iterations": self.iterations,
        }


def _iterated_peel(
    ground: tuple[int, ...],
    peel_once,
    iterations: int,
    ref,
    stop_dist,
    keep_iterates: bool,
) -> GreedyPPResult:
    n = len(ground)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    w: list = [0] * n
    pos = {e: i for i, e in enumerate(ground)}
    refv = None if ref is None else [float(v) for v in (ref.values if isinstance(ref, BaseVector) else ref)]
    trace = ConvergenceTrace()
    for k in range(1, iterations + 1):
        pr = peel_once(w)
        dhat = pr.dhat.values  # aligned with ground
        w = [a + d for a, d in zip(w, dhat)]
        left = sum(dhat)  # f(ground), as the marginals telescope
        if k == 1:
            best_density, best_set = Fraction(left, n), frozenset(ground)
        # left is f(order[i:]); compare left/(n-i) with the best by cross-multiplying
        best_i = None
        for i, u in enumerate(pr.order):
            if left * best_density.denominator > best_density.numerator * (n - i):
                best_density = Fraction(left, n - i)
                best_i = i
            left -= dhat[pos[u]]
        if best_i is not None:
            best_set = frozenset(pr.order[best_i:])
        num = sum(v * v for v in w)
        objective = num / (k * k) if isinstance(num, int) else float(num) / (k * k)
        dist = None
        if refv is not None:
            dist = math.sqrt(sum((float(v) / k - r) ** 2 for v, r in zip(w, refv)))
        iterate = tuple(Fraction(v, k) if isinstance(v, int) else v / k for v in w) if keep_iterates else None
        trace.records.append(TraceRecord(k=k, objective=float(objective), gamma=1.0 / k, dist_ref=dist, iterate=iterate))
        if stop_dist is not None and dist is not None and dist <= stop_dist:
            break
    return GreedyPPResult(best_set, best_density, tuple(w), len(trace.records), trace)


def greedy_pp(
    g: MultiGraph,
    iterations: int,
    ref=None,
    stop_dist: Optional[float] = None,
    keep_iterates: bool = False,
) -> GreedyPPResult:
    """Iterated degree peeling with cumulative integer weights. One
    iteration is plain unweighted peeling; the densest suffix across all
    iterations is the reported set."""
    return _iterated_peel(
        tuple(range(g.n)),
        lambda w: weighted_greedy(g, w),
        iterations,
        ref,
        stop_dist,
        keep_iterates,
    )


def supergreedy_pp(
    f: SetFunctionOracle,
    iterations: int,
    ref=None,
    stop_dist: Optional[float] = None,
    keep_iterates: bool = False,
) -> GreedyPPResult:
    """Iterated supermodular peeling with cumulative rational weights; one
    value cache serves the whole run, as rounds repeat sets once the order settles."""
    cache: dict = {}
    return _iterated_peel(
        f.ground,
        lambda w: _supergreedy(f, w, cache),
        iterations,
        ref,
        stop_dist,
        keep_iterates,
    )
