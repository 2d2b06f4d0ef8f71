"""Peeling as an approximate linear minimization oracle.

weighted_greedy repeatedly removes the vertex minimizing w(u) + deg(u) in
the remaining graph and records its degree at removal time; each edge is
charged to whichever endpoint leaves first, so the recorded vector is the
load of an integral orientation and hence a base of the edge-count
polytope. weighted_supergreedy generalizes the rule to w(u) + f(u | rest)
for any supermodular oracle; the last element records f({u}) so the
recorded marginals still telescope to f(V).

greedy_pp / supergreedy_pp are fw.frank_wolfe with the averaging schedule
and the peel as its (noisy) LMO: frank_wolfe queries it at the running sum
of its answers, so round k+1 peels with the cumulative loads k * b^(k), which
is the Greedy++ rule. The marginals telescope (dhat summed over a suffix of
the order is f of that suffix), and the LMO wrapper tracks, exactly, the
best suffix density seen in any round (including the full set; the first
round is plain unweighted peeling).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import GroundSetTooLargeError, OracleFlagError
from .fw import ConvergenceTrace, frank_wolfe
from .graph import MultiGraph
from .polytope import BaseVector
from .setfn import SUPERMODULAR, SetFunctionOracle

SUPERGREEDY_CAP = 200  # largest ground set Super-Greedy++ accepts: one round makes O(n^2) oracle calls


@dataclass(frozen=True)
class PeelResult:
    """One peeling pass: removal order and recorded marginals (a base
    vector); dhat summed over order[i:] is f of that suffix."""

    order: tuple[int, ...]
    dhat: BaseVector


def weighted_greedy(g: MultiGraph, w: Sequence[int]) -> PeelResult:
    """Peel argmin w(u) + deg(u), ties to the smaller vertex index.

    Weights must be ints (any sign, any size); anything else raises
    ValueError. Lazy binary heap of one int per entry, key * n + u with
    key = w(u) + deg(u): as 0 <= u < n, these ints order like (key, u).
    An entry is stale when it differs from the vertex's live one, which is
    None once the vertex is peeled.
    """
    n = g.n
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    if not set(map(type, w)) <= {int}:
        raise ValueError("weighted_greedy needs int weights")
    deg = g.degrees
    adj = g.adjacency
    live = [(w[u] + deg[u]) * n + u for u in range(n)]
    heap = live[:]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    order: list[int] = []
    dhat: list[int] = [0] * n
    for _ in range(n):
        e = pop(heap)
        while e != live[e % n]:
            e = pop(heap)
        u = e % n
        order.append(u)
        dhat[u] = e // n - w[u]  # the degree left at removal
        live[u] = None
        for x in adj[u]:
            if live[x] is not None:
                live[x] -= n  # one edge fewer: key - 1
                push(heap, live[x])
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
    if f.kind != SUPERMODULAR:
        raise OracleFlagError("weighted_supergreedy needs a supermodular oracle")
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
    first strict improvement wins ties. x: the final averaged iterate b^(T)
    as exact rationals (iterations * x is the cumulative marginal vector).
    """

    best_set: frozenset[int]
    best_density: Fraction
    x: BaseVector
    iterations: int
    trace: ConvergenceTrace

    def to_json_dict(self) -> dict:
        return {
            "best_set": sorted(self.best_set),
            "best_density": str(Fraction(self.best_density)),
            "iterations": self.iterations,
        }


class _DensestSuffixLMO:
    """A peel as Frank-Wolfe's LMO: answers with the recorded marginals and
    keeps the densest suffix of any round's order in best_set/best_density.
    The first query is at zero weights, so the full set is the first
    candidate."""

    def __init__(self, ground: tuple[int, ...], peel_once):
        self.peel_once = peel_once
        self.pos = {e: i for i, e in enumerate(ground)}
        self.best_set = frozenset(ground)
        self.best_density = None

    def __call__(self, w) -> BaseVector:
        pr = self.peel_once(w)
        dhat = pr.dhat.values  # aligned with ground
        n = len(dhat)
        left = sum(dhat)  # f(ground), as the marginals telescope
        if self.best_density is None:
            self.best_density = Fraction(left, n)
        num, den, best_i = self.best_density.numerator, self.best_density.denominator, None
        # left is f(order[i:]); compare left/(n-i) with num/den by cross-multiplying
        for i, u in enumerate(pr.order):
            if left * den > num * (n - i):
                num, den, best_i = left, n - i, i
            left -= dhat[self.pos[u]]
        if best_i is not None:
            self.best_density, self.best_set = Fraction(num, den), frozenset(pr.order[best_i:])
        return pr.dhat


def greedy_pp(
    g: MultiGraph,
    iterations: int,
    ref=None,
    stop_dist: Optional[float] = None,
) -> GreedyPPResult:
    """Iterated degree peeling with cumulative integer weights. One
    iteration is plain unweighted peeling; the densest suffix across all
    iterations is the reported set."""
    return _peel_pp(tuple(range(g.n)), lambda w: weighted_greedy(g, w), iterations, ref, stop_dist)


def supergreedy_pp(
    f: SetFunctionOracle,
    iterations: int,
    ref=None,
    stop_dist: Optional[float] = None,
) -> GreedyPPResult:
    """Iterated supermodular peeling with cumulative rational weights; one
    value cache serves the whole run, as rounds repeat sets once the order settles."""
    cache: dict = {}
    return _peel_pp(f.ground, lambda w: _supergreedy(f, w, cache), iterations, ref, stop_dist)


def _peel_pp(ground, peel_once, iterations, ref, stop_dist) -> GreedyPPResult:
    """Exact averaging Frank-Wolfe from zero weights with peel_once as the LMO."""
    lmo = _DensestSuffixLMO(ground, peel_once)
    x, trace = frank_wolfe(lmo, (0,) * len(ground), exact=True, iterations=iterations, ref=ref, stop_dist=stop_dist)
    return GreedyPPResult(lmo.best_set, lmo.best_density, x, len(trace.records), trace)
