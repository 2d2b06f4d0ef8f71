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

from .errors import GroundSetTooLargeError
from .fw import ConvergenceTrace, frank_wolfe
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
    deg = list(g._degrees)
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
    first strict improvement wins ties. x: the final averaged iterate b^(T)
    as exact rationals (iterations * x is the cumulative marginal vector).
    With keep_iterates, each trace record's `iterate` holds b^(k).
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
    keep_iterates: bool = False,
) -> GreedyPPResult:
    """Iterated degree peeling with cumulative integer weights. One
    iteration is plain unweighted peeling; the densest suffix across all
    iterations is the reported set."""
    ground = tuple(range(g.n))
    lmo = _DensestSuffixLMO(ground, lambda w: weighted_greedy(g, w))
    x, trace = frank_wolfe(lmo, BaseVector(ground, (0,) * g.n), exact=True, iterations=iterations,
                           ref=ref, stop_dist=stop_dist, keep_iterates=keep_iterates)
    return GreedyPPResult(lmo.best_set, lmo.best_density, x, len(trace.records), trace)


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
    lmo = _DensestSuffixLMO(f.ground, lambda w: _supergreedy(f, w, cache))
    x, trace = frank_wolfe(lmo, BaseVector(f.ground, (0,) * len(f.ground)), exact=True, iterations=iterations,
                           ref=ref, stop_dist=stop_dist, keep_iterates=keep_iterates)
    return GreedyPPResult(lmo.best_set, lmo.best_density, x, len(trace.records), trace)
