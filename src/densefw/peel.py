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
from collections.abc import Sequence
from fractions import Fraction
from functools import cache

from .errors import FrozenRecord, GroundSetTooLargeError, OracleFlagError, Record
from .fw import ConvergenceTrace, frank_wolfe
from .graph import MultiGraph
from .polytope import BaseVector
from .setfn import SUPERMODULAR, SetFunctionOracle

SUPERGREEDY_CAP = 200  # largest ground set Super-Greedy++ accepts: one round asks O(n^2) marginals


class PeelResult(FrozenRecord):
    """One peeling pass: removal order and recorded marginals (a base
    vector); dhat summed over order[i:] is f of that suffix."""

    order: tuple[int, ...]
    dhat: BaseVector
    _fields = ("order", "dhat")

    def __init__(self, order: tuple[int, ...], dhat: BaseVector):
        self.__dict__.update(order=order, dhat=dhat)


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
    """Peel argmin w(u) + f(u | rest) from a supermodular oracle, ties to
    the smaller element; the final element records f of its own singleton.
    A round asks O(n^2) marginals: each is one gain from f's `_gains` hook
    (O(1) amortized for both graph oracles and their duals) or, without a
    hook, one new evaluation. Ground sets above SUPERGREEDY_CAP raise
    GroundSetTooLargeError before the oracle is asked anything."""
    return _supergreedy(f)(w)


def _supergreedy(f: SetFunctionOracle):
    """weighted_supergreedy as a peel of w alone, for a whole run: the gain
    function, gain(mask, j) = f(S + j) - f(S) over positions of f.ground,
    and f(ground) are built once. The gain is f's own `_gains` hook, or
    for an oracle without one the difference of two values."""
    if f.kind != SUPERMODULAR:
        raise OracleFlagError("weighted_supergreedy needs a supermodular oracle")
    ground = f.ground
    n = len(ground)
    if n > SUPERGREEDY_CAP:
        raise GroundSetTooLargeError(f"supermodular peeling limited to {SUPERGREEDY_CAP} elements, got {n}")
    if f._gains is None:  # values cached by mask, so a run asks each set once
        value = cache(lambda mask: f._eval(frozenset(e for j, e in enumerate(ground) if mask >> j & 1)))
        gain, full = (lambda mask, j: value(mask | 1 << j) - value(mask)), value((1 << n) - 1)
    else:
        gain, full = f._gains(ground, frozenset()), f._eval(frozenset(ground))
    by_element = sorted(range(n), key=ground.__getitem__)

    def peel(w: Sequence) -> PeelResult:
        if len(w) != n:
            raise ValueError(f"expected {n} weights, got {len(w)}")
        left = full  # f of the set still in, by telescoping
        mask = (1 << n) - 1
        rest = by_element[:]  # positions still in, in element order
        order: list[int] = []
        dhat: list = [0] * n
        while len(rest) > 1:
            margs = [gain(mask ^ 1 << p, p) for p in rest]
            keys = [w[p] + d for p, d in zip(rest, margs)]
            i = keys.index(min(keys))  # the first minimum: ties to the smaller element
            p = rest.pop(i)
            order.append(ground[p])
            dhat[p] = margs[i]
            left -= margs[i]
            mask ^= 1 << p
        if rest:
            order.append(ground[rest[0]])
            dhat[rest[0]] = left  # f({u}): keeps the totals at f(V)
        return PeelResult(tuple(order), BaseVector(ground, tuple(dhat)))

    return peel


class GreedyPPResult(Record):
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
    _fields = ("best_set", "best_density", "x", "iterations", "trace")

    def __init__(
        self,
        best_set: frozenset[int],
        best_density: Fraction,
        x: BaseVector,
        iterations: int,
        trace: ConvergenceTrace,
    ):
        self.best_set = best_set
        self.best_density = best_density
        self.x = x
        self.iterations = iterations
        self.trace = trace

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
    stop_dist: float | None = None,
) -> GreedyPPResult:
    """Iterated degree peeling with cumulative integer weights. One
    iteration is plain unweighted peeling; the densest suffix across all
    iterations is the reported set."""
    return _peel_pp(tuple(range(g.n)), lambda w: weighted_greedy(g, w), iterations, ref, stop_dist)


def supergreedy_pp(
    f: SetFunctionOracle,
    iterations: int,
    ref=None,
    stop_dist: float | None = None,
) -> GreedyPPResult:
    """Iterated supermodular peeling with cumulative rational weights; one
    peel, built once by `_supergreedy`, serves the whole run."""
    return _peel_pp(f.ground, _supergreedy(f), iterations, ref, stop_dist)


def _peel_pp(ground, peel_once, iterations, ref, stop_dist) -> GreedyPPResult:
    """Exact averaging Frank-Wolfe from zero weights with peel_once as the LMO."""
    lmo = _DensestSuffixLMO(ground, peel_once)
    x, trace = frank_wolfe(lmo, (0,) * len(ground), exact=True, iterations=iterations, ref=ref, stop_dist=stop_dist)
    return GreedyPPResult(lmo.best_set, lmo.best_density, x, len(trace.records), trace)
