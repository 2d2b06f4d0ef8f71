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
the order is f of that suffix), so a run reads each round's suffix densities
off its answer and keeps, exactly, the densest suffix of any round (the full
set first; the first round is plain unweighted peeling). The peel a run
queries lists positions of its ground, which for Greedy++ are the vertices.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from fractions import Fraction
from functools import cache

from .errors import GroundSetTooLargeError, OracleFlagError, Record
from .fw import ConvergenceTrace, frank_wolfe
from .graph import MultiGraph
from .polytope import BaseVector
from .setfn import SUPERMODULAR, SetFunctionOracle

SUPERGREEDY_CAP = 200  # largest ground set Super-Greedy++ accepts: one round asks O(n^2) marginals


class PeelResult(Record):
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
    """Peel argmin w(u) + f(u | rest) from a supermodular oracle, ties to
    the smaller element; the final element records f of its own singleton.
    A round asks O(n^2) marginals: each is one gain from f's `_gains` hook
    (O(1) amortized for both graph oracles and their duals) or, without a
    hook, one new evaluation. Ground sets above SUPERGREEDY_CAP raise
    GroundSetTooLargeError before the oracle is asked anything."""
    pr = _supergreedy(f)(w)
    return PeelResult(tuple(map(f.ground.__getitem__, pr.order)), pr.dhat)


def _supergreedy(f: SetFunctionOracle):
    """weighted_supergreedy as a peel of w alone, for a whole run, whose
    order lists positions of f.ground: the gain function,
    gain(mask, j) = f(S + j) - f(S) over those positions, and f(ground) are
    built once. The gain is f's own `_gains` hook, or for an oracle without
    one the difference of two values. For a dual oracle every candidate of
    a step asks f's hook about the same complement mask, so graphic rank's
    union-find moves once per step."""
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
            order.append(p)
            dhat[p] = margs[i]
            left -= margs[i]
            mask ^= 1 << p
        if rest:
            order.append(rest[0])
            dhat[rest[0]] = left  # f({u}): keeps the totals at f(V)
        return PeelResult(tuple(order), BaseVector(ground, tuple(dhat)))

    return peel


class GreedyPPResult(Record):
    """Outcome of iterated peeling.

    best_set/best_density: densest suffix seen anywhere, exact arithmetic,
    first strict improvement wins ties. x: the final averaged iterate b^(T)
    as exact rationals, T = len(trace.records) (T * x is the cumulative
    marginal vector).
    """

    best_set: frozenset[int]
    best_density: Fraction
    x: BaseVector
    trace: ConvergenceTrace


def greedy_pp(
    g: MultiGraph,
    iterations: int,
    ref=None,
    stop_dist: float | None = None,
) -> GreedyPPResult:
    """Iterated degree peeling with cumulative integer weights. One
    iteration is plain unweighted peeling; the densest suffix across all
    iterations is the reported set."""
    return _peel_pp(g.n, lambda w: weighted_greedy(g, w), iterations, ref, stop_dist)


def supergreedy_pp(
    f: SetFunctionOracle,
    iterations: int,
    ref=None,
    stop_dist: float | None = None,
) -> GreedyPPResult:
    """Iterated supermodular peeling with cumulative rational weights; one
    peel, built once by `_supergreedy`, serves the whole run. An empty
    ground set raises ValueError before the oracle is asked anything."""
    if not f.ground:
        raise ValueError("supergreedy_pp needs a nonempty ground set, got an empty one")
    return _peel_pp(len(f.ground), _supergreedy(f), iterations, ref, stop_dist)


def _peel_pp(n: int, peel_once, iterations, ref, stop_dist) -> GreedyPPResult:
    """Exact averaging Frank-Wolfe from zero weights over n elements with
    peel_once as the LMO, keeping the densest suffix of any answer (the full
    set first); peel_once's order lists positions of its answer's ground."""
    num, den, best_set = 0, 0, None  # the densest suffix so far has density num/den; den == 0 at first

    def lmo(w) -> BaseVector:
        nonlocal num, den, best_set
        pr = peel_once(w)
        dhat = pr.dhat.values
        left, best_i = sum(dhat), None  # f(ground), as the marginals telescope
        # left is f(order[i:]); compare left/(n-i) with num/den by cross-multiplying
        for i, p in enumerate(pr.order):
            if not den or left * den > num * (n - i):
                num, den, best_i = left, n - i, i
            left -= dhat[p]
        if best_i is not None:
            best_set = frozenset(map(pr.dhat.ground.__getitem__, pr.order[best_i:]))
        return pr.dhat

    x, trace = frank_wolfe(lmo, (0,) * n, exact=True, iterations=iterations, ref=ref, stop_dist=stop_dist)
    return GreedyPPResult(best_set, Fraction(num, den), x, trace)
