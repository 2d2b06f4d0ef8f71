"""Peeling as an approximate linear minimization oracle.

weighted_supergreedy repeatedly removes the element minimizing
w(u) + f(u | rest) from a supermodular oracle and records that marginal;
the last element records f({u}), so the recorded marginals telescope to
f(V). On edge count the marginal is u's degree in the remaining graph and
each edge is charged to whichever endpoint leaves first, so the recorded
vector is the load of an integral orientation and hence a base of the
edge-count polytope.

supergreedy_pp is fw.frank_wolfe with the averaging schedule and the peel
as its (noisy) LMO: frank_wolfe queries it at the running sum of its
answers, so round k+1 peels with the cumulative loads k * b^(k), which is
the Super-Greedy++ rule; on `edge_count_fn(g)` it is Greedy++. The
marginals telescope (dhat summed over a suffix of the order is f of that
suffix), so a run reads each round's suffix densities off its answer and
keeps, exactly, the densest suffix of any round (the full set first; the
first round is plain unweighted peeling). The peel a run queries lists
positions of its ground: a lazy heap, O(m log n) a round, for an oracle
with a `_peel` hook (edge count), else a scan asking O(n^2) marginals a
round, the reference the heap is tested against.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, partial

from .errors import OracleFlagError, Record
from .fw import ConvergenceTrace, frank_wolfe
from .polytope import BaseVector
from .setfn import SUPERMODULAR, SetFunctionOracle


class PeelResult(Record):
    """One peeling pass: removal order, as elements, and recorded marginals
    (a base vector); dhat summed over order[i:] is f of that suffix."""

    order: tuple[int, ...]
    dhat: BaseVector


def weighted_supergreedy(f: SetFunctionOracle, w: Sequence) -> PeelResult:
    """Peel argmin w(u) + f(u | rest) from a supermodular oracle, ties to
    the smaller position; the final element records f of its own singleton.
    With f's `_peel` hook a round is one lazy-heap pass; without it a round
    asks O(n^2) marginals, each one gain from f's `_gains` hook (O(1)
    amortized for both graph oracles and their duals) or, without that
    hook either, one new evaluation. Only here is w checked, for length and
    finite values: supergreedy_pp peels with its own sums, one per element."""
    peel, n = _supergreedy(f), len(f.ground)
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    if bad := [i for i, x in enumerate(w) if not -math.inf < x < math.inf]:  # NaN compares false
        raise ValueError(f"weight {bad[0]} is {w[bad[0]]}, not a finite number")
    order, dhat = peel(w)
    return PeelResult(tuple(map(f.ground.__getitem__, order)), BaseVector(f.ground, dhat))


def _supergreedy(f: SetFunctionOracle):
    """weighted_supergreedy as a peel of w alone, for a whole run, giving
    (order, dhat) as lists over positions of f.ground: the heap peel for an
    oracle with a `_peel` hook, else the scan, whose gain function,
    gain(mask, j) = f(S + j) - f(S) over those positions, and f(ground) are
    built once. The gain is f's own `_gains` hook, or for an oracle without
    one the difference of two values. For a dual oracle every candidate of
    a step asks f's hook about the same complement mask, so graphic rank's
    union-find moves once per step."""
    if f.kind != SUPERMODULAR:
        raise OracleFlagError("weighted_supergreedy needs a supermodular oracle")
    ground = f.ground
    n = len(ground)
    if f._peel is not None:
        return partial(_heap_peel, f)
    if f._gains is None:  # values cached by mask, so a run asks each set once
        value = cache(lambda mask: f._eval(frozenset(e for j, e in enumerate(ground) if mask >> j & 1)))
        gain, full = (lambda mask, j: value(mask | 1 << j) - value(mask)), value((1 << n) - 1)
    else:
        gain, full = f._gains(ground, frozenset()), f._eval(frozenset(ground))

    def peel(w: Sequence) -> tuple[list[int], list]:
        left = full  # f of the set still in, by telescoping
        mask = (1 << n) - 1
        rest = list(range(n))  # positions still in, in ground order
        order: list[int] = []
        dhat: list = [0] * n
        while len(rest) > 1:
            margs = [gain(mask ^ 1 << p, p) for p in rest]
            keys = [w[p] + d for p, d in zip(rest, margs)]
            i = keys.index(min(keys))  # the first minimum: ties to the smaller position
            p = rest.pop(i)
            order.append(p)
            dhat[p] = margs[i]
            left -= margs[i]
            mask ^= 1 << p
        if rest:
            order.append(rest[0])
            dhat[rest[0]] = left  # f({u}): keeps the totals at f(V)
        return order, dhat

    return peel


def _heap_peel(f: SetFunctionOracle, w: Sequence) -> tuple[list[int], list[int]]:
    """The peel of an oracle with a `_peel` hook, ties to the smaller
    position, as (order, dhat) over positions. Lazy binary heap of one int
    per entry, key * n + u with key = w(u) + marginal(u): as 0 <= u < n,
    these ints order like (key, u). An entry is stale when it differs from
    the position's live one, which is None once the position is peeled. Int
    weights are used as they are; any others (Fractions, finite floats) are
    scaled to ints by their common denominator d, which scales every key and
    every fall by d."""
    n = len(f.ground)
    marg, falls = f._peel()
    d = 1
    if not set(map(type, w)) <= {int}:
        q = list(map(Fraction, w))
        d = math.lcm(*(x.denominator for x in q))
        w = [x.numerator * (d // x.denominator) for x in q]
        marg = [m * d for m in marg]
    live = [(w[u] + marg[u]) * n + u for u in range(n)]
    heap = live[:]
    heapq.heapify(heap)
    pop, push, fall = heapq.heappop, heapq.heappush, d * n
    order: list[int] = []
    dhat: list[int] = [0] * n
    for _ in range(n):
        e = pop(heap)
        while e != live[e % n]:
            e = pop(heap)
        u = e % n
        order.append(u)
        dhat[u] = e // n - w[u]  # the marginal left at removal, times d
        live[u] = None
        for x in falls[u]:
            if live[x] is not None:
                live[x] -= fall  # one less: key - d
                push(heap, live[x])
    if d > 1:
        dhat = [v // d for v in dhat]
    return order, dhat


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


def supergreedy_pp(f: SetFunctionOracle, iterations: int, ref=None,
                   stop_dist: float | None = None) -> GreedyPPResult:
    """Iterated supermodular peeling with cumulative rational weights: exact
    averaging Frank-Wolfe from zero weights with the peel as the LMO,
    keeping the densest suffix of any answer (the full set first). One
    round is plain unweighted peeling. One peel, built once by
    `_supergreedy`, serves the whole run. An empty ground set raises
    ValueError before the oracle is asked anything."""
    n = len(f.ground)
    if not n:
        raise ValueError("supergreedy_pp needs a nonempty ground set, got an empty one")
    peel_once = _supergreedy(f)
    num, den, best_set = 0, 0, None  # the densest suffix so far has density num/den; den == 0 at first

    def lmo(w) -> BaseVector:
        nonlocal num, den, best_set
        order, dhat = peel_once(w)
        left, best_i = sum(dhat), None  # f(ground), as the marginals telescope
        # left is f(order[i:]); compare left/(n-i) with num/den by cross-multiplying
        for i, p in enumerate(order):
            if not den or left * den > num * (n - i):
                num, den, best_i = left, n - i, i
            left -= dhat[p]
        if best_i is not None:
            best_set = frozenset(map(f.ground.__getitem__, order[best_i:]))
        return BaseVector(f.ground, dhat)

    x, trace = frank_wolfe(lmo, (0,) * n, exact=True, iterations=iterations, ref=ref, stop_dist=stop_dist)
    return GreedyPPResult(best_set, Fraction(num, den), x, trace)
