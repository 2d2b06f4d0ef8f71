"""Base polytopes of polymatroids and contrapolymatroids.

For submodular f the base polytope is {x >= 0 : x(S) <= f(S), x(V) = f(V)};
for supermodular f the inequalities flip. Linear minimization over either
one is the classic greedy: sort the ground set by weight ascending (ties by
ground position) and hand out marginals along the resulting chain of sets --
prefixes for the submodular case, suffixes for the supermodular case. Both
variants put the large marginals on the light elements, which is what makes
the dot product minimal; the spanning-tree instance of the submodular case
is exactly Kruskal's algorithm.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import permutations

from .errors import GroundSetTooLargeError, OracleFlagError, Record
from .graph import MultiGraph
from .setfn import SUBMODULAR, SetFunctionOracle, walk


class BaseVector(Record):
    """A point of a base polytope: values aligned with `ground` by position.

    Values are exact rationals for oracle outputs and certificates, floats
    for long Frank-Wolfe runs, whose sum may miss f(V) by rounding.
    `verify_bases` checks either kind exactly, a float as the binary
    rational it holds.
    """

    ground: tuple[int, ...]
    values: tuple

    def __init__(self, ground: Iterable[int], values: Iterable):
        ground, values = tuple(ground), tuple(values)
        if len(ground) != len(values):
            raise ValueError("ground/values length mismatch")
        Record.__init__(self, ground, values)

    def dot(self, w: Sequence):
        if len(w) != len(self.values):
            raise ValueError("weight length mismatch")
        return sum(x * y for x, y in zip(self.values, w))

    def get(self, element: int):
        return self.values[self.ground.index(element)]


def _chain(f: SetFunctionOracle, order) -> tuple:
    """Greedy marginals for an order of positions of f.ground, lightest
    first: each element receives f(chain through it) minus f(chain before
    it), along prefixes of the order for submodular f and along suffixes
    (the order reversed) for supermodular f. One evaluation per element;
    an oracle's `_chain` hook gives the same marginals without any."""
    vals: list = [0] * len(f.ground)
    acc: frozenset[int] = frozenset()
    fprev = f._eval(acc)
    for pos in order if f.kind == SUBMODULAR else reversed(order):
        acc = acc | {f.ground[pos]}
        fcur = f._eval(acc)
        vals[pos] = fcur - fprev
        fprev = fcur
    return tuple(vals)


def lmo(f: SetFunctionOracle, w: Sequence) -> BaseVector:
    """Greedy vertex of the base polytope minimizing <s, w> (Edmonds).

    Sort by (w_i, ground position) ascending and hand out marginals along
    prefixes (submodular f) or suffixes (supermodular f: each element's
    marginal against everything heavier), so light elements receive the
    large marginals. Scale-invariant in w. The marginals come from f's
    `_chain` hook when it has one (O(m) for both graph oracles and their
    duals), otherwise from n + 1 evaluations. For edge count the answer is
    the load of the cheapest orientation, each edge charged to its lighter
    endpoint; for graphic rank it marks the minimum spanning tree.
    """
    if not f.normalized:
        raise OracleFlagError("lmo requires a normalized oracle")
    n = len(f.ground)
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    order = sorted(range(n), key=w.__getitem__)  # stable: ties stay in ground order
    return BaseVector(f.ground, _chain(f, order) if f._chain is None else f._chain(order))


VERTEX_ENUM_CAP = 7  # largest ground set enumerate_base_vertices accepts


def enumerate_base_vertices(f: SetFunctionOracle) -> list[BaseVector]:
    """All extreme points of the base polytope via greedy over every
    permutation, deduplicated; deterministic (sorted) output order."""
    n = len(f.ground)
    GroundSetTooLargeError.check("vertex enumeration", n, VERTEX_ENUM_CAP)
    seen = {_chain(f, perm) for perm in permutations(range(n))}
    return [BaseVector(f.ground, v) for v in sorted(seen)]


def _exact(f: SetFunctionOracle, x) -> list:
    """The values of x as ints and Fractions, floats as exact binary
    rationals; a BaseVector must be over f.ground, a sequence is positional."""
    if isinstance(x, BaseVector) and x.ground != f.ground:
        raise ValueError("vector ground differs from the oracle's ground")
    vals = x.values if isinstance(x, BaseVector) else x
    return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in vals]


def verify_bases(f: SetFunctionOracle, xs) -> list[bool]:
    """Whether each vector of xs lies in the base polytope of f, exactly
    (floats as binary rationals; a BaseVector must be over f.ground, a
    sequence is read by position), by one subset walk for all of them.

    Vector k's slack at S, s_k(S) = c(S) - sign d x_k(S), is an int: d
    clears every denominator of x, sign is 1 for submodular f (x(S) <=
    f(S)) and -1 for supermodular f, and c(S) = floor(sign d f(S)). It is
    < 0 exactly where x_k violates its constraint at S. Only vectors with
    x_k >= 0 and x_k(V) = f(V) get this far, so |sign d x_k(S)| <= t = d
    f(V) for every S. Clamping c(S) to [-t-1, t] keeps the sign of every
    slack and puts it in [-2t-1, 2t], so the fields are sized from the
    vectors alone and f needs no bound: f is asked for f(V) and the walk's
    values only, two sets for an oracle with a `_gains` hook. Each s_k(S) +
    2^(w-1) is one w-bit field of a single int, a walk step moves every
    slack by two big-int additions, and a field whose top bit clears names
    a violated set.
    """
    scan = walk(f)  # raises above ENUM_CAP before any arithmetic
    qs = [_exact(f, x) for x in xs]
    if any(len(q) != len(f.ground) for q in qs):
        raise ValueError("vector length mismatch")
    full = f._eval(frozenset(f.ground))
    ok = [all(v >= 0 for v in q) and sum(q) == full for q in qs]
    live = [k for k in range(len(qs)) if ok[k]]
    if not live:
        return ok
    den = math.lcm(*(v.denominator for k in live for v in qs[k]))
    scale = den if f.kind == SUBMODULAR else -den  # sign d
    rows = [[int(scale * v) for v in qs[k]] for k in live]
    t = int(den * full)
    lo = -t - 1
    w = (2 * t + 1).bit_length() + 1  # 2^(w-1) > 2t + 1: fields stay in [1, 2^w)
    ones = sum(1 << w * i for i in range(len(live)))
    step = {1 << j: sum(row[j] << w * i for i, row in enumerate(rows)) for j in range(len(f.ground))}
    _, _, f0 = next(scan)  # the empty set comes first and carries no constraint
    prev_c = min(max(math.floor(scale * f0), lo), t)
    packed = (prev_c + (1 << w - 1)) * ones
    alive = ones << w - 1  # the top bits of the fields not yet violated
    prev = 0
    for mask, _, fs in scan:
        bit = mask ^ prev
        prev = mask
        packed -= step[bit] if mask & bit else -step[bit]
        c = math.floor(scale * fs)
        if c != prev_c:  # prev_c is in [lo, t], so an equal c needs no clamp
            if c > t:
                c = t
            elif c < lo:
                c = lo
            packed += (c - prev_c) * ones
            prev_c = c
        alive &= packed
        if not alive:
            break
    for i, k in enumerate(live):
        ok[k] = (alive >> w * i + w - 1) & 1 == 1
    return ok


class Orientation(Record):
    """Fractional orientation of a multigraph.

    share_first[i] is the fraction of edge i charged to its first-listed
    endpoint; the remainder goes to the second. Valid when every share lies
    in [0, 1].
    """

    share_first: tuple

    def is_valid(self) -> bool:
        return all(0 <= s <= 1 for s in self.share_first)

    def induced_load(self, g: MultiGraph) -> BaseVector:
        if len(self.share_first) != g.m:
            raise ValueError("orientation size mismatch")
        load: list = [0] * g.n
        for (u, v), s in zip(g.edges, self.share_first):
            load[u] += s
            load[v] += 1 - s
        return BaseVector(tuple(range(g.n)), tuple(load))

    @staticmethod
    def from_mask(g: MultiGraph, mask: int) -> "Orientation":
        """Integral orientation: bit i set means edge i goes to its first endpoint."""
        return Orientation(tuple(1 if mask >> i & 1 else 0 for i in range(g.m)))
