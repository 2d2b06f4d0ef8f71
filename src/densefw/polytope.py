"""Base polytopes of polymatroids and contrapolymatroids.

For submodular f the base polytope is {x >= 0 : x(S) <= f(S), x(V) = f(V)};
for supermodular f the inequalities flip. Linear minimization over either
one is the classic greedy: sort the ground set by weight ascending (ties by
element index) and hand out marginals along the resulting chain of sets --
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

from .errors import FrozenRecord, GroundSetTooLargeError, OracleFlagError
from .graph import MultiGraph
from .setfn import SUBMODULAR, SetFunctionOracle, walk


class BaseVector(FrozenRecord):
    """A point of a base polytope: values aligned with `ground` by position.

    Values are exact rationals for oracle outputs and certificates, floats
    for long Frank-Wolfe runs; the sum equals f(V) exactly in the rational
    case and up to 1e-9 in the floating case.
    """

    ground: tuple[int, ...]
    values: tuple
    _fields = ("ground", "values")

    def __init__(self, ground: Iterable[int], values: Iterable):
        ground, values = tuple(ground), tuple(values)
        if len(ground) != len(values):
            raise ValueError("ground/values length mismatch")
        self.__dict__.update(ground=ground, values=values)

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

    Sort by (w_i, index) ascending and hand out marginals along prefixes
    (submodular f) or suffixes (supermodular f: each element's marginal
    against everything heavier), so light elements receive the large
    marginals. Scale-invariant in w. The marginals come from f's `_chain`
    hook when it has one (O(m) for both graph oracles and their duals),
    otherwise from n + 1 evaluations.
    """
    if not f.normalized:
        raise OracleFlagError("lmo requires a normalized oracle")
    n = len(f.ground)
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    order = sorted(range(n), key=w.__getitem__)  # stable: ties stay in index order
    return BaseVector(f.ground, _chain(f, order) if f._chain is None else f._chain(order))


VERTEX_ENUM_CAP = 7  # largest ground set enumerate_base_vertices accepts


def enumerate_base_vertices(f: SetFunctionOracle) -> list[BaseVector]:
    """All extreme points of the base polytope via greedy over every
    permutation, deduplicated; deterministic (sorted) output order."""
    n = len(f.ground)
    if n > VERTEX_ENUM_CAP:
        raise GroundSetTooLargeError(f"vertex enumeration limited to {VERTEX_ENUM_CAP} elements, got {n}")
    seen = {_chain(f, perm) for perm in permutations(range(n))}
    return [BaseVector(f.ground, v) for v in sorted(seen)]


def _exact(x) -> list:
    """Values of a BaseVector or a sequence as ints and Fractions; floats
    become exact binary rationals."""
    vals = x.values if isinstance(x, BaseVector) else tuple(x)
    return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in vals]


def verify_base(f: SetFunctionOracle, x) -> bool:
    """Exhaustively check that x lies in the base polytope of f.

    Exact arithmetic: float inputs are converted to exact binary rationals.
    This is `verify_bases` for one vector.
    """
    return verify_bases(f, [x])[0]


def verify_bases(f: SetFunctionOracle, xs) -> list[bool]:
    """verify_base for each vector of xs, by one subset walk for all of them.

    Vector k's slack at S, s_k(S) = floor(sign d f(S)) - sign d x_k(S), is
    an int: d clears every denominator of x, and sign is 1 for submodular
    f (x(S) <= f(S)), -1 for supermodular f. It is < 0 exactly where x_k
    violates its constraint at S. Each s_k(S) + 2^(w-1) is one w-bit field
    of a single int, so a walk step moves every slack by two big-int
    additions, and a field whose top bit clears names a violated set. The
    field width rests on a bound on every |s_k(S)|, and an assert checks
    the one part of it the declared kind has to supply.
    """
    scan = walk(f)  # raises above ENUM_CAP before any arithmetic
    qs = [_exact(x) for x in xs]
    if any(len(q) != len(f.ground) for q in qs):
        raise ValueError("vector length mismatch")
    ground = f.ground_set
    full = f._eval(ground)
    ok = [all(v >= 0 for v in q) and sum(q) == full for q in qs]
    live = [k for k in range(len(qs)) if ok[k]]
    if not live:
        return ok
    sign = 1 if f.kind == SUBMODULAR else -1
    den = math.lcm(*(v.denominator for k in live for v in qs[k]))
    # Each element's marginal lies between its marginals at the empty set
    # and at ground - {e} (decreasing in the set for submodular f,
    # increasing for supermodular f), so |f(S)| <= bound for every S; with
    # |x_k(S)| <= sum |x_k| that gives |s_k(S)| <= span.
    f0 = f._eval(frozenset())
    bound = abs(f0) + sum(
        max(abs(f._eval(frozenset([e])) - f0), abs(full - f._eval(ground - {e}))) for e in ground)
    cap = math.floor(den * bound) + 1  # |floor(sign d f(S))| <= cap
    rows = [[int(sign * den * v) for v in qs[k]] for k in live]
    span = cap + max(sum(map(abs, row)) for row in rows)
    w = span.bit_length() + 1  # 2^(w-1) > span: fields stay in [1, 2^w)
    ones = sum(1 << w * i for i in range(len(live)))
    step = {1 << j: sum(row[j] << w * i for i, row in enumerate(rows)) for j in range(len(f.ground))}
    c = prev_c = math.floor(sign * den * f0)
    packed = (c + (1 << w - 1)) * ones
    unviolated = ones << w - 1  # the top bits of the fields still in the race
    next(scan)  # the empty set comes first and carries no constraint
    prev = 0
    for mask, _, fs in scan:
        bit = mask ^ prev
        prev = mask
        packed -= step[bit] if mask & bit else -step[bit]
        c = math.floor(sign * den * fs)
        if c != prev_c:
            assert -cap <= c <= cap, "f(S) leaves the range its declared kind allows"
            packed += (c - prev_c) * ones
            prev_c = c
        if packed & unviolated != unviolated:
            violated = unviolated & ~packed
            unviolated ^= violated
            while violated:
                top = violated.bit_length() - 1
                violated ^= 1 << top
                ok[live[top // w]] = False
            if not unviolated:
                break
    return ok


class Orientation(FrozenRecord):
    """Fractional orientation of a multigraph.

    share_first[i] is the fraction of edge i charged to its first-listed
    endpoint; the remainder goes to the second. Valid when every share lies
    in [0, 1].
    """

    share_first: tuple
    _fields = ("share_first",)

    def __init__(self, share_first: tuple):
        self.__dict__.update(share_first=share_first)

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
