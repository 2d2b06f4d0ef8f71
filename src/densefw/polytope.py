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
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .errors import GroundSetTooLargeError, OracleFlagError
from .graph import MultiGraph
from .setfn import SUBMODULAR, SetFunctionOracle, walk


@dataclass(frozen=True)
class BaseVector:
    """A point of a base polytope: values aligned with `ground` by position.

    Values are exact rationals for oracle outputs and certificates, floats
    for long Frank-Wolfe runs; the sum equals f(V) exactly in the rational
    case and up to 1e-9 in the floating case.
    """

    ground: tuple[int, ...]
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "ground", tuple(self.ground))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.ground) != len(self.values):
            raise ValueError("ground/values length mismatch")

    def value_sum(self):
        return sum(self.values)

    def dot(self, w: Sequence):
        if len(w) != len(self.values):
            raise ValueError("weight length mismatch")
        return sum(x * y for x, y in zip(self.values, w))

    def distance(self, other) -> float:
        ov = other.values if isinstance(other, BaseVector) else other
        return math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(self.values, ov)))

    def get(self, element: int):
        return self.values[self.ground.index(element)]

    def as_dict(self) -> dict[int, object]:
        return dict(zip(self.ground, self.values))


def _chain(f: SetFunctionOracle, order) -> tuple:
    """Greedy marginals for an order of positions of f.ground, lightest
    first: each element receives f(chain through it) minus f(chain before
    it), along prefixes of the order for submodular f and along suffixes
    (the order reversed) for supermodular f."""
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
    marginals. Scale-invariant in w.
    """
    if not f.normalized:
        raise OracleFlagError("lmo requires a normalized oracle")
    n = len(f.ground)
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    return BaseVector(f.ground, _chain(f, sorted(range(n), key=lambda i: (w[i], i))))


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


def verify_base(f: SetFunctionOracle, x, tol=0) -> bool:
    """Exhaustively check that x lies in the base polytope of f.

    Exact arithmetic: float inputs are converted to exact binary rationals.
    `tol` relaxes every constraint symmetrically for floating iterates.
    x(S) is kept along the subset walk, in ints scaled by one denominator.
    """
    scan = walk(f)  # raises above ENUM_CAP before any arithmetic
    q = _exact(x)
    if len(q) != len(f.ground):
        raise ValueError("vector length mismatch")
    tol = tol if isinstance(tol, (int, Fraction)) else Fraction(tol)
    if any(v < -tol for v in q):
        return False
    total = sum(q)
    full = f._eval(f.ground_set)
    if abs(total - full) > tol:
        return False
    sign = 1 if f.kind == SUBMODULAR else -1  # x(S) <= f(S), or >= for supermodular f
    den = math.lcm(tol.denominator, *(v.denominator for v in q))
    step = {1 << j: int(v * den) for j, v in enumerate(q)}
    tol = int(tol * den)
    next(scan)  # the empty set comes first and carries no constraint
    prev = xs = 0
    for mask, _, fs in scan:
        bit = mask ^ prev
        prev = mask
        xs += step[bit] if mask & bit else -step[bit]
        if sign * (xs - fs * den) > tol:
            return False
    return True


@dataclass(frozen=True)
class Orientation:
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


def optimal_orientation(g: MultiGraph, w: Sequence) -> tuple[Orientation, BaseVector]:
    """Orientation minimizing <w, load>: each edge goes entirely to its
    lighter endpoint, ties to the smaller vertex index. The induced load is
    the same vertex the greedy LMO of the edge-count oracle picks."""
    if len(w) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(w)}")
    shares = []
    load: list = [0] * g.n
    for u, v in g.edges:
        to_first = (w[u], u) < (w[v], v)
        shares.append(1 if to_first else 0)
        load[u if to_first else v] += 1
    return Orientation(tuple(shares)), BaseVector(tuple(range(g.n)), tuple(load))
