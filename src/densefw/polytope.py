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
from .setfn import SUBMODULAR, SUPERMODULAR, SetFunctionOracle, walk


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


def _require_kind(f: SetFunctionOracle, kind: str, op: str):
    if f.kind != kind:
        raise OracleFlagError(f"{op} requires a {kind} oracle, got {f.kind}")
    if not f.normalized:
        raise OracleFlagError(f"{op} requires a normalized oracle")


def _chain(f: SetFunctionOracle, walk) -> tuple:
    """Marginals along a chain of sets: the element at each position of
    `walk` (indices into f.ground) receives f(chain through it) minus
    f(chain before it)."""
    vals: list = [0] * len(f.ground)
    acc: frozenset[int] = frozenset()
    fprev = f._eval(acc)
    for pos in walk:
        acc = acc | {f.ground[pos]}
        fcur = f._eval(acc)
        vals[pos] = fcur - fprev
        fprev = fcur
    return tuple(vals)


def _order(f: SetFunctionOracle, w: Sequence) -> list[int]:
    """Positions of f.ground sorted by (w_i, index) ascending."""
    n = len(f.ground)
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    return sorted(range(n), key=lambda i: (w[i], i))


def lmo_polymatroid(f: SetFunctionOracle, w: Sequence) -> BaseVector:
    """Greedy vertex of the submodular base polytope minimizing <s, w>.

    Sort by (w_i, index) ascending and assign prefix marginals, so light
    elements receive the large early marginals. Scale-invariant in w.
    """
    _require_kind(f, SUBMODULAR, "lmo_polymatroid")
    return BaseVector(f.ground, _chain(f, _order(f, w)))


def lmo_contrapolymatroid(f: SetFunctionOracle, w: Sequence) -> BaseVector:
    """Greedy vertex of the supermodular base polytope minimizing <s, w>.

    Sort by (w_i, index) ascending; element at sorted position i receives
    f(suffix from i) - f(suffix from i+1), the marginal against everything
    that is heavier. Scale-invariant in w.
    """
    _require_kind(f, SUPERMODULAR, "lmo_contrapolymatroid")
    return BaseVector(f.ground, _chain(f, reversed(_order(f, w))))


def lmo(f: SetFunctionOracle, w: Sequence) -> BaseVector:
    """Kind-dispatching linear minimization oracle."""
    if f.kind == SUBMODULAR:
        return lmo_polymatroid(f, w)
    return lmo_contrapolymatroid(f, w)


def enumerate_base_vertices(f: SetFunctionOracle, limit: int = 7) -> list[BaseVector]:
    """All extreme points of the base polytope via greedy over every
    permutation, deduplicated; deterministic (sorted) output order."""
    n = len(f.ground)
    if n > limit:
        raise GroundSetTooLargeError(f"vertex enumeration limited to {limit} elements, got {n}")
    sub = f.kind == SUBMODULAR
    seen = {_chain(f, perm if sub else reversed(perm)) for perm in permutations(range(n))}
    return [BaseVector(f.ground, v) for v in sorted(seen)]


def verify_base(f: SetFunctionOracle, x, tol=0) -> bool:
    """Exhaustively check that x lies in the base polytope of f.

    Exact arithmetic: float inputs are converted to exact binary rationals.
    `tol` relaxes every constraint symmetrically for floating iterates.
    x(S) is kept along the subset walk, in ints scaled by one denominator.
    """
    scan = walk(f, f.ground)  # raises above ENUM_CAP before any arithmetic
    vals = x.values if isinstance(x, BaseVector) else tuple(x)
    if len(vals) != len(f.ground):
        raise ValueError("vector length mismatch")
    q = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in vals]
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
