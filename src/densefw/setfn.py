"""Set-function oracles with exact rational values.

An oracle carries its ground set, an evaluation callable, a declared kind
(submodular or supermodular) and monotone/normalized flags. The flags are
declarations: constructors set them from what they know, and the exhaustive
checkers below verify them on small ground sets in tests. All values are
ints or fractions.Fraction; nothing in this module touches floats.

Oracles hold no state: a value is a pure function of its frozenset
argument, so exhaustive scans over an oracle run in constant memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable

from .errors import GroundSetTooLargeError, OracleFlagError
from .graph import MultiGraph, components

SUBMODULAR = "submodular"
SUPERMODULAR = "supermodular"


@dataclass(frozen=True)
class SetFunctionOracle:
    """Exact-valued set function f: 2^ground -> Q with declared structure."""

    ground: tuple[int, ...]
    kind: str
    monotone: bool
    normalized: bool
    _eval: Callable[[frozenset[int]], Fraction | int] = field(repr=False)

    def __post_init__(self):
        if self.kind not in (SUBMODULAR, SUPERMODULAR):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "ground", tuple(self.ground))
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground set has repeated elements")

    @property
    def ground_set(self) -> frozenset[int]:
        return frozenset(self.ground)

    def value(self, subset: Iterable[int]) -> Fraction | int:
        s = frozenset(subset)
        if not s <= self.ground_set:
            raise ValueError(f"subset {sorted(s)} not within ground set")
        return self._eval(s)

    def marginal(self, v: int, base: Iterable[int]) -> Fraction | int:
        """f(v | base) = f(base + v) - f(base). Errors if v already in base."""
        s = frozenset(base)
        if v in s:
            raise ValueError(f"element {v} already in the base set")
        if v not in self.ground_set:
            raise ValueError(f"element {v} not in ground set")
        return self._eval(s | {v}) - self._eval(s)


def edge_count_fn(g: MultiGraph) -> SetFunctionOracle:
    """f(S) = number of edges with both endpoints in S. Supermodular,
    normalized, monotone; ground set is the vertex set."""
    edges = g.edges

    def ev(s: frozenset[int]) -> int:
        return sum(1 for u, v in edges if u in s and v in s)

    return SetFunctionOracle(tuple(range(g.n)), SUPERMODULAR, True, True, ev)


def graphic_rank_fn(g: MultiGraph) -> SetFunctionOracle:
    """Graphic matroid rank r(X) = n - (components of (V, X)). Submodular,
    monotone, normalized; ground set is the edge index set."""
    n = g.n

    def ev(s: frozenset[int]) -> int:
        return n - components(g, s)

    return SetFunctionOracle(tuple(range(g.m)), SUBMODULAR, True, True, ev)


def dualize(f: SetFunctionOracle) -> SetFunctionOracle:
    """g(X) = f(V) - f(V \\ X). Flips the kind; needs monotone + normalized.

    Applying it twice gives back the original function pointwise.
    """
    if not (f.monotone and f.normalized):
        raise OracleFlagError("dualize requires a monotone, normalized oracle")
    full = f.ground_set
    f_full = f.value(full)
    kind = SUPERMODULAR if f.kind == SUBMODULAR else SUBMODULAR

    def ev(s: frozenset[int]):
        return f_full - f._eval(full - s)

    return SetFunctionOracle(f.ground, kind, True, True, ev)


def contract(f: SetFunctionOracle, onto: Iterable[int]) -> SetFunctionOracle:
    """Contraction f_A(X) = f(X + A) - f(A) on ground \\ A. Preserves kind."""
    a = frozenset(onto)
    if not a <= f.ground_set:
        raise ValueError("contraction set not within ground set")
    f_a = f.value(a)
    rest = tuple(e for e in f.ground if e not in a)

    def ev(s: frozenset[int]):
        return f._eval(s | a) - f_a

    return SetFunctionOracle(rest, f.kind, f.monotone, True, ev)


def restrict(f: SetFunctionOracle, keep: Iterable[int]) -> SetFunctionOracle:
    """Restriction of f to subsets of `keep`. Preserves all flags."""
    k = frozenset(keep)
    if not k <= f.ground_set:
        raise ValueError("restriction set not within ground set")
    kept = tuple(e for e in f.ground if e in k)
    return SetFunctionOracle(kept, f.kind, f.monotone, f.normalized, f._eval)


def nn_sum(a, f: SetFunctionOracle, b, g: SetFunctionOracle) -> SetFunctionOracle:
    """a*f + b*g with a, b >= 0. Operands must share ground set and kind."""
    a, b = Fraction(a), Fraction(b)
    if a < 0 or b < 0:
        raise ValueError("coefficients must be nonnegative")
    if f.ground_set != g.ground_set:
        raise ValueError("ground-set mismatch")
    if f.kind != g.kind:
        raise OracleFlagError("nn_sum operands must have the same kind")

    def ev(s: frozenset[int]):
        return a * f._eval(s) + b * g._eval(s)

    return SetFunctionOracle(
        f.ground, f.kind, f.monotone and g.monotone, f.normalized and g.normalized, ev
    )


ENUM_CAP = 20  # largest ground set any exhaustive subset scan accepts


def subsets(elems: tuple[int, ...]):
    """Every subset of `elems` as a frozenset, lazily, by increasing size
    (so the empty set comes first and `elems` itself last). Above ENUM_CAP
    elements it raises when called, before the first subset is asked for."""
    if len(elems) > ENUM_CAP:
        raise GroundSetTooLargeError(f"subset enumeration limited to {ENUM_CAP} elements, got {len(elems)}")
    return (frozenset(c) for r in range(len(elems) + 1) for c in combinations(elems, r))


def check_kind(f: SetFunctionOracle, limit: int = 8) -> bool:
    """Exhaustively verify the declared kind via
    f(A) + f(B) vs f(A|B) + f(A&B) over all subset pairs. Test-mode only."""
    n = len(f.ground)
    if n > limit:
        raise GroundSetTooLargeError(f"kind check limited to {limit} elements, got {n}")
    subs = list(subsets(f.ground))
    vals = {s: f._eval(s) for s in subs}
    for a in subs:
        for b in subs:
            lhs = vals[a] + vals[b]
            rhs = vals[a | b] + vals[a & b]
            if f.kind == SUBMODULAR and lhs < rhs:
                return False
            if f.kind == SUPERMODULAR and lhs > rhs:
                return False
    return True


def check_monotone(f: SetFunctionOracle, limit: int = 8) -> bool:
    """Exhaustively verify f(S) <= f(S + v) for all S, v. Test-mode only."""
    n = len(f.ground)
    if n > limit:
        raise GroundSetTooLargeError(f"monotonicity check limited to {limit} elements, got {n}")
    for s in subsets(f.ground):
        fs = f._eval(s)
        for v in f.ground:
            if v not in s and f._eval(s | {v}) < fs:
                return False
    return True


def check_normalized(f: SetFunctionOracle) -> bool:
    return f._eval(frozenset()) == 0
