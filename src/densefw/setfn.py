"""Set-function oracles with exact rational values.

An oracle carries its ground set, an evaluation callable, a declared kind
(submodular or supermodular) and monotone/normalized flags. The flags are
declarations: constructors set them from what they know, and the exhaustive
checkers below verify them on small ground sets in tests. All values are
ints or fractions.Fraction; nothing in this module touches floats.

Oracles hold no state: a value is a pure function of its frozenset
argument, so exhaustive scans over an oracle run in constant memory. Every
such scan is one `walk`, a Gray-code pass over int masks.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction

from .errors import GroundSetTooLargeError, OracleFlagError, Record
from .graph import MultiGraph, _kruskal, components

SUBMODULAR = "submodular"
SUPERMODULAR = "supermodular"


class SetFunctionOracle(Record):
    """Exact-valued set function f: 2^ground -> Q with declared structure.
    Equality compares `_eval` but not the hooks."""

    ground: tuple[int, ...]
    kind: str
    monotone: bool
    normalized: bool
    _eval: Callable[[frozenset[int]], Fraction | int]
    # Three optional hooks, outside the fields, answer without evaluating a set:
    # _gains(elems, base) returns gain(mask, j) = f(S | base | {elems[j]}) -
    # f(S | base), where bit j is clear in mask and S is the subset of elems
    # whose positions are set in mask; `walk` and the Super-Greedy++ scan
    # move by it, O(1) amortized per gain for both graph oracles.
    # _chain(order) returns the greedy marginals `polytope.lmo` hands out
    # along an order of positions of ground (prefixes for submodular f,
    # suffixes for supermodular f), in O(m) for both graph oracles.
    # _peel() returns, per position, its marginal against the rest of the
    # ground and the positions whose marginal falls by one when it leaves
    # (listed once per unit of fall); Super-Greedy++ then peels with a lazy
    # heap, ties to the smaller position. Only edge count has it: its
    # degrees and adjacency lists.

    def __init__(
        self,
        ground: Iterable[int],
        kind: str,
        monotone: bool,
        normalized: bool,
        _eval: Callable[[frozenset[int]], Fraction | int],
        _gains: Callable | None = None,
        _chain: Callable | None = None,
        _peel: Callable | None = None,
    ):
        if kind not in (SUBMODULAR, SUPERMODULAR):
            raise ValueError(f"unknown kind {kind!r}")
        ground = tuple(ground)
        if len(set(ground)) != len(ground):
            raise ValueError("ground set has repeated elements")
        Record.__init__(self, ground, kind, monotone, normalized, _eval)
        self.__dict__.update(_gains=_gains, _chain=_chain, _peel=_peel)

    def value(self, subset: Iterable[int]) -> Fraction | int:
        s = frozenset(subset)
        if not s.issubset(self.ground):
            raise ValueError(f"subset {sorted(s)} not within ground set")
        return self._eval(s)

    def marginal(self, v: int, base: Iterable[int]) -> Fraction | int:
        """f(v | base) = f(base + v) - f(base). Errors if v already in base,
        or if v or base is not within the ground set."""
        s = frozenset(base)
        if v in s:
            raise ValueError(f"element {v} already in the base set")
        if v not in self.ground:
            raise ValueError(f"element {v} not in ground set")
        before = self.value(s)  # refuses a base outside the ground set
        return self._eval(s | {v}) - before


def edge_count_fn(g: MultiGraph) -> SetFunctionOracle:
    """f(S) = number of edges with both endpoints in S. Supermodular,
    normalized, monotone; ground set is the vertex set."""
    edges = g.edges

    def ev(s: frozenset[int]) -> int:
        return sum(1 for u, v in edges if u in s and v in s)

    def gains(elems, base):
        # Per position: edges into base, and neighbour masks over positions
        # in elems in binary layers (layer k: neighbours whose edge
        # multiplicity has bit k set), so parallel edges count with multiplicity.
        pos = {v: j for j, v in enumerate(elems)}
        into_base = [0] * len(elems)
        nbr = [[0] * (len(edges).bit_length() + 1) for _ in elems]
        for j, a in enumerate(elems):
            for b in g.adjacency[a]:
                if b in base:
                    into_base[j] += 1
                elif b in pos:
                    layers, bit, k = nbr[j], 1 << pos[b], 0
                    while layers[k] & bit:  # one more parallel copy: carry
                        layers[k] ^= bit
                        k += 1
                    layers[k] |= bit
        first = [layers[0] for layers in nbr]
        more = [tuple((k, x) for k, x in enumerate(layers) if k and x) for layers in nbr]

        def gain(mask, j):
            c = (first[j] & mask).bit_count() + into_base[j]
            for k, layer in more[j]:
                c += (layer & mask).bit_count() << k
            return c

        return gain

    def chain(order):
        # Suffix marginals: each edge goes to its endpoint that comes
        # earlier in the order.
        rank = [0] * g.n
        for r, v in enumerate(order):
            rank[v] = r
        vals = [0] * g.n
        for u, v in edges:
            if rank[u] < rank[v]:
                vals[u] += 1
            else:
                vals[v] += 1
        return vals

    def peel():
        return g.degrees, g.adjacency  # built on first use and cached by g

    return SetFunctionOracle(tuple(range(g.n)), SUPERMODULAR, True, True, ev, gains, chain, peel)


def graphic_rank_fn(g: MultiGraph) -> SetFunctionOracle:
    """Graphic matroid rank r(X) = n - (components of (V, X)). Submodular,
    monotone, normalized; ground set is the edge index set."""
    n, edges = g.n, g.edges

    def ev(s: frozenset[int]) -> int:
        return n - components(g, s)

    def gains(elems, base):
        # gain(mask, j) = 1 iff edge elems[j] joins two components of the
        # subgraph formed by base and the edges set in mask. A union-by-size
        # DSU without path compression over the touched vertices holds that
        # subgraph for the last mask asked. Base edges sit at the positions
        # above elems and are always set. Each union is on a stack, highest
        # position first, as its position and the root it hung, so the
        # unions at or below any position can be undone in reverse order.
        label: dict[int, int] = {}
        ends = [tuple(label.setdefault(v, len(label)) for v in edges[e]) for e in (*elems, *base)]
        parent, size = list(range(len(label))), [1] * len(label)
        top = (1 << len(ends)) - (1 << len(elems))
        pos, hung = [len(ends)], [-1]  # a sentinel never undone
        cur = 0

        def gain(mask, j):
            # Move from cur to mask: undo the unions at or below the highest
            # differing bit h, redo mask's own bits up to h. Along a Gray-code
            # walk that is O(1) unions per step, amortized; any other order
            # costs at most a rebuild, so the answer depends on (mask, j) only.
            nonlocal cur
            mask |= top
            if cur != mask:
                h = (cur ^ mask).bit_length() - 1
                while pos[-1] <= h:
                    pos.pop()
                    b = hung.pop()
                    size[parent[b]] -= size[b]
                    parent[b] = b
                low = mask & ((2 << h) - 1)
                while low:
                    p = low.bit_length() - 1
                    low ^= 1 << p
                    a, b = ends[p]
                    while parent[a] != a:
                        a = parent[a]
                    while parent[b] != b:
                        b = parent[b]
                    if a != b:
                        if size[a] < size[b]:
                            a, b = b, a
                        parent[b] = a
                        size[a] += size[b]
                        pos.append(p)
                        hung.append(b)
                cur = mask
            u, v = ends[j]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            return 1 if u != v else 0

        return gain

    def chain(order):
        vals = [0] * g.m
        for idx in _kruskal(g, order):
            vals[idx] = 1
        return vals

    return SetFunctionOracle(tuple(range(g.m)), SUBMODULAR, True, True, ev, gains, chain)


def dualize(f: SetFunctionOracle) -> SetFunctionOracle:
    """g(X) = f(V) - f(V \\ X). Flips the kind; needs monotone + normalized.

    Applying it twice gives back the original function pointwise. f's
    `_chain` serves g unchanged: along one order, g's suffix marginals are
    f's prefix marginals and the other way round. g's `_gains` comes from
    f's: g(S + j) - g(S) = f(V - S) - f(V - S - j) is f's gain of j on
    V - S - j. f's `_peel` is not passed on.
    """
    if not (f.monotone and f.normalized):
        raise OracleFlagError("dualize requires a monotone, normalized oracle")
    full = frozenset(f.ground)
    f_full = f._eval(full)
    kind = SUPERMODULAR if f.kind == SUBMODULAR else SUBMODULAR

    def ev(s: frozenset[int]):
        return f_full - f._eval(full - s)

    def gains(elems, base):
        # f's gain over the same elems, on the ground outside base and elems:
        # the complement of S + j within elems is every ^ mask ^ bit j.
        f_gain = f._gains(elems, full - base - frozenset(elems))
        every = (1 << len(elems)) - 1
        return lambda mask, j: f_gain(every ^ mask ^ 1 << j, j)

    return SetFunctionOracle(f.ground, kind, True, True, ev, None if f._gains is None else gains, f._chain)


def contract(f: SetFunctionOracle, onto: Iterable[int]) -> SetFunctionOracle:
    """Contraction f_A(X) = f(X + A) - f(A) on ground \\ A. Keeps kind and `_gains`, not `_chain` or `_peel`."""
    a = frozenset(onto)
    if not a.issubset(f.ground):
        raise ValueError("contraction set not within ground set")
    f_a = f._eval(a)
    rest = tuple(e for e in f.ground if e not in a)

    def ev(s: frozenset[int]):
        return f._eval(s | a) - f_a

    gains = None if f._gains is None else (lambda elems, base: f._gains(elems, base | a))
    return SetFunctionOracle(rest, f.kind, f.monotone, True, ev, gains)


def restrict(f: SetFunctionOracle, keep: Iterable[int]) -> SetFunctionOracle:
    """Restriction of f to subsets of `keep`. Keeps all flags and `_gains`, not `_chain` or `_peel`."""
    k = frozenset(keep)
    if not k.issubset(f.ground):
        raise ValueError("restriction set not within ground set")
    kept = tuple(e for e in f.ground if e in k)
    return SetFunctionOracle(kept, f.kind, f.monotone, f.normalized, f._eval, f._gains)


def nn_sum(a, f: SetFunctionOracle, b, g: SetFunctionOracle) -> SetFunctionOracle:
    """a*f + b*g with a, b >= 0. Operands must share ground set and kind."""
    a, b = Fraction(a), Fraction(b)
    if a < 0 or b < 0:
        raise ValueError("coefficients must be nonnegative")
    if set(f.ground) != set(g.ground):
        raise ValueError("ground-set mismatch")
    if f.kind != g.kind:
        raise OracleFlagError("nn_sum operands must have the same kind")

    def ev(s: frozenset[int]):
        return a * f._eval(s) + b * g._eval(s)

    return SetFunctionOracle(
        f.ground, f.kind, f.monotone and g.monotone, f.normalized and g.normalized, ev
    )


ENUM_CAP = 20  # largest ground set any exhaustive subset scan accepts


def walk(f: SetFunctionOracle):
    """Every subset S of f.ground as (mask, |S|, f(S)), lazily, in Gray-code
    order from the empty set: bit j of mask stands for f.ground[j], and
    consecutive masks differ in one bit. Walk `restrict(f, ...)` or
    `contract(f, ...)` to scan part of a ground set. Memory is constant: an
    oracle with a `_gains` hook moves by one gain per step, any other is
    evaluated on one frozenset changed by one element per step. Above
    ENUM_CAP elements it raises when called, before any mask is built or the
    oracle is asked anything."""
    GroundSetTooLargeError.check("subset enumeration", len(f.ground), ENUM_CAP)
    return _gray(f)


def _gray(f: SetFunctionOracle):
    elems = f.ground
    gain = None if f._gains is None else f._gains(elems, frozenset())
    flip = [frozenset([e]) for e in elems]
    s, mask, size, value = frozenset(), 0, 0, f._eval(frozenset())
    yield mask, size, value
    for i in range(1, 1 << len(elems)):
        bit = i & -i  # the bit Gray code i flips
        j = bit.bit_length() - 1
        mask ^= bit
        if gain is None:
            s ^= flip[j]
            value = f._eval(s)
        elif mask & bit:
            value += gain(mask ^ bit, j)
        else:
            value -= gain(mask, j)
        size += 1 if mask & bit else -1
        yield mask, size, value


CHECK_CAP = 8  # largest ground set check_kind and check_monotone accept


def _check_table(f: SetFunctionOracle, check: str) -> dict:
    """f's value at every int mask, for an exhaustive check of at most CHECK_CAP elements."""
    GroundSetTooLargeError.check(f"{check} check", len(f.ground), CHECK_CAP)
    return {mask: v for mask, _, v in walk(f)}


def check_kind(f: SetFunctionOracle) -> bool:
    """Exhaustively verify the declared kind via
    f(A) + f(B) vs f(A|B) + f(A&B) over all subset pairs. Test-mode only."""
    vals = _check_table(f, "kind")
    sign = 1 if f.kind == SUBMODULAR else -1
    return all(sign * (vals[a] + vals[b] - vals[a | b] - vals[a & b]) >= 0 for a in vals for b in vals)


def check_monotone(f: SetFunctionOracle) -> bool:
    """Exhaustively verify f(S) <= f(S + v) for all S, v. Test-mode only."""
    vals = _check_table(f, "monotonicity")
    return all(vals[s] <= vals[s | 1 << j] for s in vals for j in range(len(f.ground)))


def check_normalized(f: SetFunctionOracle) -> bool:
    return f._eval(frozenset()) == 0
