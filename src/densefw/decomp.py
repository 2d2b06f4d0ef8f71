"""Dense decompositions by exhaustive search, exact arithmetic throughout.

Two variants. Contraction (supermodular f): repeatedly take the unique
maximal subset maximizing f(S)/|S|, contract it, continue; the densities
strictly decrease. Deletion (submodular monotone f with f({v}) > 0):
repeatedly take the unique minimal S minimizing
(|V'| - |S|) / (f(V') - f(S)); the removed block V' - S gets that ratio and
the ratios strictly increase. Uniqueness comes from maximizers being closed
under union and minimizers under intersection, which the code exploits and
asserts rather than trusts: the union (resp. intersection) of the optima is
recomputed and must itself be optimal, otherwise the declared structure of
the oracle was wrong.

The density vector assigns every element the density of its block
(contraction variant) or the reciprocal of its block's ratio (deletion
variant, so the values telescope to f(V)); it is the minimum-norm point of
the base polytope and the unique lexicographically extreme base.

Each block is found by one `setfn.walk`: over `contract(f, blocks so far)`
in the contraction variant and over `restrict(f, what is left)` in the
deletion variant, so the edge-count hook carries through every block.
Everything here but the certificate is capped at `setfn.ENUM_CAP` (20)
elements.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OracleFlagError, Record
from .polytope import BaseVector, _exact, lmo
from .setfn import SUBMODULAR, SUPERMODULAR, SetFunctionOracle, contract, dualize, restrict, walk

CONTRACTION = "supermodular_contraction"
DELETION = "submodular_deletion"


class DenseDecomposition(Record):
    """Ordered blocks with their densities (contraction variant, strictly
    decreasing) or ratios (deletion variant, strictly increasing)."""

    variant: str
    blocks: tuple[tuple[int, ...], ...]
    densities: tuple[Fraction, ...]

    def __init__(self, variant: str, blocks: tuple[tuple[int, ...], ...], densities: tuple[Fraction, ...]):
        if variant not in (CONTRACTION, DELETION):
            raise ValueError(f"unknown variant {variant!r}")
        if len(blocks) != len(densities):
            raise ValueError("blocks/densities length mismatch")
        Record.__init__(self, variant, blocks, densities)

    def vector(self, ground: tuple[int, ...]) -> BaseVector:
        """Density vector over `ground`: each element gets its block's
        density (contraction) or the reciprocal of its block's ratio
        (deletion, so the values telescope to f(V))."""
        per_block = self.densities
        if self.variant == DELETION:
            per_block = tuple(1 / r for r in per_block)
        value_of = {e: val for block, val in zip(self.blocks, per_block) for e in block}
        return BaseVector(ground, tuple(value_of[e] for e in ground))


def densest_set_bruteforce(f: SetFunctionOracle) -> tuple[frozenset[int], Fraction]:
    """Maximal maximizer of f(S)/|S| over nonempty S, by one walk: the
    first block of the contraction decomposition, and the scan with which
    `decompose_supermodular` finds every block. The union of all maximizers
    is returned; supermodularity makes it a maximizer itself, and that is
    re-checked so a mis-flagged oracle fails loudly instead of silently. An
    empty ground set raises ValueError before the oracle is asked anything."""
    if f.kind != SUPERMODULAR:
        raise OracleFlagError("densest_set_bruteforce needs a supermodular oracle")
    if not f.ground:
        raise ValueError("densest_set_bruteforce needs a nonempty ground set, got an empty one")
    num, den, union = 0, 0, 0  # best density num / den, compared by cross-multiplying; den == 0 at first
    for mask, value in walk(f):
        size = mask.bit_count()
        if not size:
            continue
        c = value * den - num * size
        if c > 0 or not den:
            num, den, union = value, size, mask
        elif c == 0:
            union |= mask
    assert den
    best = Fraction(num, den)
    top = frozenset(e for j, e in enumerate(f.ground) if union >> j & 1)
    if Fraction(f._eval(top), len(top)) != best:
        raise OracleFlagError("maximizers not closed under union; oracle is not supermodular")
    return top, best


def decompose_supermodular(f: SetFunctionOracle) -> DenseDecomposition:
    """Contraction-variant decomposition: peel off the maximal densest set,
    contract, repeat. Densities strictly decrease."""
    if f.kind != SUPERMODULAR:
        raise OracleFlagError("decompose_supermodular needs a supermodular oracle")
    acc: frozenset[int] = frozenset()
    blocks: list[tuple[int, ...]] = []
    densities: list[Fraction] = []
    while len(acc) < len(f.ground):
        top, best = densest_set_bruteforce(contract(f, acc))
        if densities and best >= densities[-1]:
            raise OracleFlagError("block densities failed to decrease strictly")
        blocks.append(tuple(sorted(top)))
        densities.append(best)
        acc = acc | top
    return DenseDecomposition(CONTRACTION, tuple(blocks), tuple(densities))


def decompose_submodular_deletion(f: SetFunctionOracle) -> DenseDecomposition:
    """Deletion-variant decomposition of a submodular, monotone, normalized
    oracle with f({v}) > 0 for every element. Ratios strictly increase."""
    if f.kind != SUBMODULAR:
        raise OracleFlagError("decompose_submodular_deletion needs a submodular oracle")
    if not (f.monotone and f.normalized):
        raise OracleFlagError("deletion decomposition needs a monotone, normalized oracle")
    cur = f.ground
    scan = walk(f)  # raises above ENUM_CAP before any evaluation
    for v in cur:
        if f._eval(frozenset([v])) <= 0:
            raise OracleFlagError(f"deletion decomposition needs f({{{v}}}) > 0")
    f_cur = f._eval(frozenset(cur))
    blocks: list[tuple[int, ...]] = []
    ratios: list[Fraction] = []
    while cur:
        num, den, inter = 0, 0, 0  # least ratio num / den; den == 0 before the first
        for mask, fs in scan:
            size = mask.bit_count()
            if size == len(cur) or fs >= f_cur:
                continue
            c = (len(cur) - size) * den - num * (f_cur - fs)
            if c < 0 or not den:
                num, den, inter = len(cur) - size, f_cur - fs, mask
            elif c == 0:
                inter &= mask
        if not den:  # unreachable under true flags: f(cur) >= f({v}) > 0 = f(empty set)
            raise OracleFlagError("no proper subset drops the value; f(V') = f(S) everywhere")
        best = Fraction(num, den)
        core = frozenset(e for j, e in enumerate(cur) if inter >> j & 1)
        f_core = f._eval(core)
        if f_core >= f_cur or Fraction(len(cur) - len(core), f_cur - f_core) != best:
            raise OracleFlagError(
                "minimizers not closed under intersection; oracle is not submodular"
            )
        if ratios and best <= ratios[-1]:
            raise OracleFlagError("block ratios failed to increase strictly")
        blocks.append(tuple(sorted(set(cur) - core)))
        ratios.append(best)
        cur = tuple(e for e in cur if e in core)
        scan = walk(restrict(f, cur))
        f_cur = f_core
    return DenseDecomposition(DELETION, tuple(blocks), tuple(ratios))


def density_vector(f: SetFunctionOracle) -> BaseVector:
    """Per-element densities: decompose f with the variant matching its
    kind, then read off `DenseDecomposition.vector(f.ground)`. The result
    is a base of the polytope and the minimum-norm point."""
    if f.kind == SUPERMODULAR:
        return decompose_supermodular(f).vector(f.ground)
    return decompose_submodular_deletion(f).vector(f.ground)


def certify_lex_optimal(f: SetFunctionOracle, x) -> bool:
    """First-order optimality of x for min sum(x^2) over the base polytope:
    <x, v> >= <x, x> for every vertex v (Fujishige). The least <x, v> is the
    greedy vertex at weights x (Edmonds), so this is one LMO call in exact
    arithmetic: O(m) through the `_chain` hook of both graph oracles and
    their duals, n + 1 oracle evaluations for an oracle without one.
    Membership of x in the polytope is not checked here."""
    q = _exact(f, x)
    return lmo(f, q).dot(q) >= sum(v * v for v in q)


def verify_decomposition_equivalence(f: SetFunctionOracle) -> bool:
    """Deletion blocks of f coincide with contraction blocks of its dual,
    with reciprocal densities."""
    dele = decompose_submodular_deletion(f)
    cont = decompose_supermodular(dualize(f))
    if dele.blocks != cont.blocks:
        return False
    return all(cd == 1 / dr for cd, dr in zip(cont.densities, dele.densities))
