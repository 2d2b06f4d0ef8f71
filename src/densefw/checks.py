"""Instance-level invariant checks.

Everything here re-derives a claim by brute force on a single graph:
orientation loads versus the base polytope, greedy LMO answers versus
enumerated vertices, peeling error bounds, decomposition structure, tree
packing against partition enumeration. The CLI `verify` subcommand runs
the whole list with size guards; the test suite calls the pieces directly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import repeat

from . import decomp, fw, peel, polytope, setfn, treepack
from .errors import GroundSetTooLargeError, Record
from .graph import MultiGraph, is_connected

_ORIENTATION_CAP = 10  # largest edge set integral_orientation_loads enumerates


def integral_orientation_loads(g: MultiGraph) -> list[tuple[int, ...]]:
    """Loads of all 2^m integral orientations, one row per orientation."""
    GroundSetTooLargeError.check("orientation enumeration", g.m, _ORIENTATION_CAP, "edges")
    return [polytope.Orientation.from_mask(g, mask).induced_load(g).values for mask in range(1 << g.m)]


def curvature_witness(g: MultiGraph) -> int:
    """max over integral orientation pairs of 2 * ||s - x||^2.

    Lands in [2m, 2 * sum deg^2]; the witness pair certifies the lower end
    of the curvature bracket.
    """
    rows = list(set(integral_orientation_loads(g)))
    # Squared distances are ints up to (2m)^2, so distinct ones have square
    # roots much further apart than math.dist's rounding error: the float
    # search finds a farthest pair, whose distance is then taken in ints.
    s = max(rows, key=lambda s: max(map(math.dist, repeat(s), rows)))
    x = max(rows, key=lambda x: math.dist(s, x))
    return 2 * sum((a - b) ** 2 for a, b in zip(s, x))


class CheckResult(Record):
    name: str
    ok: bool
    detail: str


def run_instance_checks(g: MultiGraph, seed: int = 0) -> list[CheckResult]:
    """Run every size-appropriate invariant check against one graph."""
    rng = random.Random(seed)
    out: list[CheckResult] = []

    def add(name: str, ok: bool, detail: str = ""):
        out.append(CheckResult(name, bool(ok), detail))

    f_edges = setfn.edge_count_fn(g)
    f_rank = setfn.graphic_rank_fn(g)

    if g.n <= setfn.CHECK_CAP:
        add("edge_count_supermodular", setfn.check_kind(f_edges) and setfn.check_monotone(f_edges) and setfn.check_normalized(f_edges))
    if g.m <= setfn.CHECK_CAP:
        add("graphic_rank_submodular", setfn.check_kind(f_rank) and setfn.check_monotone(f_rank) and setfn.check_normalized(f_rank))
        dual = setfn.dualize(f_rank)
        back = setfn.dualize(dual)
        pairs = zip(setfn.walk(back), setfn.walk(f_rank))
        add("dualize_involution", all(vb == vf for (_, vb), (_, vf) in pairs))

    if g.n <= setfn.ENUM_CAP:
        trials = [polytope.lmo(f_edges, [rng.randint(0, 12) for _ in range(g.n)]) for _ in range(5)]
        based = polytope.verify_bases(f_edges, trials)
        add("lmo_output_is_base", all(based), "" if all(based) else f"trial {based.index(False)}")

    if g.n <= 6:
        verts = polytope.enumerate_base_vertices(f_edges)
        ok = True
        for _ in range(20):
            w = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(g.n)]
            got = polytope.lmo(f_edges, w).dot(w)
            want = min(v.dot(w) for v in verts)
            if got != want:
                ok = False
                break
        add("edmonds_minimizes", ok)

    if g.m <= _ORIENTATION_CAP:
        loads = integral_orientation_loads(g)
        distinct = set(loads)
        if g.n <= setfn.ENUM_CAP:  # verify_bases scans all 2^n vertex subsets
            add("orientation_loads_are_bases", all(polytope.verify_bases(f_edges, distinct)))
        if g.n <= 6:  # verts was enumerated above
            add("vertices_are_orientations", all(v.values in distinct for v in verts))
        lo, hi = fw.curvature_bounds(g)
        wit = curvature_witness(g)
        add("curvature_bracket", lo <= wit <= hi, f"2m={lo} witness={wit} cap={hi}")

    if g.m >= 1:
        sq = fw.degree_square_sum(g)
        ok = True
        for _ in range(10):
            w = rng.choices(range(16), k=g.n)
            dhat = peel.weighted_supergreedy(f_edges, w).dhat
            dstar = polytope.lmo(f_edges, w)
            if dhat.dot(w) > dstar.dot(w) + sq:
                ok = False
                break
        add("peel_error_bound", ok)

    if g.n <= 12:
        dec = decomp.decompose_supermodular(f_edges)
        strictly = all(a > b for a, b in zip(dec.densities, dec.densities[1:]))
        add("contraction_densities_decrease", strictly)
        bstar = dec.vector(f_edges.ground)
        add("density_vector_is_base", polytope.verify_bases(f_edges, [bstar])[0])
        if g.n <= 7:
            add("density_vector_certified", decomp.certify_lex_optimal(f_edges, bstar))
    if 1 <= g.m <= 9:
        add("decomposition_equivalence", decomp.verify_decomposition_equivalence(f_rank))

    if is_connected(g) and 2 <= g.n <= treepack.PARTITION_CAP and g.m <= setfn.ENUM_CAP:
        ideal = treepack.ideal_loads(g)
        tau, tnw = treepack._tnw(g)  # one scan gives the strength and the top level of the loads
        add("ideal_loads_match_partitions", ideal.values == tnw.values)
        add("ideal_loads_are_base", polytope.verify_bases(f_rank, [ideal])[0])
        add("max_load_is_inv_strength", max(ideal.values) == 1 / tau)
    return out

