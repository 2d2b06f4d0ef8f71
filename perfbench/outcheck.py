"""Output checks that do not trust the library.

Each check re-derives a property of a CLI answer from the edge list alone:
edge counts, graphic rank by its own union-find, sums and partitions. It
returns an empty string when the output holds and a one-line reason when it
does not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

TRACE_HEADER = "k,objective,gamma,dist_ref"


def read_edges(path: Path) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            u, v = line.split()
            edges.append((int(u), int(v)))
    return 1 + max(max(e) for e in edges), edges


def inside(edges, s) -> int:
    return sum(1 for u, v in edges if u in s and v in s)


def rank(n: int, edges, idx) -> int:
    """Graphic matroid rank of the edges at positions idx."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    r = 0
    for i in idx:
        a, b = find(edges[i][0]), find(edges[i][1])
        if a != b:
            parent[a] = b
            r += 1
    return r


def _flag(args: tuple[str, ...], name: str, default: str) -> str:
    return args[args.index(name) + 1] if name in args else default


def _iterations(args, got: int) -> str:
    iters = int(_flag(args, "--iters", "0"))
    if "--epsilon" in args:
        return "" if 1 <= got <= iters else f"iterations {got} outside 1..{iters}"
    return "" if got == iters else f"iterations {got} != --iters {iters}"


def check_trace(path: Path, rows_expected: int) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        return "trace header changed"
    if len(lines) - 1 != rows_expected:
        return f"trace has {len(lines) - 1} rows, output says {rows_expected}"
    for k, row in enumerate(lines[1:], start=1):
        cols = row.split(",")
        if len(cols) != 4 or int(cols[0]) != k or not cols[3]:
            return f"trace row {k} malformed or missing dist_ref: {row!r}"
    return ""


def check(sub: str, args: tuple[str, ...], el: Path, stdout: bytes, trace: Path | None) -> str:
    """Structural check of one CLI answer; certify answers are checked by
    the caller from their own JSON."""
    n, edges = read_edges(el)
    m = len(edges)
    out = json.loads(stdout)
    if sub == "density":
        s = set(out["set"])
        if not s or Fraction(out["density"]) != Fraction(inside(edges, s), len(s)):
            return "density != edges inside the set / its size"
    elif sub == "decompose":
        blocks = out["blocks"]
        elems = [e for b in blocks for e in b["elements"]]
        ground = m if "sub-del" in args else n
        if sorted(elems) != list(range(ground)):
            return "blocks do not partition the ground set"
        vec = {int(k): Fraction(v) for k, v in out["density_vector"].items()}
        if "sub-del" in args:
            if sum(vec.values()) != rank(n, edges, range(m)):
                return "density vector does not sum to the rank"
        else:
            if sum(vec.values()) != m:
                return "density vector does not sum to m"
            acc: set[int] = set()
            last = None
            for b in blocks:
                block = set(b["elements"])
                d = Fraction(inside(edges, acc | block) - inside(edges, acc), len(block))
                if d != Fraction(b["density"]) or (last is not None and d >= last):
                    return "block densities wrong or not decreasing"
                if any(vec[e] != d for e in block):
                    return "density vector disagrees with its block"
                acc |= block
                last = d
    elif sub == "idealloads":
        loads = [Fraction(v) for v in out.values()]
        if len(loads) != m or sum(loads) != n - 1 or not all(0 < x <= 1 for x in loads):
            return "ideal loads do not sum to n-1 within (0, 1]"
    elif sub == "verify":
        if out["ok"] is not True or not all(c["ok"] for c in out["checks"]):
            return "verify reported a failed check"
    elif sub in ("greedypp", "supergreedypp"):
        s = set(out["best_set"])
        if _flag(args, "--fn", "edges") == "edges":
            val = inside(edges, s)
        else:
            val = rank(n, edges, range(m)) - rank(n, edges, [i for i in range(m) if i not in s])
        if not s or Fraction(out["best_density"]) != Fraction(val, len(s)):
            return "best_density != value of best_set / its size"
        why = _iterations(args, out["iterations"])
        if why:
            return why
    elif sub == "treepack":
        loads = out["loads"]
        if len(loads) != m or not math.isclose(sum(loads.values()), n - 1, rel_tol=1e-9):
            return "tree loads do not sum to n-1"
        why = _iterations(args, out["iterations"])
        if why:
            return why
    elif sub == "fw-qp":
        x = out["iterate"]
        if len(x) != n or not math.isclose(sum(x.values()), m, rel_tol=1e-9):
            return "iterate does not sum to m"
        if not math.isclose(out["objective"], sum(v * v for v in x.values()), rel_tol=1e-9):
            return "objective != sum of squares of the iterate"
        why = _iterations(args, out["iterations"])
        if why:
            return why
    else:
        return f"no check for {sub!r}"
    if trace is not None:
        return check_trace(trace, out["iterations"])
    return ""
