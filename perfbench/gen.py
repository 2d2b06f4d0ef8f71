"""Seeded instance generator and per-workload call lists.

Only the generated `.el` files reach the program; the seed stays here.
Two graph families:

- uniform: a spanning path over a shuffled vertex order plus random extra
  edges between least-degree vertices. The contraction decomposition is one
  block (on every seed tried), so its one step enumerates the whole ground set.
- tiered: planted cores of falling density, consecutive cores joined by a
  single edge. The decomposition then has several blocks and the enumerated
  ground set shrinks after each one.

Sizes are fixed per workload and only the edges depend on the seed, so the
work per call barely moves between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Call:
    """One CLI invocation. `args` holds `{el}` and `{trace}` placeholders
    that the runner fills with paths in its work directory."""

    sub: str  # subcommand, or "certify" for the trace-envelope library call
    args: tuple[str, ...]
    graph: str  # name of the generated or bundled edge list
    kind: str = ""  # certify only: which envelope form to check


def _write(path: Path, n: int, edges: list[tuple[int, int]], comment: str) -> None:
    lines = [f"# {comment} n={n} m={len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def uniform(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Spanning path plus m - (n - 1) random edges, shuffled.

    Each extra edge joins two random vertices of least degree, so degrees
    differ by at most about one and the whole vertex set is (nearly always)
    the densest set. Parallel edges can occur; self-loops cannot.
    """
    if n < 2 or m < n - 1:
        raise ValueError(f"need n >= 2 and m >= n - 1, got n={n} m={m}")
    order = list(range(n))
    rng.shuffle(order)
    edges = list(zip(order, order[1:]))
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    # by_deg[d] holds the vertices of degree d; least degrees are drawn first.
    by_deg: dict[int, list[int]] = {}
    for v in range(n):
        by_deg.setdefault(deg[v], []).append(v)
    low = min(by_deg)

    def take() -> int:
        nonlocal low
        while not by_deg.get(low):
            low += 1
        pool = by_deg[low]
        i = rng.randrange(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        return pool.pop()

    for _ in range(m - (n - 1)):
        u = take()
        v = take()
        for x in (u, v):
            deg[x] += 1
            by_deg.setdefault(deg[x], []).append(x)
        edges.append((u, v))
    rng.shuffle(edges)
    return [(min(u, v), max(u, v)) for u, v in edges]


def tiered(rng: random.Random, cores: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Cores given as (size, edges) with falling edges/size; core i is a
    uniform graph on its own ids, and core i+1 hangs off core i by one edge."""
    edges: list[tuple[int, int]] = []
    base = 0
    prev: list[int] = []
    for size, m in cores:
        ids = list(range(base, base + size))
        edges += [(ids[u], ids[v]) for u, v in uniform(rng, size, m)]
        if prev:
            edges.append((rng.choice(prev), rng.choice(ids)))
        prev = ids
        base += size
    rng.shuffle(edges)
    return edges


# Sizes. `exact` sits a few elements under the 20-element enumeration cap so
# that one pass stays near the run length; `iterate` sits above every
# reference cap (n > 12, m > 20) so no exact reference is ever computed;
# `trace` stays at or under the reference caps so every trace carries one.
EXACT_UNIFORM = (15, 30)
EXACT_TIERED = [(6, 15), (6, 11), (5, 6)]
EXACT_SUBDEL = (9, 15)  # ground set is the edge set for sub-del and idealloads
EXACT_VERIFY = (9, 13)
ITER_GREEDY = (10_000, 50_000)
ITER_TREE = (2_000, 10_000)
ITER_SUPER = (60, 240)
ITER_RANKDUAL = (30, 60)
TRACE_UNIFORM = (12, 24)
TRACE_TIERED = [(5, 10), (4, 5), (3, 2)]
TRACE_TREE = (8, 14)
TRACE_RANKDUAL = (6, 9)


def build(workload: str, seed: int, workdir: Path, data_dir: Path) -> tuple[list[Call], dict[str, Path]]:
    """Write the workload's edge lists under workdir and return its call list
    and a map from graph name to file. Same seed, same files and calls."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    graphs: dict[str, Path] = {}

    def make(name: str, edges, n: int, comment: str) -> str:
        path = workdir / f"{name}.el"
        _write(path, n, edges, comment)
        graphs[name] = path
        return name

    calls: list[Call] = []
    if workload == "exact":
        u = make("uniform", uniform(rng, *EXACT_UNIFORM), EXACT_UNIFORM[0], "uniform")
        t = make("tiered", tiered(rng, EXACT_TIERED), sum(s for s, _ in EXACT_TIERED), "tiered")
        s = make("subdel", uniform(rng, *EXACT_SUBDEL), EXACT_SUBDEL[0], "uniform")
        v = make("verify", uniform(rng, *EXACT_VERIFY), EXACT_VERIFY[0], "uniform")
        calls += [
            Call("density", ("density", "{el}"), u),
            Call("decompose", ("decompose", "{el}"), u),
            Call("density", ("density", "{el}"), t),
            Call("decompose", ("decompose", "{el}"), t),
            Call("decompose", ("decompose", "--variant", "sub-del", "{el}"), s),
            Call("idealloads", ("idealloads", "{el}"), s),
            Call("verify", ("verify", "{el}"), v),
        ]
    elif workload == "iterate":
        g = make("greedy", uniform(rng, *ITER_GREEDY), ITER_GREEDY[0], "uniform")
        t = make("tree", uniform(rng, *ITER_TREE), ITER_TREE[0], "uniform")
        s = make("super", uniform(rng, *ITER_SUPER), ITER_SUPER[0], "uniform")
        r = make("rankdual", uniform(rng, *ITER_RANKDUAL), ITER_RANKDUAL[0], "uniform")
        calls += [
            Call("greedypp", ("greedypp", "--iters", "10", "{el}"), g),
            Call("treepack", ("treepack", "--iters", "60", "{el}"), t),
            Call("treepack", ("treepack", "--mode", "fw", "--schedule", "standard", "--iters", "60", "{el}"), t),
            Call("fw-qp", ("fw-qp", "--iters", "40", "{el}"), g),
            Call("supergreedypp", ("supergreedypp", "--iters", "60", "{el}"), s),
            Call("supergreedypp", ("supergreedypp", "--fn", "rank-dual", "--iters", "15", "{el}"), r),
        ]
    elif workload == "trace":
        # Early stops (--epsilon) only on the bundled files: their stopping
        # round is fixed, where on seeded graphs it would move with the seed.
        for p in sorted(data_dir.glob("*.el")):
            graphs[p.stem] = p
            calls += [
                Call("greedypp", ("greedypp", "--iters", "400", "--epsilon", "0.001", "--trace", "{trace}", "{el}"), p.stem),
                Call("certify", (), p.stem, "edges"),
            ]
        e = make("uniform", uniform(rng, *TRACE_UNIFORM), TRACE_UNIFORM[0], "uniform")
        te = make("tiered", tiered(rng, TRACE_TIERED), sum(s for s, _ in TRACE_TIERED), "tiered")
        t = make("tree", uniform(rng, *TRACE_TREE), TRACE_TREE[0], "uniform")
        r = make("rankdual", uniform(rng, *TRACE_RANKDUAL), TRACE_RANKDUAL[0], "uniform")
        for name in (e, te):
            calls += [
                Call("greedypp", ("greedypp", "--iters", "500", "--trace", "{trace}", "{el}"), name),
                Call("certify", (), name, "edges"),
                Call("supergreedypp", ("supergreedypp", "--iters", "60", "--trace", "{trace}", "{el}"), name),
                Call("certify", (), name, "edges"),
                Call("fw-qp", ("fw-qp", "--iters", "300", "--trace", "{trace}", "{el}"), name),
                Call("certify", (), name, "qp"),
            ]
        calls += [
            Call("treepack", ("treepack", "--iters", "500", "--trace", "{trace}", "{el}"), t),
            Call("certify", (), t, "tree"),
            Call("treepack", ("treepack", "--mode", "fw", "--schedule", "standard", "--iters", "300", "--trace", "{trace}", "{el}"), t),
            Call("certify", (), t, "tree"),
            Call("supergreedypp", ("supergreedypp", "--fn", "rank-dual", "--iters", "60", "--trace", "{trace}", "{el}"), r),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls, graphs
