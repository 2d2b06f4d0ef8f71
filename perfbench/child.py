"""Child-process entry points of the benchmark, one fresh interpreter each.

    child.py setup EL...                          import densefw.cli, parse each edge list
    child.py [--spans FILE] certify KIND EL CSV   check a trace CSV against the envelope
    child.py --spans FILE cli ARGV...             densefw.cli.run(ARGV), every layer wrapped

With --spans, the public functions of every densefw module are wrapped from
outside before any work runs (see tracer.py) and the spans are written to
FILE at exit. Untraced CLI calls do not come here: they run
`python -m densefw` directly.
"""

from __future__ import annotations

import sys
import time


def certify(kind: str, el_path: str, csv_path: str) -> int:
    """Check every row of a trace against the harmonic-sum envelope
    2 C (1 + delta) H_{k+1} / (k + 1) on objective - opt.

    kind "edges": iterated peeling, C = 2 sum deg^2 and delta = sum deg^2 / m
    (the form of the acceptance tests). kind "qp": Frank-Wolfe with the exact
    orientation oracle, same C, delta = 0. kind "tree": tree packing, C = 2m,
    delta = 0 (the form of the tree-packing tests).
    Prints one JSON line and exits 0 when no row lies above the envelope.
    """
    import json

    from densefw import cli, decomp, fw, setfn, treepack

    with open(el_path, encoding="utf-8") as fh:
        g = cli.parse_edge_list(fh.read())
    if kind == "tree":
        opt = float(sum(v * v for v in treepack.ideal_loads(g).values))
        cap, delta = 2 * g.m, 0
    else:
        opt = float(sum(v * v for v in decomp.density_vector(setfn.edge_count_fn(g)).values))
        _, cap = fw.curvature_bounds(g)
        delta = fw.delta_for_graph(g) if kind == "edges" else 0
    with open(csv_path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    bad = 0
    worst = float("-inf")
    for i, row in enumerate(rows, start=1):
        k, objective, _gamma, _dist = row.split(",")
        if int(k) != i:
            bad += 1
            continue
        slack = float(objective) - opt - float(fw.harmonic_bound(int(k), cap, delta))
        worst = max(worst, slack)
        if slack > 1e-9:
            bad += 1
    ok = header == "k,objective,gamma,dist_ref" and bool(rows) and bad == 0
    print(json.dumps({"ok": ok, "rows": len(rows), "above": bad, "worst_slack": worst}))
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    tracer = None
    if spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        import densefw.cli  # noqa: F401  (every densefw module loads with it)

        tracer.import_s = time.perf_counter() - t0
        tracing.install(tracer)
    try:
        if mode == "setup":
            from densefw import cli

            for path in args:
                with open(path, encoding="utf-8") as fh:
                    cli.parse_edge_list(fh.read())
            return 0
        if mode == "certify":
            if tracer:
                return tracer.call("bench.certify", certify, *args)
            return certify(*args)
        if mode == "cli" and tracer:
            from densefw import cli

            return cli.run(args)
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 64
    finally:
        if tracer:
            tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
