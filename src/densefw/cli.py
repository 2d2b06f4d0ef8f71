"""Command line interface.

Subcommands read an edge-list file and print one JSON object to stdout (or
--out). Rationals serialize as "p/q" strings in lowest terms, floats with
12 significant digits; identical inputs and flags produce byte-identical
output. Exit codes: 0 success, 2 malformed input, 3 structurally
infeasible request (disconnected graph, ground set too large, degenerate
oracle), 64 unknown subcommand or flag.

Each handler imports the modules its subcommand runs, so a call loads
only those: start-up is a large share of a short run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import setfn
from .errors import GraphParseError
from .graph import MultiGraph, parse_edge_list

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_USAGE = 64

REF_SIZE_CAP = 12  # compute exact reference vectors for traces up to this size


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x) -> object:
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    return float(format(float(x), ".12g"))


def _build_parser() -> _Parser:
    p = _Parser(prog="densefw", description="Dense decompositions, peeling, and tree packing.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp, iters_default=100):
        sp.add_argument("path", help="edge-list file (lines 'u v', '#' comments)")
        sp.add_argument("--iters", "-T", type=int, default=iters_default)
        sp.add_argument("--epsilon", type=float, default=None, help="early stop on distance to the exact optimum")
        sp.add_argument("--out", default=None, help="write the JSON result here instead of stdout")
        sp.add_argument("--trace", default=None, help="write a per-iteration CSV trace here")

    sp = sub.add_parser("density", help="densest subgraph by exhaustive search")
    sp.add_argument("path")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("decompose", help="dense decomposition")
    sp.add_argument("path")
    sp.add_argument("--variant", choices=["sup", "sub-del"], default="sup")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("greedypp", help="iterated degree peeling")
    common(sp)

    sp = sub.add_parser("supergreedypp", help="iterated supermodular peeling")
    common(sp)
    sp.add_argument("--fn", choices=["edges", "rank-dual"], default="edges")

    sp = sub.add_parser("treepack", help="greedy spanning tree packing")
    common(sp, iters_default=10000)
    sp.add_argument("--mode", choices=["greedy", "fw"], default="greedy")
    sp.add_argument("--schedule", choices=["avg", "standard"], default="avg")

    sp = sub.add_parser("idealloads", help="exact ideal tree-packing loads")
    sp.add_argument("path")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("fw-qp", help="Frank-Wolfe on the edge-count quadratic program")
    common(sp, iters_default=1000)
    sp.add_argument("--schedule", choices=["avg", "standard"], default="avg")
    sp.add_argument("--exact", action="store_true", help="exact rational iterates (at most 20 iterations)")

    sp = sub.add_parser("verify", help="run the invariant suite on the instance")
    sp.add_argument("path")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    return p


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph(path: str) -> MultiGraph:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        return parse_edge_list(fh.read())


def _ref(ns: argparse.Namespace, f: setfn.SetFunctionOracle):
    """density_vector(f) if --trace/--epsilon wants it and f fits REF_SIZE_CAP."""
    if (ns.trace or ns.epsilon is not None) and len(f.ground) <= REF_SIZE_CAP:
        from . import decomp

        return decomp.density_vector(f)
    return None


def _cmd_density(ns: argparse.Namespace, g: MultiGraph) -> int:
    from . import decomp

    best, dens = decomp.densest_set_bruteforce(setfn.edge_count_fn(g))
    _emit({"set": sorted(best), "density": str(dens)}, ns.out)
    return EXIT_OK


def _cmd_decompose(ns: argparse.Namespace, g: MultiGraph) -> int:
    from . import decomp

    if ns.variant == "sup":
        f = setfn.edge_count_fn(g)
        dec = decomp.decompose_supermodular(f)
    else:
        f = setfn.graphic_rank_fn(g)
        dec = decomp.decompose_submodular_deletion(f)
    body = dec.to_json_dict()
    bstar = dec.vector(f.ground)
    body["density_vector"] = {str(e): str(v) for e, v in zip(bstar.ground, bstar.values)}
    _emit(body, ns.out)
    return EXIT_OK


def _run_trace(ns: argparse.Namespace, trace) -> None:
    if ns.trace:
        trace.write_csv(ns.trace)


def _cmd_greedypp(ns: argparse.Namespace, g: MultiGraph) -> int:
    from . import peel

    res = peel.greedy_pp(g, ns.iters, ref=_ref(ns, setfn.edge_count_fn(g)), stop_dist=ns.epsilon)
    _run_trace(ns, res.trace)
    _emit(res.to_json_dict(), ns.out)
    return EXIT_OK


def _cmd_supergreedypp(ns: argparse.Namespace, g: MultiGraph) -> int:
    from . import peel

    if ns.fn == "edges":
        f = setfn.edge_count_fn(g)
    else:
        f = setfn.dualize(setfn.graphic_rank_fn(g))
    res = peel.supergreedy_pp(f, ns.iters, ref=_ref(ns, f), stop_dist=ns.epsilon)
    _run_trace(ns, res.trace)
    _emit(res.to_json_dict(), ns.out)
    return EXIT_OK


def _cmd_treepack(ns: argparse.Namespace, g: MultiGraph) -> int:
    from . import fw, treepack

    ref = None
    if (ns.trace or ns.epsilon is not None) and g.m <= setfn.ENUM_CAP:
        ref = treepack.ideal_loads(g)
    # greedy mode is Frank-Wolfe with averaging steps whatever --schedule says
    schedule = ns.schedule if ns.mode == "fw" else fw.AVERAGING
    loads, trace = treepack.fw_tree_pack(g, ns.iters, schedule=schedule, ref=ref, stop_dist=ns.epsilon)
    _run_trace(ns, trace)
    _emit(
        {
            "loads": {str(e): _fmt(v) for e, v in zip(loads.ground, loads.values)},
            "iterations": len(trace.records),
        },
        ns.out,
    )
    return EXIT_OK


def _cmd_idealloads(ns: argparse.Namespace, g: MultiGraph) -> int:
    from . import treepack

    loads = treepack.ideal_loads(g)
    _emit({str(e): str(v) for e, v in zip(loads.ground, loads.values)}, ns.out)
    return EXIT_OK


def _cmd_fw_qp(ns: argparse.Namespace, g: MultiGraph) -> int:
    from . import fw

    f = setfn.edge_count_fn(g)
    ref = _ref(ns, f)
    if ns.exact and ns.iters > fw.EXACT_ITERATION_CAP:  # for either schedule, as documented under --exact
        raise ValueError(f"exact mode supports at most {fw.EXACT_ITERATION_CAP} iterations")
    x, trace = fw.fw_qp(f, ns.iters, schedule=ns.schedule, ref=ref, exact=ns.exact, stop_dist=ns.epsilon)
    _run_trace(ns, trace)
    _emit(
        {
            "iterate": {str(v): _fmt(val) for v, val in zip(x.ground, x.values)},
            "objective": _fmt(sum(float(v) ** 2 for v in x.values)),
            "iterations": len(trace.records),
        },
        ns.out,
    )
    return EXIT_OK


def _cmd_verify(ns: argparse.Namespace, g: MultiGraph) -> int:
    from . import checks

    results = checks.run_instance_checks(g, seed=ns.seed)
    ok = all(r.ok for r in results)
    _emit(
        {
            "ok": ok,
            "checks": [{"name": r.name, "ok": r.ok} for r in results],
        },
        ns.out,
    )
    return EXIT_OK if ok else 1


_COMMANDS = {
    "density": _cmd_density,
    "decompose": _cmd_decompose,
    "greedypp": _cmd_greedypp,
    "supergreedypp": _cmd_supergreedypp,
    "treepack": _cmd_treepack,
    "idealloads": _cmd_idealloads,
    "fw-qp": _cmd_fw_qp,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute, return the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if "iters" in ns and ns.iters < 1:
        print("error: --iters must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    if "epsilon" in ns and ns.epsilon is not None and not 0 < ns.epsilon < math.inf:
        print("error: --epsilon must be finite and > 0", file=sys.stderr)
        return EXIT_INPUT
    try:
        return _COMMANDS[ns.command](ns, _load_graph(ns.path))
    except (GraphParseError, OSError, UnicodeDecodeError) as e:  # the last is a ValueError: not exit 3
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as e:  # the .errors classes behind exit 3 all subclass ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
