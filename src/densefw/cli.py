"""Command line interface.

Subcommands read an edge-list file and print one JSON object to stdout (or
--out): each handler returns the object and `run` writes it. Rationals
serialize as "p/q" strings in lowest terms, floats with 12 significant
digits; identical inputs and flags produce byte-identical output. Exit
codes: 0 success, 1 a `verify` check failed, 2 malformed input, 3
structurally infeasible request (disconnected graph, ground set too large,
degenerate oracle), 64 unknown subcommand or flag.

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
from .errors import GraphParseError, GroundSetTooLargeError
from .graph import MultiGraph, is_connected, parse_edge_list

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_USAGE = 64

REF_SIZE_CAP = 12  # compute exact reference vectors for traces up to this size
EXACT_ITERATION_CAP = 20  # fw-qp --exact iterations, under either schedule
SUPERGREEDY_CAP = 200  # supergreedypp ground sets, either --fn: a rank-dual scan round asks O(n^2) marginals


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
    sp.set_defaults(handler=_cmd_density)
    sp.add_argument("path")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("decompose", help="dense decomposition")
    sp.set_defaults(handler=_cmd_decompose)
    sp.add_argument("path")
    sp.add_argument("--variant", choices=["sup", "sub-del"], default="sup")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("greedypp", help="iterated degree peeling")
    sp.set_defaults(handler=_cmd_greedypp)
    common(sp)

    sp = sub.add_parser("supergreedypp", help="iterated supermodular peeling")
    sp.set_defaults(handler=_cmd_supergreedypp)
    common(sp)
    sp.add_argument("--fn", choices=["edges", "rank-dual"], default="edges")

    sp = sub.add_parser("treepack", help="greedy spanning tree packing")
    sp.set_defaults(handler=_cmd_treepack)
    common(sp, iters_default=10000)
    sp.add_argument("--mode", choices=["greedy", "fw"], default="greedy")
    sp.add_argument("--schedule", choices=["avg", "standard"], default="avg")

    sp = sub.add_parser("idealloads", help="exact ideal tree-packing loads")
    sp.set_defaults(handler=_cmd_idealloads)
    sp.add_argument("path")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("fw-qp", help="Frank-Wolfe on the edge-count quadratic program")
    sp.set_defaults(handler=_cmd_fw_qp)
    common(sp, iters_default=1000)
    sp.add_argument("--schedule", choices=["avg", "standard"], default="avg")
    sp.add_argument("--exact", action="store_true",
                    help=f"exact rational iterates (at most {EXACT_ITERATION_CAP} iterations)")

    sp = sub.add_parser("verify", help="run the invariant suite on the instance")
    sp.set_defaults(handler=_cmd_verify)
    sp.add_argument("path")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    return p


def _load_graph(path: str) -> MultiGraph:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        return parse_edge_list(fh.read())


def _vector(x, fmt=str) -> dict:
    """A BaseVector as a JSON object from element to fmt(value)."""
    return {str(e): fmt(v) for e, v in zip(x.ground, x.values)}


def _ref(ns: argparse.Namespace, f: setfn.SetFunctionOracle, cap: int = REF_SIZE_CAP):
    """density_vector(f) if --trace/--epsilon wants it and f has at most cap elements."""
    if (ns.trace or ns.epsilon is not None) and len(f.ground) <= cap:
        from . import decomp

        return decomp.density_vector(f)
    return None


def _trace(ns: argparse.Namespace, trace) -> int:
    """Write the trace CSV if --trace asks for it; the iteration count."""
    if ns.trace:
        trace.write_csv(ns.trace)
    return len(trace.records)


def _cmd_density(ns: argparse.Namespace, g: MultiGraph) -> dict:
    from . import decomp

    GroundSetTooLargeError.check("subset enumeration", g.n, setfn.ENUM_CAP)  # walk's refusal, before the oracle
    best, dens = decomp.densest_set_bruteforce(setfn.edge_count_fn(g))
    return {"set": sorted(best), "density": str(dens)}


def _cmd_decompose(ns: argparse.Namespace, g: MultiGraph) -> dict:
    from . import decomp

    if ns.variant == "sup":
        GroundSetTooLargeError.check("subset enumeration", g.n, setfn.ENUM_CAP)  # as in _cmd_density
        f = setfn.edge_count_fn(g)
        dec = decomp.decompose_supermodular(f)
    else:
        f = setfn.graphic_rank_fn(g)
        dec = decomp.decompose_submodular_deletion(f)
    return {
        "variant": dec.variant,
        "blocks": [{"elements": sorted(b), "density": str(d)} for b, d in zip(dec.blocks, dec.densities)],
        "density_vector": _vector(dec.vector(f.ground)),
    }


def _peel_run(ns: argparse.Namespace, f: setfn.SetFunctionOracle) -> dict:
    """The greedypp/supergreedypp body of a Super-Greedy++ run on f."""
    from . import peel

    res = peel.supergreedy_pp(f, ns.iters, ref=_ref(ns, f), stop_dist=ns.epsilon)
    return {
        "best_set": sorted(res.best_set),
        "best_density": str(res.best_density),
        "iterations": _trace(ns, res.trace),
    }


def _cmd_greedypp(ns: argparse.Namespace, g: MultiGraph) -> dict:
    return _peel_run(ns, setfn.edge_count_fn(g))


def _cmd_supergreedypp(ns: argparse.Namespace, g: MultiGraph) -> dict:
    size = g.n if ns.fn == "edges" else g.m  # the ground set's, checked before the oracle is built
    GroundSetTooLargeError.check("supermodular peeling", size, SUPERGREEDY_CAP)
    return _peel_run(ns, setfn.edge_count_fn(g) if ns.fn == "edges" else setfn.dualize(setfn.graphic_rank_fn(g)))


def _cmd_treepack(ns: argparse.Namespace, g: MultiGraph) -> dict:
    from . import fw, treepack

    # a disconnected graph goes straight to fw_tree_pack's error
    ref = _ref(ns, setfn.graphic_rank_fn(g), setfn.ENUM_CAP) if is_connected(g) else None
    # greedy mode is Frank-Wolfe with averaging steps whatever --schedule says
    schedule = ns.schedule if ns.mode == "fw" else fw.AVERAGING
    loads, trace = treepack.fw_tree_pack(g, ns.iters, schedule=schedule, ref=ref, stop_dist=ns.epsilon)
    return {"loads": _vector(loads, _fmt), "iterations": _trace(ns, trace)}


def _cmd_idealloads(ns: argparse.Namespace, g: MultiGraph) -> dict:
    from . import treepack

    return _vector(treepack.ideal_loads(g))


def _cmd_fw_qp(ns: argparse.Namespace, g: MultiGraph) -> dict:
    from . import fw

    if ns.exact and ns.iters > EXACT_ITERATION_CAP:
        raise ValueError(f"exact mode supports at most {EXACT_ITERATION_CAP} iterations")
    f = setfn.edge_count_fn(g)
    x, trace = fw.fw_qp(f, ns.iters, schedule=ns.schedule, ref=_ref(ns, f), exact=ns.exact, stop_dist=ns.epsilon)
    return {
        "iterate": _vector(x, _fmt),
        "objective": _fmt(sum(float(v) ** 2 for v in x.values)),
        "iterations": _trace(ns, trace),
    }


def _cmd_verify(ns: argparse.Namespace, g: MultiGraph) -> dict:
    from . import checks

    results = checks.run_instance_checks(g, seed=ns.seed)
    return {"ok": all(r.ok for r in results), "checks": [{"name": r.name, "ok": r.ok} for r in results]}


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
        body = ns.handler(ns, _load_graph(ns.path))
        text = json.dumps(body, separators=(",", ":")) + "\n"
        if ns.out:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (GraphParseError, OSError, UnicodeDecodeError) as e:  # the last is a ValueError: not exit 3
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as e:  # the .errors classes behind exit 3 all subclass ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return 1 if ns.command == "verify" and not body["ok"] else EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
