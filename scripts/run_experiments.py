#!/usr/bin/env python3
"""Run the full desk-scale experiment sweep over the bundled instances.

For every edge list in data/ this writes, under --out-dir, what `densefw`
prints, run in process:
  NAME.decomposition.json   decompose
  NAME.peel.csv             greedypp --trace (iterated peeling)
  NAME.fwqp.csv             fw-qp --trace (Frank-Wolfe on the orientation polytope)
  NAME.treepack_avg.csv     treepack --trace (greedy tree packing)
  NAME.treepack_std.csv     treepack --mode fw --schedule standard --trace
  summary.json              per-instance headline numbers

So the CLI alone decides which exact reference a trace is measured against;
above its caps the distance column is blank. A subcommand that exits 3 (a
disconnected graph, or a ground set over a cap) leaves its file and summary
entries out; any other failure stops the sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
from pathlib import Path

from densefw import parse_edge_list, tnw_strength
from densefw.cli import run


def run_cli(*argv) -> str | None:
    """The stdout of `densefw ARGV`, or None when it exits 3."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([str(a) for a in argv])
    if code not in (0, 3):
        raise RuntimeError(f"densefw {' '.join(map(str, argv))} exited {code}")
    return out.getvalue() if code == 0 else None


def run_one(path: Path, out_dir: Path, iters: int) -> dict:
    g = parse_edge_list(path.read_text(encoding="utf-8-sig"))
    info: dict = {"n": g.n, "m": g.m}
    t0 = time.perf_counter()

    dest = out_dir / f"{path.stem}.decomposition.json"
    if run_cli("decompose", path, "--out", dest) is not None:
        dec = json.loads(dest.read_text(encoding="utf-8"))
        info["blocks"] = [b["elements"] for b in dec["blocks"]]
        info["densities"] = [b["density"] for b in dec["blocks"]]

    for tag, *cmd in (("peel", "greedypp"), ("fwqp", "fw-qp"), ("treepack_avg", "treepack"),
                      ("treepack_std", "treepack", "--mode", "fw", "--schedule", "standard")):
        csv = out_dir / f"{path.stem}.{tag}.csv"
        body = run_cli(*cmd, path, "--iters", iters, "--trace", csv)
        if body is None:
            continue
        if tag == "peel":
            peel = json.loads(body)
            info["peel_best_density"] = peel["best_density"]
            info["peel_best_set"] = peel["best_set"]
        dist = csv.read_text(encoding="utf-8").splitlines()[-1].rsplit(",", 1)[1]
        if dist:
            info[f"{tag}_final_dist"] = float(dist)

    with contextlib.suppress(ValueError):  # disconnected, or over the partition cap
        info["strength"] = str(tnw_strength(g))
    loads = run_cli("idealloads", path)
    if loads is not None:
        info["ideal_loads"] = json.loads(loads)

    info["seconds"] = round(time.perf_counter() - t0, 3)
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-dir", default=Path(__file__).resolve().parent.parent / "data",
                    type=Path, help="directory of *.el edge lists")
    ap.add_argument("--out-dir", default=Path("results"), type=Path)
    ap.add_argument("--iters", default=2000, type=int,
                    help="iteration budget for every trace")
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for path in sorted(args.data_dir.glob("*.el")):
        info = summary[path.stem] = run_one(path, args.out_dir, args.iters)
        print(f"[{path.stem}] n={info['n']} m={info['m']} done in {info['seconds']}s", flush=True)
    (args.out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out_dir / 'summary.json'}")


if __name__ == "__main__":
    main()
