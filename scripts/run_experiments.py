#!/usr/bin/env python3
"""Run the full desk-scale experiment sweep over the bundled instances.

For every edge list in data/ this produces, under --out-dir:
  NAME.decomposition.json   exact dense decomposition + density vector
  NAME.peel.csv             iterated-peeling trace (objective, step, distance)
  NAME.fwqp.csv             Frank-Wolfe trace on the orientation polytope
  NAME.treepack_avg.csv     greedy tree packing trace (averaging steps)
  NAME.treepack_std.csv     tree packing with the standard step rule
  summary.json              per-instance headline numbers

Distances are against the exact optimum whenever the instance is small
enough to compute it; otherwise the column is left blank.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from densefw import (
    AVERAGING,
    STANDARD,
    decompose_supermodular,
    edge_count_fn,
    fw_qp,
    fw_tree_pack,
    greedy_pp,
    ideal_loads,
    is_connected,
    parse_edge_list,
    tnw_strength,
)
from densefw.cli import REF_SIZE_CAP
from densefw.setfn import ENUM_CAP
from densefw.treepack import PARTITION_CAP

LOAD_CAP = ENUM_CAP


def load_instances(data_dir: Path):
    for path in sorted(data_dir.glob("*.el")):
        yield path.stem, parse_edge_list(path.read_text(encoding="utf-8"))


def run_one(name, g, out_dir: Path, iters: int) -> dict:
    info: dict = {"n": g.n, "m": g.m}
    t0 = time.perf_counter()

    f = edge_count_fn(g)
    dec = decompose_supermodular(f)
    ref = dec.vector(f.ground) if g.n <= REF_SIZE_CAP else None
    body = dec.to_json_dict()
    if ref is not None:
        body["density_vector"] = {str(v): str(x) for v, x in zip(ref.ground, ref.values)}
    (out_dir / f"{name}.decomposition.json").write_text(
        json.dumps(body, indent=2) + "\n", encoding="utf-8")
    info["blocks"] = [list(b) for b in dec.blocks]
    info["densities"] = [str(d) for d in dec.densities]

    res = greedy_pp(g, iters, ref=ref)
    res.trace.write_csv(out_dir / f"{name}.peel.csv")
    info["peel_best_density"] = str(res.best_density)
    info["peel_best_set"] = sorted(res.best_set)
    if ref is not None:
        info["peel_final_dist"] = res.trace.records[-1].dist_ref

    _, tr = fw_qp(f, iters, ref=ref)
    tr.write_csv(out_dir / f"{name}.fwqp.csv")
    if ref is not None:
        info["fwqp_final_dist"] = tr.records[-1].dist_ref

    if is_connected(g) and g.n >= 2:
        loads_ref = ideal_loads(g) if g.m <= LOAD_CAP else None
        for tag, sched in (("avg", AVERAGING), ("std", STANDARD)):
            _, tr = fw_tree_pack(g, iters, schedule=sched, ref=loads_ref)
            tr.write_csv(out_dir / f"{name}.treepack_{tag}.csv")
            if loads_ref is not None:
                info[f"treepack_{tag}_final_dist"] = tr.records[-1].dist_ref
        if g.n <= PARTITION_CAP:
            info["strength"] = str(tnw_strength(g))
        if loads_ref is not None:
            info["ideal_loads"] = {str(e): str(v) for e, v in
                                   zip(loads_ref.ground, loads_ref.values)}

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
    for name, g in load_instances(args.data_dir):
        print(f"[{name}] n={g.n} m={g.m} ...", flush=True)
        summary[name] = run_one(name, g, args.out_dir, args.iters)
        print(f"[{name}] done in {summary[name]['seconds']}s")
    (args.out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out_dir / 'summary.json'}")


if __name__ == "__main__":
    main()
