#!/usr/bin/env python3
"""Record the byte digests that run.py checks fixed-input calls against.

    python3 perfbench/record_golden.py

Run it from the root of a checkout of the code whose output is the
reference. It rewrites perfbench/golden.json: one digest of stdout (and of
the trace CSV, for --trace calls) per warm-up call and per timed call on a
bundled data/*.el file.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys

import run


def main() -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    work = run.HERE / "work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = run.child_env()
    golden = {}

    def record(args: tuple[str, ...], graph: str, el) -> None:
        trace = work / "t.csv" if "{trace}" in args else None
        argv = ["-m", "densefw", *run.fill(args, el, trace)]
        rc, _, _ = run.spawn(argv, work / "out", work / "err", env)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)}: exit {rc}")
        golden[run.golden_key(args, graph)] = run.digest((work / "out").read_bytes(), trace)

    el = run.ROOT / "data" / f"{run.GOLDEN_GRAPH}.el"
    for calls in run.GOLDEN_CALLS.values():
        for args in calls:
            record((*args, "{el}"), run.GOLDEN_GRAPH, el)
    calls, graphs = run.gen.build("trace", 0, work / "graphs", run.ROOT / "data")
    for call in calls:
        if call.sub != "certify" and graphs[call.graph].parent == run.ROOT / "data":
            record(call.args, call.graph, graphs[call.graph])
    path = run.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
