#!/usr/bin/env python3
"""End-to-end benchmark of the densefw command line.

    python3 perfbench/run.py --workload exact|iterate|trace --seed N --seconds S --trace 0|1

Run it from the root of a densefw checkout. It writes the seeded edge lists
under perfbench/work/, then runs the real CLI (`python -m densefw` with
PYTHONPATH=src) as child processes, one at a time: a closed loop with one
client. Passes over the workload's fixed call list repeat until S seconds
have gone by; the first always completes, the last may be cut short. Every
answer is checked (exit code, structural checks, and byte digests of the
fixed-input calls), and each child's own peak RSS comes from os.wait4.

--trace 0 prints the end-to-end metrics; --trace 1 runs each call once
untraced and once under perfbench/child.py, which wraps every densefw layer
from outside, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Everything else printed is for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import gen
import outcheck
from tracer import HOT, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Calls stop being started, and a running one is killed, this long after
# start, so a run always ends within 180 s.
HARD_DEADLINE = time.perf_counter() + 160
SETUP_PROBES = 8  # set-up probes per --seconds of measuring
# Each child is pinned to one CPU, and a call's repeats rotate over all the
# CPUs this process may use. On a shared host each CPU's speed drifts on its
# own, by up to a third over minutes; rotating averages that drift over the
# CPUs in every run instead of letting one CPU's luck decide a whole run.
CPUS = sorted(os.sched_getaffinity(0))
TAIL_BEYOND = 10  # the tail percentile keeps at least this many calls above it

# Metric name for each subcommand's median call time.
SUB_METRIC = {
    "density": "density_s", "decompose": "decompose_s", "idealloads": "idealloads_s",
    "verify": "verify_s", "greedypp": "greedypp_s", "supergreedypp": "supergreedypp_s",
    "treepack": "treepack_s", "fw-qp": "fwqp_s", "certify": "certify_s",
}

# Fixed-input calls whose stdout (and trace) must stay byte-identical to the
# digests in golden.json. They double as the untimed warm-up of each run.
GOLDEN_GRAPH = "three_tier"
GOLDEN_CALLS = {
    "exact": [
        ("density",), ("decompose",), ("decompose", "--variant", "sub-del"),
        ("idealloads",), ("verify",),
    ],
    "iterate": [
        ("greedypp", "--iters", "50"), ("treepack", "--iters", "50"),
        ("treepack", "--mode", "fw", "--schedule", "standard", "--iters", "50"),
        ("fw-qp", "--iters", "50"), ("supergreedypp", "--iters", "20"),
        ("supergreedypp", "--fn", "rank-dual", "--iters", "20"),
    ],
    "trace": [("greedypp", "--iters", "50")],
}


class CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn, which kills its child


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], out: Path, err: Path, env, cpu: int) -> tuple[int | None, float, float]:
    """Run one child to completion, pinned to `cpu`: (exit code, or None if
    it was still running at HARD_DEADLINE; wall s; the child's own peak RSS
    in MB)."""
    left = HARD_DEADLINE - time.perf_counter()
    if left <= 0:
        return None, 0.0, 0.0
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    os.sched_setaffinity(0, {cpu})  # the child inherits it
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    reaped = False
    signal.setitimer(signal.ITIMER_REAL, left)
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    except CallTimeout:
        return None, time.perf_counter() - t0, 0.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024  # ru_maxrss is KiB


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.env = child_env()
        self.calls, self.graphs = gen.build(workload, seed, work / "graphs", ROOT / "data")
        golden_path = HERE / "golden.json"
        self.golden = json.loads(golden_path.read_text(encoding="utf-8"))
        self.attempted = 0
        self.failures: list[str] = []
        self.blocks: dict[str, list[int]] = {}  # family -> block counts seen by decompose
        # Set-up is probed between calls every probe_every seconds, so its
        # median covers the whole run rather than one moment of it.
        self.setup: list[float] = []
        self.probe_every: float | None = None
        self.last_probe = 0.0
        self.passes = 0

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def one(self, i: int, call: gen.Call, last_trace: Path | None, spans: Path | None, cpu: int):
        """Run and check call i on `cpu`. Returns (wall s, peak RSS MB, ok)."""
        el = self.graphs[call.graph]
        out, err = self.work / f"{i}.out", self.work / f"{i}.err"
        trace = self.work / f"{i}.csv"
        prefix = [str(HERE / "child.py")] + (["--spans", str(spans)] if spans else [])
        if call.sub == "certify":
            argv = prefix + ["certify", call.kind, str(el), str(last_trace)]
        elif spans:
            argv = prefix + ["cli", *fill(call.args, el, trace)]
        else:
            argv = ["-m", "densefw", *fill(call.args, el, trace)]
        self.attempted += 1
        rc, wall, rss = spawn(argv, out, err, self.env, cpu)
        what = f"{self.workload} call {i} ({' '.join(call.args) or call.sub} on {call.graph})"
        if rc != 0:
            stderr = err.read_text(errors="replace").strip()[-300:] if err.exists() else ""
            self.fail(f"{what}: exit {rc}: {stderr}")
            return wall, rss, False
        stdout = out.read_bytes()
        if call.sub == "certify":
            why = "" if json.loads(stdout)["ok"] is True else f"trace above envelope: {stdout!r}"
        else:
            why = outcheck.check(call.sub, call.args, el, stdout, trace if "{trace}" in call.args else None)
        if not why and call.sub != "certify" and el.parent == ROOT / "data":
            want = self.golden.get(golden_key(call.args, call.graph))
            got = digest(stdout, trace if "{trace}" in call.args else None)
            if got != want:
                why = f"output bytes differ from the recorded digest ({got} != {want})"
        if why:
            self.fail(f"{what}: {why}")
            return wall, rss, False
        if call.sub == "decompose" and "sub-del" not in call.args:
            family = "tiered" if "tier" in call.graph else "uniform"
            self.blocks.setdefault(family, []).append(len(json.loads(stdout)["blocks"]))
        return wall, rss, True

    def warm_up(self) -> None:
        """Untimed: fills the bytecode caches and checks the golden digests."""
        el = ROOT / "data" / f"{GOLDEN_GRAPH}.el"
        for j, args in enumerate(GOLDEN_CALLS[self.workload]):
            argv = ["-m", "densefw", *args, str(el)]
            out, err = self.work / f"golden{j}.out", self.work / f"golden{j}.err"
            self.attempted += 1
            rc, _, _ = spawn(argv, out, err, self.env, CPUS[j % len(CPUS)])
            key = golden_key((*args, "{el}"), GOLDEN_GRAPH)
            if rc != 0:
                self.fail(f"golden {key}: exit {rc}")
            elif digest(out.read_bytes(), None) != self.golden.get(key):
                self.fail(f"golden {key}: output bytes differ from the recorded digest")

    def probe_setup(self) -> None:
        """Fresh interpreter: import densefw.cli, parse every edge list of the workload."""
        files = sorted({str(p) for p in self.graphs.values()})
        self.attempted += 1
        rc, wall, _ = spawn([str(HERE / "child.py"), "setup", *files],
                            self.work / "setup.out", self.work / "setup.err", self.env,
                            CPUS[len(self.setup) % len(CPUS)])
        if rc != 0:
            self.fail(f"setup probe: exit {rc}")
        self.setup.append(wall)
        self.last_probe = time.perf_counter()

    def run_pass(self, traced: bool, deadline: float) -> list[dict]:
        """One pass over the call list; stops early once past `deadline`."""
        rows = []
        last_trace = None
        for i, call in enumerate(self.calls):
            if time.perf_counter() >= min(deadline, HARD_DEADLINE):
                break
            if self.probe_every and time.perf_counter() - self.last_probe >= self.probe_every:
                self.probe_setup()
            cpu = CPUS[(i + self.passes) % len(CPUS)]
            row = {"i": i, "sub": call.sub, "on": cpu}
            row["wall"], row["rss"], row["ok"] = self.one(i, call, last_trace, None, cpu)
            if traced:
                spans = self.work / f"{i}.spans.json"
                row["traced_wall"], _, ok = self.one(i, call, last_trace, spans, cpu)
                row["spans"] = json.loads(spans.read_text(encoding="utf-8")) if ok else None
                if ok:
                    row["spans"]["call"] = i
                    why = spans_consistent(row["spans"])
                    if why:
                        self.fail(f"{self.workload} call {i}: traced self times: {why}")
            if "{trace}" in call.args:
                last_trace = self.work / f"{i}.csv"
            rows.append(row)
        self.passes += 1
        return rows


def fill(args: tuple[str, ...], el: Path, trace: Path | None) -> list[str]:
    """A call's argv with its edge-list and trace placeholders filled in."""
    return [str(el) if a == "{el}" else str(trace) if a == "{trace}" else a for a in args]


def golden_key(args: tuple[str, ...], graph: str) -> str:
    return " ".join([*args, graph]).replace("{el}", "EL").replace("{trace}", "CSV")


def digest(stdout: bytes, trace: Path | None) -> str:
    h = hashlib.sha256(stdout)
    if trace is not None:
        h.update(b"\0" + trace.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- per-layer


def spans_consistent(doc: dict) -> str:
    """Self times of one traced call must add up to its root span.

    Recomputes each stored span's self time from the stored tree (duration
    minus stored children minus the hot children it recorded) and adds the
    aggregated self time of the hot spans; the total must equal the root's
    duration, and every child must lie inside its parent.
    """
    spans = doc["spans"]
    roots = [s for s in spans if s[4] < 0]
    if len(roots) != 1:
        return f"{len(roots)} root spans"
    by_id = {s[0]: s for s in spans}
    child_s = dict.fromkeys(by_id, 0.0)
    for sid, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            p = by_id[parent]
            if start < p[2] or end > p[3]:
                return f"span {sid} outside its parent"
            child_s[parent] += end - start
    total = sum(s[3] - s[2] - child_s[s[0]] - s[5] for s in spans)
    total += sum(a[1] for name, a in doc["agg"].items() if name in HOT)
    root = roots[0][3] - roots[0][2]
    if abs(total - root) > 1e-6 + 1e-9 * root:
        return f"self times sum to {total:.9f} s, root span is {root:.9f} s"
    return ""


def group_time(spans: list, names: set[str]) -> float:
    """Time spent inside spans named in `names`, counting nested ones once."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[1] not in names:
            continue
        p = s[4]
        while p >= 0 and by_id[p][1] not in names:
            p = by_id[p][4]
        if p < 0:
            total += s[3] - s[2]
    return total


LMO = {"polytope.lmo", "polytope.lmo_polymatroid", "polytope.lmo_contrapolymatroid", "polytope.optimal_orientation"}
PEELS = {"peel.weighted_greedy", "peel.weighted_supergreedy"}
TNW = {"treepack.tnw_strength", "treepack.tnw_ideal_loads"}


def layer_metrics(rows: list[dict]) -> tuple[dict[str, float], dict[str, list]]:
    """Per-layer metrics of one traced pass, and its per-span-name totals."""
    agg: dict[str, list] = {}
    spans_all: list[list] = []
    distinct = 0
    steps = 0
    for r in rows:
        doc = r["spans"]
        if doc is None:
            continue
        for name, (count, self_s, outer_s, errors) in doc["agg"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0, 0])
            a[0] += count
            a[1] += self_s
            a[2] += outer_s
            a[3] += errors
        spans_all.append(doc["spans"])
        distinct += doc["distinct_sets"]
        steps += doc["fw_steps"]

    def count(names):
        return sum(agg[n][0] for n in names if n in agg)

    def self_of(pred):
        return sum(a[1] for n, a in agg.items() if pred(n))

    def grouped(names):
        return sum(group_time(s, names) for s in spans_all)

    def layer(n):
        return n.split(".")[0]

    evals = count(["setfn.eval"])
    m = {
        "cli.self_s": self_of(lambda n: n == "cli.run"),
        "graph.parse_s": grouped({"graph.parse_edge_list"}),
        "graph.mst_calls": count(["graph.minimum_spanning_tree"]),
        "graph.mst_s": grouped({"graph.minimum_spanning_tree"}),
        "graph.components_calls": count(["graph.components"]),
        "graph.components_s": agg.get("graph.components", [0, 0.0, 0.0])[2],
        "setfn.evals": evals,
        "setfn.eval_s": agg.get("setfn.eval", [0, 0.0, 0.0])[2],
        "setfn.distinct_sets": distinct,
        "setfn.distinct_frac": distinct / evals if evals else 0.0,
        "decomp.calls": sum(a[0] for n, a in agg.items() if layer(n) == "decomp"),
        "decomp.self_s": self_of(lambda n: layer(n) == "decomp"),
        "polytope.lmo_calls": count(LMO),
        "polytope.lmo_s": grouped(LMO),
        "polytope.verify_base_calls": count(["polytope.verify_base"]),
        "polytope.verify_base_s": grouped({"polytope.verify_base"}),
        "fw.steps": steps,
        "fw.self_s": self_of(lambda n: n == "fw.frank_wolfe"),
        "fw.harmonic_bound_calls": count(["fw.harmonic_bound"]),
        "fw.harmonic_bound_s": grouped({"fw.harmonic_bound"}),
        "fw.trace_write_s": grouped({"fw.write_csv"}),
        "peel.rounds": count(PEELS),
        "peel.peel_s": grouped(PEELS),
        "peel.self_s": self_of(lambda n: n in ("peel.greedy_pp", "peel.supergreedy_pp")),
        "treepack.self_s": self_of(lambda n: layer(n) == "treepack"),
        "treepack.tnw_s": grouped(TNW),
        "checks.self_s": self_of(lambda n: layer(n) == "checks"),
    }
    for lay in LAYERS:
        m[f"{lay}.errors"] = sum(a[3] for n, a in agg.items() if layer(n) == lay)
    return m, agg


# ---------------------------------------------------------------- reporting


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least TAIL_BEYOND values above it."""
    n = len(values)
    p = int(100 * (1 - TAIL_BEYOND / n)) if n > TAIL_BEYOND else 0
    if p < 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def commit() -> str:
    """HEAD of the checkout, if it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "densefw").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["exact", "iterate", "trace"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    if not (SRC / "densefw" / "cli.py").is_file() or not (ROOT / "data" / f"{GOLDEN_GRAPH}.el").is_file():
        print(f"error: no densefw checkout at {ROOT} (need src/densefw and data/)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    work = HERE / "work" / a.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(a.workload, a.seed, work)

    runner.warm_up()
    if not a.trace:
        runner.probe_every = a.seconds / SETUP_PROBES
        runner.probe_setup()
    # The first pass always completes; later ones run until the deadline, so
    # the last may be partial. Every call has at least one timing.
    t0 = time.perf_counter()
    deadline = t0 + a.seconds
    passes = [runner.run_pass(bool(a.trace), HARD_DEADLINE)]
    while time.perf_counter() < min(deadline, HARD_DEADLINE):
        passes.append(runner.run_pass(bool(a.trace), deadline))
    measured_s = time.perf_counter() - t0

    rows = [r for p in passes for r in p]
    if len(passes[0]) < len(runner.calls):
        runner.fail(f"out of time: the first pass ran {len(passes[0])} of {len(runner.calls)} calls")
    if not rows:
        print("error: no call ran", file=sys.stderr)
        return 1
    walls = [r["wall"] for r in rows]
    # Each call's median over its repeats. The last pass may be partial, so
    # pooling raw samples would weigh the calls at the head of the list more.
    typical = {i: statistics.median(r["wall"] for r in rows if r["i"] == i) for i in {r["i"] for r in rows}}
    info = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "python": platform.python_version(), "commit": commit(), "src_sha256": src_digest(),
        "nproc": os.cpu_count(), "passes": len(passes), "calls_per_pass": len(runner.calls),
        "measured_s": measured_s,
    }
    metrics: dict[str, tuple[float, str]] = {}
    if not a.trace:
        metrics["setup_s"] = (statistics.median(runner.setup), "s")
        info["setup_probes"] = len(runner.setup)
        metrics["wall_s"] = (sum(typical.values()), "s")
        metrics["call_s.p50"] = (statistics.median(typical.values()), "s")
        t = tail(walls)
        if t:
            metrics["call_s.tail"] = (t[1], "s")
            info["tail_percentile"], info["tail_samples"] = t[0], len(walls)
        metrics["peak_rss_mb"] = (max(r["rss"] for r in rows), "MB")
        metrics["failed_frac"] = (len(runner.failures) / runner.attempted, "ratio")
        for sub, name in SUB_METRIC.items():
            mine = [t for i, t in typical.items() if runner.calls[i].sub == sub]
            if mine:
                metrics[name] = (statistics.median(mine), "s")
        for family, counts in sorted(runner.blocks.items()):
            info[f"{family}_multi_block_share"] = sum(c > 1 for c in counts) / len(counts)
    else:
        whole = [p for p in passes if len(p) == len(runner.calls)] or passes[:1]
        per_pass = [layer_metrics(p) for p in whole]
        for name in per_pass[0][0]:
            unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_frac") else "count"
            metrics[name] = (statistics.median(m[name] for m, _ in per_pass), unit)
        traced = [r for r in rows if r.get("spans")]
        plain = sum(r["wall"] for r in traced)
        metrics["cli.import_s"] = (statistics.median(r["spans"]["import_s"] for r in traced) if traced else 0.0, "s")
        metrics["trace_overhead"] = ((sum(r["traced_wall"] for r in traced) - plain) / plain if traced else 0.0, "ratio")
        print_layer_table(per_pass[0][1])
    print("# " + json.dumps(info))
    if "tail_percentile" in info:
        print(f"# call_s.tail is p{info['tail_percentile']} of {info['tail_samples']} calls")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    for f in runner.failures[:20]:
        print(f"# FAILED {f}")
    calls = [{k: r[k] for k in ("i", "sub", "on", "wall", "rss", "ok")} for r in rows]
    (work / "result.json").write_text(json.dumps(
        {"info": info, "metrics": metrics, "failures": runner.failures, "calls": calls}, indent=1))

    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if a.trace else "end_to_end"]
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {w["name"]: {"value": metrics[w["name"]][0], "unit": w["unit"]} for w in wanted},
    }
    print(json.dumps(result))
    return 0


def print_layer_table(agg: dict[str, list]) -> None:
    """Per-layer calls, self time and errors of the first traced pass."""
    print("# layer          calls       self_s  errors")
    for lay in (*LAYERS, "bench"):
        mine = [a for n, a in agg.items() if n.split(".")[0] == lay]
        print(f"# {lay:10s} {sum(a[0] for a in mine):9d} {sum(a[1] for a in mine):12.6f} {sum(a[3] for a in mine):7d}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
