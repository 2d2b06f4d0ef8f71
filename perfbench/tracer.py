"""Spans around the public functions of every densefw module, from outside.

`install` wraps each public module-level function of the nine layers and
rebinds every name that refers to it in every densefw module, so calls
between modules (`from .graph import parse_edge_list`) are seen too. It
also wraps `ConvergenceTrace.write_csv` and the `_eval` of every oracle the
setfn constructors return, which is where oracle evaluations are counted.

A span is (id, name, start, end, parent, hot_child_s, ok). Spans stay in
memory and are written once, at exit. Oracle evaluations and `components`
run up to millions of times per call, so they are "hot": they are timed and
aggregated per name but not stored one by one; each stored span carries the
time its direct hot children took, which keeps self times exact.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("graph", "setfn", "polytope", "fw", "peel", "decomp", "treepack", "checks", "cli")
HOT = frozenset({"setfn.eval", "graph.components"})
ORACLE_MAKERS = ("edge_count_fn", "graphic_rank_fn", "dualize", "contract", "restrict", "nn_sum")


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.import_s = 0.0
        self.stack: list[list] = []  # [id, name, start, child_s, hot_child_s]
        self.spans: list[tuple] = []
        self.agg: dict[str, list] = {}  # name -> [count, self_s, outer_s, errors]
        self.depth: dict[str, int] = {}
        self.seen: list[set] = []  # distinct subsets asked of each oracle
        self.fw_steps = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self.stack
        self.depth[name] = self.depth.get(name, 0) + 1
        sid = -1
        if name not in HOT:
            # A stored span's id is its index in self.spans, reserved at
            # entry so that children can name their parent before it ends.
            sid = len(self.spans)
            self.spans.append(None)
        frame = [sid, name, 0.0, 0.0, 0.0]
        stack.append(frame)
        ok = False
        frame[2] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - frame[2]
            depth = self.depth[name] - 1
            self.depth[name] = depth
            agg = self.agg.get(name)
            if agg is None:
                agg = self.agg[name] = [0, 0.0, 0.0, 0]
            agg[0] += 1
            agg[1] += dur - frame[3]
            if depth == 0:
                agg[2] += dur
            if not ok:
                agg[3] += 1
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[3] += dur
                if sid < 0:
                    parent[4] += dur
            if sid >= 0:
                self.spans[sid] = (
                    sid, name, frame[2] - self.origin, end - self.origin,
                    parent[0] if parent is not None else -1, frame[4], ok,
                )

    def dump(self, path: str) -> None:
        spans = [s for s in self.spans if s is not None]
        body = {
            "import_s": self.import_s,
            "agg": self.agg,
            "spans": spans,
            "distinct_sets": sum(len(s) for s in self.seen),
            "fw_steps": self.fw_steps,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)


def _wrap(tracer: Tracer, name: str, fn, post=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        out = tracer.call(name, fn, *args, **kwargs)
        if post is not None:
            post(out)
        return out

    return traced


def _trace_oracle(tracer: Tracer, f) -> None:
    inner = f._eval
    if getattr(inner, "_densefw_traced", False):
        return  # restrict() shares its parent's already wrapped _eval
    seen: set = set()
    tracer.seen.append(seen)
    call = tracer.call

    def ev(s):
        seen.add(s)
        return call("setfn.eval", inner, s)

    ev._densefw_traced = True
    object.__setattr__(f, "_eval", ev)


def install(tracer: Tracer) -> None:
    """Wrap every layer of an imported densefw package."""
    import importlib

    mods = {layer: importlib.import_module(f"densefw.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if layer == "cli" and attr == "main":
                continue
            post = None
            if layer == "setfn" and attr in ORACLE_MAKERS:
                post = functools.partial(_trace_oracle, tracer)
            elif layer == "fw" and attr == "frank_wolfe":
                def post(out):
                    tracer.fw_steps += len(out[1].records)
            replaced[id(obj)] = _wrap(tracer, f"{layer}.{attr}", obj, post)
    for mod in [importlib.import_module("densefw"), *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    trace_cls = mods["fw"].ConvergenceTrace
    trace_cls.write_csv = _wrap(tracer, "fw.write_csv", trace_cls.write_csv)
