"""Spans around the calls into each xpn layer, recorded from the
benchmark's side: the library is instrumented by swapping module and class
attributes for wrappers, never by editing it.

A span records its name, start, end, the span that caused it and the
query it belongs to.  Hot boundaries (``successors``,
``UpwardClosedSet.add`` and ``contains``) are kept as a call count, an
output count and summed time on the enclosing span instead of as spans of
their own.  A span's self time is its duration minus its child spans and
the outermost hot calls made inside it.  Spans stay in memory until
``dump``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter

TRANSFORM_OPS = ("hir_elim_all", "dlf_to_reach", "reach_to_dlf",
                 "two_inh_to_reset", "transfer_hierarchize")

# exact per-pass counts: they must repeat between passes and runs
COUNTS = ("ert.expanded", "ert.tree_size", "net.successors_calls",
          "net.successors_out", "explore.expanded", "explore.ucs_add_calls",
          "explore.ucs_add_accepted", "explore.ucs_contains_calls",
          "explore.basis_peak", "explore.basis_final", "net.classify_calls",
          "net.validate_calls",
          "transforms.out_places", "transforms.out_transitions",
          "fmt.parse_bytes", "fmt.render_bytes")
TIMES = ("cli.query_s", "cli.self_s", "ert.self_s", "ert.verify_s",
         "net.successors_s", "explore.bfs_s", "explore.bfs_self_s",
         "explore.backward_s", "explore.backward_self_s", "explore.ucs_add_s",
         "explore.ucs_contains_s", "net.classify_s", "net.validate_s",
         "compilers.minsky_s",
         "compilers.positivity_s", "dot.export_s", "fmt.parse_s",
         "fmt.render_s") + tuple(f"transforms.{op}_s" for op in TRANSFORM_OPS)


class Span:
    __slots__ = ("id", "name", "query", "parent", "start", "end", "hot",
                 "hot_s", "data")

    def __init__(self, sid, name, query, parent):
        self.id, self.name, self.query, self.parent = sid, name, query, parent
        self.start = self.end = 0.0
        self.hot = {}      # boundary name -> [calls, outputs, seconds]
        self.hot_s = 0.0   # time in outermost hot calls, for self time
        self.data = {}

    def as_json(self):
        return {"id": self.id, "name": self.name, "query": self.query,
                "parent": self.parent, "start": self.start, "end": self.end,
                "hot": self.hot, "data": self.data}


class Tracer:
    def __init__(self):
        self.spans = []
        self.query = None
        self._stack = []
        self._hot_depth = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, self.query, parent)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = perf_counter()
        return sp

    def close(self, sp):
        sp.end = perf_counter()
        self._stack.pop()

    def span(self, name, after=None, failed=None):
        """Decorator factory: time each call as a span; `after(span, args,
        kwargs, result)` and `failed(span, args, kwargs, exc)` record
        layer data."""
        def wrap(fn):
            def traced(*args, **kwargs):
                sp = self.open(name)
                try:
                    res = fn(*args, **kwargs)
                except Exception as e:
                    if failed is not None:
                        failed(sp, args, kwargs, e)
                    raise
                finally:
                    self.close(sp)
                if after is not None:
                    after(sp, args, kwargs, res)
                return res
            return traced
        return wrap

    def hot(self, name, out):
        """Decorator factory: count and time each call on the enclosing
        span; `out(span, args, result)` gives the output count."""
        def wrap(fn):
            def traced(*args, **kwargs):
                self._hot_depth += 1
                t = perf_counter()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t
                    self._hot_depth -= 1
                sp = self._stack[-1]
                h = sp.hot.get(name)
                if h is None:
                    h = sp.hot[name] = [0, 0, 0.0]
                h[0] += 1
                h[1] += out(sp, args, res)
                h[2] += dt
                if self._hot_depth == 0:
                    sp.hot_s += dt
                return res
            return traced
        return wrap

    # -- instrumentation ---------------------------------------------------

    def install(self):
        from xpn import cli, compilers, ert, explore, net, transforms

        def add(key, value):
            return lambda sp, a, k, r: sp.data.__setitem__(key, value(a, k, r))

        def out_size(sp, a, k, r):
            sp.data["places"] = len(r.net.places)
            sp.data["transitions"] = len(r.net.transitions)

        def ucs_add(sp, args, accepted):
            peak = sp.data.get("basis_peak", 0)
            sp.data["basis_peak"] = max(peak, len(args[0].basis))
            return int(accepted)

        def budget_hit(sp, a, k, e):
            if isinstance(e, ert.BudgetExceededError):
                sp.data["tree_size"] = k["max_nodes"]

        bfs = self.span("explore.bfs",
                        after=add("expanded", lambda a, k, r: r.expanded))
        successors = self.hot("net.successors", lambda sp, a, r: len(r))
        classify = self.span("net.classify")
        validate = self.span("net.validate")
        plan = [
            (cli, "parse_net", self.span(
                "fmt.parse_net", after=add("bytes", lambda a, k, r: len(a[0])))),
            (cli, "render_net", self.span(
                "fmt.render_net", after=add("bytes", lambda a, k, r: len(r)))),
            (cli, "build_ert", self.span(
                "ert.build_ert", failed=budget_hit,
                after=add("tree_size", lambda a, k, r: len(r.nodes)))),
            (cli, "verify_pump", self.span("ert.verify_pump")),
            (cli, "bounded_reach", bfs),
            (cli, "bounded_cover", bfs),
            (cli, "bounded_deadlock", bfs),
            (cli, "backward_cover", self.span(
                "explore.backward_cover",
                after=add("basis_final", lambda a, k, r: len(r.basis)))),
            (cli, "export_dot", self.span("dot.export_dot")),
            (cli, "classify", classify),
            (ert, "classify", classify),
            (transforms, "classify", classify),
            (cli, "validate", validate),
            (net, "validate", validate),
            (compilers, "compile_minsky", self.span("compilers.minsky")),
            (compilers, "compile_positivity", self.span("compilers.positivity")),
            (explore, "successors", successors),
            (ert, "successors", successors),
            (explore.UpwardClosedSet, "add", self.hot("explore.ucs_add", ucs_add)),
            (explore.UpwardClosedSet, "contains", self.hot(
                "explore.ucs_contains", lambda sp, a, r: int(r))),
        ]
        plan += [(transforms, op, self.span(f"transforms.{op}", after=out_size))
                 for op in TRANSFORM_OPS]
        for owner, attr, wrap in plan:
            orig = getattr(owner, attr)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrap(orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def dump(self, path):
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps(sp.as_json()) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer counts and times over one pass of spans."""
    m = dict.fromkeys(COUNTS + TIMES, 0)
    child_s = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_s[sp.parent] += sp.end - sp.start
    ert_s = bfs_s = 0.0
    for sp in spans:
        dur = sp.end - sp.start
        self_s = dur - child_s[sp.id] - sp.hot_s
        for name, (calls, outs, secs) in sp.hot.items():
            m[name + "_calls"] += calls
            m[name + "_s"] += secs
            if name == "net.successors":
                m["net.successors_out"] += outs
            elif name == "explore.ucs_add":
                m["explore.ucs_add_accepted"] += outs
        d = sp.data
        name = sp.name
        if name == "cli.main":
            m["cli.query_s"] += dur
            m["cli.self_s"] += self_s
        elif name == "fmt.parse_net":
            m["fmt.parse_s"] += dur
            m["fmt.parse_bytes"] += d.get("bytes", 0)
        elif name == "fmt.render_net":
            m["fmt.render_s"] += dur
            m["fmt.render_bytes"] += d.get("bytes", 0)
        elif name == "ert.build_ert":
            ert_s += dur
            m["ert.self_s"] += self_s
            m["ert.tree_size"] += d.get("tree_size", 0)
            m["ert.expanded"] += sp.hot.get("net.successors", (0,))[0]
        elif name == "ert.verify_pump":
            m["ert.verify_s"] += dur
        elif name == "explore.bfs":
            bfs_s += dur
            m["explore.bfs_self_s"] += self_s
            m["explore.expanded"] += d.get("expanded", 0)
        elif name == "explore.backward_cover":
            m["explore.backward_s"] += dur
            m["explore.backward_self_s"] += self_s
            m["explore.basis_final"] += d.get("basis_final", 0)
            m["explore.basis_peak"] = max(m["explore.basis_peak"],
                                          d.get("basis_peak", 0))
        elif name in ("net.classify", "net.validate"):
            m[name + "_calls"] += 1
            m[name + "_s"] += dur
        elif name == "compilers.minsky":
            m["compilers.minsky_s"] += dur
        elif name == "compilers.positivity":
            m["compilers.positivity_s"] += dur
        elif name == "dot.export_dot":
            m["dot.export_s"] += dur
        elif name.startswith("transforms."):
            m[name + "_s"] += dur
            m["transforms.out_places"] += d.get("places", 0)
            m["transforms.out_transitions"] += d.get("transitions", 0)
    m["explore.bfs_s"] = bfs_s
    m["ert.build_s"] = ert_s
    return m


def combine(passes, overhead_s) -> dict:
    """Per-layer metrics of a traced run: counts from one pass (the caller
    checks they repeat), times as the median over the traced passes, and
    rates from those."""
    out = {k: passes[0][k] for k in COUNTS}
    for k in TIMES + ("ert.build_s",):
        out[k] = statistics.median(p[k] for p in passes)
    out["ert.nodes_per_s"] = _rate(out["ert.tree_size"], out.pop("ert.build_s"))
    out["explore.markings_per_s"] = _rate(out["explore.expanded"],
                                          out["explore.bfs_s"])
    out["explore.ucs_accept_ratio"] = _rate(out["explore.ucs_add_accepted"],
                                            out["explore.ucs_add_calls"])
    out["bench.trace_overhead"] = overhead_s
    return out


def _rate(num, den):
    return num / den if den else 0.0
