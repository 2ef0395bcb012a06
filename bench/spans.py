"""Span tracer that times spinchaos layers from outside the package.

`Tracer.install` replaces every public function of the layer modules,
in every spinchaos module that binds it (so `from ... import` copies are
wrapped too), and the `Hypergraph` constructor. Each call records a span
(id, name, start, end, parent, run id) in memory plus work counts taken
from its arguments or result. Each thread keeps its own stack of open
spans, so a span's parent is the open span of the thread that made it.
`layer_metrics` turns the spans into the per-layer metrics the benchmark
reports.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

LAYER_MODULES = ("cli", "chaos", "gibbs", "hermite", "randgraph", "hypergraph",
                 "disorder", "rng")
ENUMERATION = ("gibbs.exact_correlations", "gibbs.ground_states", "gibbs.batch_moments")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    work: dict = field(default_factory=dict)


def _graph_key(graph) -> tuple:
    return graph.n, graph.edges


class Tracer:
    """Records spans for one run; `restore` undoes `install`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._local = threading.local()  # .stack: open span ids of this thread
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        self._systems: set = set()
        self._graphs: set = set()

    # -- work counts, taken from a call's bound arguments and result ------

    def _seen_graph(self, graph) -> int:
        key = _graph_key(graph)
        seen = key in self._graphs
        self._graphs.add(key)
        return int(seen)

    def _exact_correlations(self, args, result) -> dict:
        system = args["system"]
        key = (_graph_key(system.graph), system.couplings, system.beta, system.levy_scale)
        repeat = key in self._systems
        self._systems.add(key)
        return {"states": 2 ** system.n, "repeat": int(repeat),
                "graph_seen": self._seen_graph(system.graph)}

    def _ground_states(self, args, result) -> dict:
        system = args["system"]
        # two passes over all 2^N states: find the maximum, then collect ties
        return {"states": 2 * 2 ** system.n, "graph_seen": self._seen_graph(system.graph)}

    def _batch_moments(self, args, result) -> dict:
        graph = args["graph"]
        rows = result[0].shape[1]
        return {"rows": rows, "states": rows * 2 ** graph.n,
                "graph_seen": self._seen_graph(graph)}

    @staticmethod
    def _grid_nodes(args, result) -> dict:
        return {"nodes": args["order"] ** args["n_edges"]}

    @staticmethod
    def _sample_diluted(args, result) -> dict:
        return {"edges": result.n_edges}

    @staticmethod
    def _explore(args, result) -> dict:
        return {"vertices": sum(len(s) for s in result.i_sets), "n": args["g"].n}

    def _work_fn(self, name: str):
        return {
            "gibbs.exact_correlations": self._exact_correlations,
            "gibbs.ground_states": self._ground_states,
            "gibbs.batch_moments": self._batch_moments,
            "hermite.coeff_quadrature": self._grid_nodes,
            "hermite.coefficient_sweep": self._grid_nodes,
            "randgraph.sample_diluted": self._sample_diluted,
            "randgraph.explore": self._explore,
        }.get(name)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn):
        work_fn = self._work_fn(name)
        sig = inspect.signature(fn) if work_fn else None
        spans, local, ids, run_id = self.spans, self._local, self._ids, self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            span = Span(sid, name, clock(), 0.0, parent, run_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if work_fn is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = work_fn(bound.arguments, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrapped = {}  # id(original) -> (original, wrapper)
        for short in LAYER_MODULES:
            mod = sys.modules[f"spinchaos.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        hg = sys.modules["spinchaos.hypergraph"].Hypergraph
        self._patch(hg, "__init__", self.wrap("hypergraph.Hypergraph", hg.__init__))
        for modname, mod in list(sys.modules.items()):
            if modname != "spinchaos" and not modname.startswith("spinchaos."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(vars(s)) + "\n")


# -- summaries -------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds `s` (outermost spans of the
    name only, so recursion is not counted twice), `self_s` (duration
    minus the part covered by child spans) and summed work counts."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, dict] = {}
    for s in spans:
        st = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        dur = s.end - s.start
        kids = [(c.start, c.end) for c in children.get(s.id, ())]
        st["self_s"] += dur - covered(kids, s.start, s.end)
        anc = by_id.get(s.parent)
        while anc is not None and anc.name != s.name:
            anc = by_id.get(anc.parent)
        if anc is None:
            st["s"] += dur
        for key, val in s.work.items():
            st[key] = st.get(key, 0) + val
    return out


# <span name>.<stat>, summed over the spans of that name
LAYER_STATS = (
    "gibbs.exact_correlations.calls", "gibbs.exact_correlations.s",
    "gibbs.exact_correlations.states", "gibbs.ground_states.calls",
    "gibbs.ground_states.s", "gibbs.ground_states.states", "gibbs.batch_moments.calls",
    "gibbs.batch_moments.s", "gibbs.batch_moments.rows", "gibbs.batch_moments.states",
    "hermite.coeff_quadrature.s", "hermite.coeff_quadrature.self_s",
    "hermite.coeff_quadrature.nodes", "hermite.coefficient_sweep.s",
    "hermite.coefficient_sweep.self_s", "hermite.coefficient_sweep.nodes",
    "hermite.adaptive_gaussian_mean.s", "chaos.coefficient_audit.self_s",
    "chaos.counterexample_suite.self_s", "chaos.chaos_curve.self_s",
    "chaos.theorem_bound_check.s", "randgraph.sample_diluted.calls",
    "randgraph.sample_diluted.s", "randgraph.sample_diluted.edges",
    "randgraph.explore.calls", "randgraph.explore.s", "randgraph.explore.vertices",
    "hypergraph.Hypergraph.s", "hypergraph.ball_sizes.s", "disorder.rho.s",
    "disorder.path.s", "rng.substream.calls", "rng.substream.s", "cli.load_config.s",
    "cli.run_experiment.self_s",
)
ALIASES = {"disorder.path": ("disorder.continuous_path", "disorder.discrete_path")}


METRICS = (*LAYER_STATS, "gibbs.exact_correlations.repeat_frac", "gibbs.graph_reuse_frac",
           "randgraph.explore.touched_frac", "trace.spans")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced run; layers the run never
    reached read 0."""
    st = summarize(spans)

    def get(name: str, stat: str):
        return st.get(name, {}).get(stat, 0)

    out = {}
    for metric in LAYER_STATS:
        name, stat = metric.rsplit(".", 1)
        out[metric] = sum(get(n, stat) for n in ALIASES.get(name, (name,)))
    out["gibbs.exact_correlations.repeat_frac"] = _ratio(
        get("gibbs.exact_correlations", "repeat"), get("gibbs.exact_correlations", "calls"))
    out["gibbs.graph_reuse_frac"] = _ratio(
        sum(get(n, "graph_seen") for n in ENUMERATION),
        sum(get(n, "calls") for n in ENUMERATION))
    out["randgraph.explore.touched_frac"] = _ratio(
        get("randgraph.explore", "vertices"), get("randgraph.explore", "n"))
    out["trace.spans"] = len(spans)
    return out
