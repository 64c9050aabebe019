"""Per-layer tracing of the pipeline, applied from outside the package.

``Tracer`` replaces each entry point below with a timing wrapper for as long
as it is installed, and puts the originals back on exit. A function is
patched in every package module that holds it under some name, because
modules call imported names (``features.khop_query``, ``experiment.train_gnn``)
rather than looking them up on the defining module. A class entry times its
constructor; ``Class.method`` entries are patched on the class.

Each wrapped call becomes a span (name, start, end, parent span, operation
id). The hot tape op ``nn.matmul`` is only counted: calls, seconds, and the
flops and bytes of the forward product computed from the operand shapes.
An entry point that no longer exists is listed in ``absent`` and its
metrics read 0.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import defaultdict, namedtuple
from functools import partial, update_wrapper
from time import perf_counter

import numpy as np

Span = namedtuple("Span", "span_id parent_id op_id name start end")

ENTRY_POINTS = (
    "graph.load_dataset",
    "graph.induced_subgraph",
    "graph.khop_subgraph",
    "graph.graph_from_adjacency",
    "data.make_splits",
    "data.build_pair_dataset",
    "defenses.perturb_graph",
    "defenses.apply_defended_query",
    "gnn.MessageStructure",
    "gnn.layer_forward",
    "gnn.train_gnn",
    "gnn.evaluate_accuracy",
    "gnn.khop_query",
    "features.pairwise_concat",
    "features.proximity_counts",
    "attacks.attack_dataset_inputs",
    "attacks.train_attack",
    "attacks.link_scores",
    "nn.Tensor.backward",
    "nn.Adam.step",
    "metrics.auc",
    "metrics.robustness_groups",
    "experiment.write_analyses",
    "checkpoint.save_container",
)
PACKAGE = "linklab"
COUNTED_OP = "nn.matmul"
# Spans of gnn.layer_forward are named per layer kind; these are the kinds
# the workloads train.
LAYER_KINDS = ("sage", "gcn")

_MISSING = object()


def span_names() -> list[str]:
    names = []
    for entry in ENTRY_POINTS:
        if entry == "gnn.layer_forward":
            names += [f"{entry}.{kind}" for kind in LAYER_KINDS]
        else:
            names.append(entry)
    return names


def layer_metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the tracer reports: name -> (unit, better)."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.s"] = ("s", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    units.update({
        "nn.matmul.calls": ("count", "lower"),
        "nn.matmul.s": ("s", "lower"),
        "nn.matmul.gflop": ("GFLOP", "lower"),
        "nn.matmul.gb": ("GB", "lower"),
        "graph.khop_subgraph.nodes_p50": ("nodes", "lower"),
        "graph.khop_subgraph.nodes_p99": ("nodes", "lower"),
        "gnn.khop_query.unique": ("count", "lower"),
        "gnn.khop_query.unique_ratio": ("ratio", "higher"),
        "defenses.perturb_graph.edges_in": ("count", "lower"),
        "defenses.perturb_graph.edges_out": ("count", "lower"),
        "data.build_pair_dataset.pairs": ("count", "lower"),
        "checkpoint.save_container.bytes": ("B", "lower"),
    })
    return units


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            covered[s.parent_id] += s.end - s.start
    return {s.span_id: (s.end - s.start) - covered[s.span_id] for s in spans}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_subgraph(tracer, args, kwargs, sub):
    tracer.subgraph_nodes.append(sub.num_nodes)


def _observe_query(tracer, args, kwargs, _):
    sub = _arg(args, kwargs, 1, "sub")
    temperature = args[2] if len(args) > 2 else kwargs.get("temperature", 1.0)
    # Posteriors are equal for equal (model, subgraph, temperature); models
    # live for the whole operation, so their ids are stable keys within it.
    tracer.query_keys.add((id(args[0]), sub.center, sub.nodes, sub.edges, temperature))


def _observe_perturb(tracer, args, kwargs, graph):
    tracer.counts["defenses.perturb_graph.edges_in"] += _arg(args, kwargs, 0, "g").num_edges
    tracer.counts["defenses.perturb_graph.edges_out"] += graph.num_edges


def _observe_pairs(tracer, args, kwargs, dataset):
    tracer.counts["data.build_pair_dataset.pairs"] += len(dataset.pairs)


def _observe_container(tracer, args, kwargs, _):
    tracer.counts["checkpoint.save_container.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


_OBSERVERS = {
    "graph.khop_subgraph": _observe_subgraph,
    "gnn.khop_query": _observe_query,
    "defenses.perturb_graph": _observe_perturb,
    "data.build_pair_dataset": _observe_pairs,
    "checkpoint.save_container": _observe_container,
}


def _layer_span_name(args, kwargs):
    return f"gnn.layer_forward.{_arg(args, kwargs, 0, 'layer').kind}"


class Tracer:
    """Installs the wrappers on enter, restores the originals on exit.

    Wrappers record only inside ``run()``; the data of the last
    operation stays readable through ``op_metrics()`` until the next one.
    """

    def __init__(self):
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._begin(None)
        self.active = False

    def _begin(self, op_id):
        self.op_id = op_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.matmul_s = 0.0
        self.subgraph_nodes: list[int] = []
        self.query_keys: set = set()

    def __enter__(self) -> "Tracer":
        self.absent = []
        try:
            for entry in ENTRY_POINTS:
                self._install(entry, partial(self._span_wrapper, entry))
            self._install(COUNTED_OP, self._matmul_wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapped)

    def _install(self, entry: str, make_wrapper) -> None:
        module_name, _, path = entry.partition(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            target = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(entry)
            return
        if isinstance(target, type):
            self._patch(target, "__init__", make_wrapper(target.__init__))
        elif owner is not module:
            self._patch(owner, attr, make_wrapper(target))
        else:
            wrapped = make_wrapper(target)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, key, wrapped)

    def _timed(self, name, fn, args, kwargs):
        """Call ``fn`` inside a new span that is a child of the open one."""
        spans, stack = self.spans, self._stack
        span_id = len(spans)
        parent = stack[-1] if stack else None
        spans.append(None)
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[span_id] = Span(span_id, parent, self.op_id, name, start, end)

    def _span_wrapper(self, name, fn):
        tracer = self
        observe = _OBSERVERS.get(name)
        name_of = _layer_span_name if name == "gnn.layer_forward" else None

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer._timed(name_of(args, kwargs) if name_of else name, fn, args, kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return update_wrapper(wrapper, fn)

    def _matmul_wrapper(self, fn):
        tracer = self

        def wrapper(a, b):
            if not tracer.active:
                return fn(a, b)
            start = perf_counter()
            out = fn(a, b)
            tracer.matmul_s += perf_counter() - start
            m, k = a.data.shape
            n = b.data.shape[1]
            counts = tracer.counts
            counts["nn.matmul.calls"] += 1
            counts["nn.matmul.flop"] += 2 * m * k * n
            counts["nn.matmul.bytes"] += 8 * (m * k + k * n + m * n)
            return out

        return update_wrapper(wrapper, fn)

    def run(self, op_id: int, fn, *args, **kwargs):
        """Call ``fn`` as one recorded operation, under a root span named ``op``."""
        self._begin(op_id)
        self.active = True
        try:
            return self._timed("op", fn, args, kwargs)
        finally:
            self.active = False

    def op_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the last operation, one value per declared name."""
        values = dict.fromkeys(layer_metric_units(), 0)
        selfs = self_times(self.spans)
        for s in self.spans:
            if s.name == "op" or f"{s.name}.calls" not in values:
                continue
            values[f"{s.name}.calls"] += 1
            values[f"{s.name}.s"] += s.end - s.start
            values[f"{s.name}.self_s"] += selfs[s.span_id]
        for name in ("defenses.perturb_graph.edges_in", "defenses.perturb_graph.edges_out",
                     "data.build_pair_dataset.pairs", "checkpoint.save_container.bytes"):
            values[name] = self.counts[name]
        values["nn.matmul.calls"] = self.counts["nn.matmul.calls"]
        values["nn.matmul.s"] = self.matmul_s
        values["nn.matmul.gflop"] = self.counts["nn.matmul.flop"] / 1e9
        values["nn.matmul.gb"] = self.counts["nn.matmul.bytes"] / 1e9
        if self.subgraph_nodes:
            values["graph.khop_subgraph.nodes_p50"] = float(np.percentile(self.subgraph_nodes, 50))
            values["graph.khop_subgraph.nodes_p99"] = float(np.percentile(self.subgraph_nodes, 99))
        calls = values["gnn.khop_query.calls"]
        values["gnn.khop_query.unique"] = len(self.query_keys)
        values["gnn.khop_query.unique_ratio"] = len(self.query_keys) / calls if calls else 0.0
        return values
