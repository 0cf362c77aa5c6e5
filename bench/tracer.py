"""Outside-in span tracer for the slotsurv benchmark.

The tracer wraps public functions of the ``slotsurv`` modules in place (every
module attribute that refers to a wrapped function is swapped, so calls made
inside an unmodified ``train()`` or ``predict_patient()`` are caught) and
records one span per call: name, start, end and parent, kept in memory.

Node counts come from ``Graph.num_nodes``, which is O(1).  Multiply-adds come
from ``Graph.total_madds()``, which sums the whole node list, so they are only
taken in a separate count-only pass (``Tracer(count_madds=True)``), never in
the pass whose times are reported.

Span kinds:

* stage spans are model or engine layers (``slots.h``, ``moe``, ...).  A stage
  span nested inside another stage span (the slot encode inside the
  cross-modal reconstruction, the Kaplan-Meier fits inside the bootstrap)
  counts toward its outer stage only.
* container spans (``train``, ``model``, ``predict``, ``evaluate``,
  ``recon.impute``) group stages; their self time is what no child covers.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

from slotsurv.autodiff import Graph

MODULES = ("data", "slots", "moe", "fusion", "survival", "recon", "model",
           "train", "autodiff")

CONTAINERS = frozenset({"train", "model", "predict", "evaluate",
                        "recon.impute"})

# Graph-less spans that create graphs and report their node counts.  Other
# containers do not collect graphs: holding every step's graph until train()
# returns would change how memory is reused.
GRAPH_OWNERS = frozenset({"model", "recon.cross"})

# Stages that make up one forward pass of the model span.
FORWARD_STAGES = ("slots.h", "slots.g", "moe", "fusion.self_attn",
                  "fusion.cross_attn", "fusion.risk_head", "survival.nll",
                  "recon.g", "recon.h", "recon.cross")


class Span:
    __slots__ = ("name", "start", "end", "parent", "nested", "child_s",
                 "graph", "gid", "n0", "m0", "nodes", "madds", "created",
                 "nbytes")

    def __init__(self, name, parent, nested, graph):
        self.name = name
        self.parent = parent
        self.nested = nested          # inside another stage span
        self.child_s = 0.0
        self.graph = graph            # held only while the span is open
        self.gid = None if graph is None else id(graph)
        self.created = None           # graphs first seen inside this span
        self.nodes = 0
        self.madds = 0
        self.nbytes = 0
        self.start = self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Records spans while installed; see ``installed``."""

    def __init__(self, count_madds: bool = False):
        self.count_madds = count_madds
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._params: list = []       # bound ModelParams of the open trunk

    # ------------------------------------------------------------ recording

    def open(self, name: str, graph) -> Span:
        parent = self._stack[-1] if self._stack else -1
        nested = False
        if parent >= 0:
            up = self.spans[parent]
            nested = up.nested or up.name not in CONTAINERS
        span = Span(name, parent, nested, graph)
        if graph is not None:
            span.n0 = graph.num_nodes
            span.m0 = graph.total_madds() if self.count_madds else 0
            for i in self._stack:
                up = self.spans[i]
                if up.graph is None and up.name in GRAPH_OWNERS:
                    if up.created is None:
                        up.created = {}
                    up.created.setdefault(id(graph), graph)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.dur
        if span.graph is not None:
            span.nodes = span.graph.num_nodes - span.n0
            if self.count_madds:
                span.madds = span.graph.total_madds() - span.m0
        elif span.created:
            graphs = span.created.values()
            span.nodes = sum(g.num_nodes for g in graphs)
            if self.count_madds:
                span.madds = sum(g.total_madds() for g in graphs)
        # Dropping the graphs lets their memory be reused as it would be
        # without tracing.
        span.graph = span.created = None

    def records(self) -> list:
        """Spans as plain rows, for writing out at the end of a run."""
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "nodes": s.nodes, "madds": s.madds,
                 "bytes": s.nbytes} for s in self.spans]

    # ---------------------------------------------------------- aggregation

    def totals(self) -> dict:
        """Per-name sums over the spans that are not nested in a stage:
        {name: {"s", "self_s", "nodes", "madds", "calls", "bytes"}}."""
        out = {}
        for s in self.spans:
            if s.nested:
                continue
            row = out.get(s.name)
            if row is None:
                row = out[s.name] = {"s": 0.0, "self_s": 0.0, "nodes": 0,
                                     "madds": 0, "calls": 0, "bytes": 0}
            row["s"] += s.dur
            row["self_s"] += s.self_s
            row["nodes"] += s.nodes
            row["madds"] += s.madds
            row["calls"] += 1
            row["bytes"] += s.nbytes
        return out

    def durations(self, name: str) -> list:
        return [s.dur for s in self.spans if s.name == name and not s.nested]

    # ------------------------------------------------------------- namers

    def _trunk(self):
        return self._params[-1] if self._params else None

    def _encode_name(self, args, kwargs):
        p = args[1] if len(args) > 1 else kwargs.get("p")
        trunk = self._trunk()
        if trunk is not None and p is trunk.slots_h:
            return "slots.h"
        if trunk is not None and p is trunk.slots_g:
            return "slots.g"
        return "slots.encode"

    def _recon_genomic_name(self, args, kwargs):
        head = args[1] if len(args) > 1 else kwargs.get("head")
        trunk = self._trunk()
        if trunk is not None and head is trunk.recon_g:
            return "recon.g"
        return "recon.cross"

    # ------------------------------------------------------------- wrappers

    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            graph = args[0] if args and isinstance(args[0], Graph) else None
            span = tracer.open(label, graph)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
        return traced

    def _bytes_wrapper(self, fn, name):
        """Span around a file reader; records the size of the file read."""
        tracer = self

        @functools.wraps(fn)
        def traced(source, *args, **kwargs):
            span = tracer.open(name, None)
            try:
                bag = fn(source, *args, **kwargs)
            finally:
                tracer.close(span)
            span.nbytes = os.path.getsize(source)
            return bag
        return traced

    def _context_wrapper(self, fn, name):
        """No span: remembers the bound parameters so that encoders and
        reconstruction heads can be told apart by identity."""
        tracer = self

        @functools.wraps(fn)
        def traced(g, p, *args, **kwargs):
            tracer._params.append(p)
            try:
                return fn(g, p, *args, **kwargs)
            finally:
                tracer._params.pop()
        return traced

    def targets(self):
        """(module, function, wrapper factory, span name) for every
        function the tracer wraps."""
        span, ctx, nbytes = (self._span_wrapper, self._context_wrapper,
                             self._bytes_wrapper)
        moe = [("moe", f, span, "moe") for f in (
            "build_gate_scores", "build_gumbel_mask",
            "build_renormalized_weights", "build_slot_logits",
            "build_gated_mixture")]
        return moe + [
            ("data", "load_bag", nbytes, "data.load_bag"),
            ("slots", "build_encode", span, self._encode_name),
            ("fusion", "build_masked_self_attention", span,
             "fusion.self_attn"),
            ("fusion", "build_iterative_cross_attention", span,
             "fusion.cross_attn"),
            ("fusion", "build_pool_concat", span, "fusion.risk_head"),
            ("fusion", "build_risk_head", span, "fusion.risk_head"),
            ("survival", "build_nll_loss", span, "survival.nll"),
            ("survival", "concordance_index", span, "survival.cindex"),
            ("survival", "logrank_test", span, "survival.logrank"),
            ("survival", "km_estimate", span, "survival.km"),
            ("survival", "bootstrap_stats", span, "survival.bootstrap"),
            ("recon", "build_recon_genomic", span, self._recon_genomic_name),
            ("recon", "build_recon_histology", span, "recon.h"),
            ("recon", "build_cross_modal_encode", span, "recon.cross"),
            ("recon", "cross_modal_encode", span, "recon.cross"),
            ("recon", "reconstruct_genomic", span, "recon.cross"),
            ("recon", "impute_genomic", span, "recon.impute"),
            ("model", "build_patient_trunk", ctx, None),
            ("model", "build_patient_losses", ctx, None),
            ("model", "build_cohort_loss", span, "model"),
            ("model", "patient_forward", span, "model"),
            ("autodiff", "backward", span, "autodiff.bwd"),
            ("train", "adam_step", span, "train.adam"),
            ("train", "train", span, "train"),
            ("train", "predict_patient", span, "predict"),
            ("train", "evaluate", span, "evaluate"),
            ("train", "save_checkpoint", span, "train.ckpt_save"),
            ("train", "load_checkpoint", span, "train.ckpt_load"),
        ]


class installed:
    """Context manager: swap every slotsurv module attribute that refers to
    a target function for its traced wrapper, and restore them on exit.
    Takes any object with ``targets()``, such as ``pace.Pace``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self) -> Tracer:
        mods = [importlib.import_module(f"slotsurv.{m}") for m in MODULES]
        for mod_name, fn_name, factory, name in self.tracer.targets():
            home = importlib.import_module(f"slotsurv.{mod_name}")
            orig = getattr(home, fn_name)
            wrapped = factory(orig, name)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        return self.tracer

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

