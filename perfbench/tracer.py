"""In-memory span tracing of hoplink's layer entry points, from outside.

``Tracer.instrument()`` swaps each wrapped function or method for a timing
wrapper, in its defining module and in every module that imported it by
name, and puts the originals back on exit. Spans keep name, start, end,
parent span and step/query id; they stay in memory until ``write_spans``.
Counters are read at the same boundaries (arguments or results), so ratios
such as ``gnn.adj_fill`` are measured where the work happens.

Backward passes of every layer run inside ``autodiff.backward``, so backward
time cannot be split by layer from here.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

from hoplink import autodiff, checkpoint, evaluation, gnn, kg, model, text, training, vgae

# (span name, owner objects, attribute); the first owner defines the function
TARGETS = (
    ("kg.khop_neighborhood", (kg, model), "khop_neighborhood"),
    ("kg.build_filter_index", (kg, evaluation), "build_filter_index"),
    ("text.encode_heads", (text.TextEncoder,), "encode_heads"),
    ("text.encode_entities", (model.KgcModel,), "encode_entities"),
    ("model.encode_queries", (model.KgcModel,), "encode_queries"),
    ("model.tail_matrix", (model.KgcModel,), "tail_matrix"),
    ("gnn.combine_adjacency", (gnn, model), "combine_adjacency"),
    ("gnn.encode", (gnn.GraphEncoder,), "encode"),
    ("vgae.mask_edges", (vgae, training), "mask_edges"),
    ("vgae.encode", (vgae.Vgae,), "encode"),
    ("vgae.edge_loss", (vgae, training), "edge_loss"),
    ("training.info_nce_loss", (training,), "info_nce_loss"),
    ("training.batch_edge_loss", (training,), "batch_edge_loss"),
    ("autodiff.backward", (autodiff,), "backward"),
    ("autodiff.AdamW.step", (autodiff.AdamW,), "step"),
    ("evaluation.query_scores", (evaluation,), "query_scores"),
    ("evaluation.filtered_rank", (evaluation,), "filtered_rank"),
    ("checkpoint.load_checkpoint", (checkpoint, model), "load_checkpoint"),
)
SPAN_NAMES = tuple(name for name, _, _ in TARGETS)

# a root span with one of these names opens a new training step / eval query
OP_ROOTS = ("model.encode_queries", "evaluation.query_scores")


class Tracer:
    """Spans and counters of the wrapped calls made while ``active``."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent, op]
        self._stack: list[int] = []
        self._op = 0
        self.active = False
        self.sums: dict[str, float] = defaultdict(float)
        self.max_stacked = 0

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        # counter hooks are the _before_/_after_ methods named after the span
        tracer = self
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if parent < 0 and name in OP_ROOTS:
                tracer._op += 1
            if before is not None:
                before(args)
            span = [name, 0.0, 0.0, parent, tracer._op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def instrument(self):
        """Install the wrappers for the duration of the block."""
        saved: list[tuple[object, str, object]] = []
        try:
            for name, owners, attr in TARGETS:
                wrapped = self._wrap(name, owners[0].__dict__[attr])
                for owner in owners:
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- counters read at span boundaries -------------------------------------

    def _after_kg_khop_neighborhood(self, args, sub):
        self.sums["kg.subgraphs"] += 1
        self.sums["kg.subgraph_nodes"] += sub.num_nodes
        self.sums["kg.truncated"] += bool(sub.truncated)

    def _after_text_encode_heads(self, args, out):
        self.sums["text.rows_encoded"] += out.shape[0]

    def _after_text_encode_entities(self, args, out):
        self.sums["text.rows_encoded"] += out.shape[0]

    def _after_gnn_combine_adjacency(self, args, out):
        combined, _ = out
        n = combined.shape[0]
        self.sums["gnn.batches"] += 1
        self.sums["gnn.stacked_nodes"] += n
        self.sums["gnn.dense_cells"] += n * n
        self.sums["gnn.nonzero_cells"] += int(np.count_nonzero(combined))
        self.max_stacked = max(self.max_stacked, n)

    def _after_training_info_nce_loss(self, args, loss):
        self.sums["training.rows"] += loss.skipped_rows.size
        self.sums["training.skipped_rows"] += int(loss.skipped_rows.sum())

    def _before_autodiff_backward(self, args):
        self.sums["autodiff.backwards"] += 1
        self.sums["autodiff.tape_ops"] += len(autodiff.active_tape())

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span duration minus the duration of its direct children, summed
        per name. Calls are synchronous, so children never overlap."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_metrics(self, passes: int, extra: dict[str, float]) -> dict[str, float]:
        """Every per-layer metric, normalised per timed pass where it is a
        total. ``extra`` carries counts the worker keeps itself."""
        per = 1.0 / max(passes, 1)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        selfs = self.self_times()
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] * per
            out[f"{name}.self_s"] = selfs[name] * per
        s = self.sums
        out["kg.subgraph_nodes.mean"] = _ratio(s["kg.subgraph_nodes"], s["kg.subgraphs"])
        out["kg.truncated_frac"] = _ratio(s["kg.truncated"], s["kg.subgraphs"])
        out["text.rows_encoded"] = s["text.rows_encoded"] * per
        out["gnn.stacked_nodes.mean"] = _ratio(s["gnn.stacked_nodes"], s["gnn.batches"])
        out["gnn.stacked_nodes.max"] = float(self.max_stacked)
        out["gnn.dense_cells"] = _ratio(s["gnn.dense_cells"], s["gnn.batches"])
        out["gnn.adj_fill"] = _ratio(s["gnn.nonzero_cells"], s["gnn.dense_cells"])
        out["training.steps"] = s["autodiff.backwards"] * per
        out["training.skipped_row_frac"] = _ratio(s["training.skipped_rows"], s["training.rows"])
        out["autodiff.tape_ops"] = _ratio(s["autodiff.tape_ops"], s["autodiff.backwards"])
        out.update(extra)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op})
                         + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
