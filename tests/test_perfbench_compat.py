"""The benchmark's tracer wraps hoplink functions by name from outside; a
refactor under src/ that renames or reshapes one of them must fail here, not
only in a ``perfbench/run.py --trace 1`` run."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hoplink.config import RunConfig
from hoplink.evaluation import evaluate
from hoplink.kg import KnowledgeGraph, queries_both_directions
from hoplink.synth import generate_synthetic_kg
from hoplink.training import Trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("synth-gat-epoch", "wide-k2-gat-train", "wide-k1-eval")


def test_tracer_records_every_layer_of_a_train_and_eval_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    splits, texts = generate_synthetic_kg(0)
    config = RunConfig(dim=16, encoder="gat", heads=2, k=1, lambda_weight=0.2,
                       batch_size=64, seed=1)
    tracer = Tracer()
    with tracer.instrument():
        tracer.active = True
        trainer = Trainer(KnowledgeGraph.build(splits, texts), config)
        trainer.train_epochs(1)
        evaluate(trainer.model, trainer.kg, "test", max_queries=4)
        tracer.active = False

    calls = Counter(span[0] for span in tracer.spans)
    # one sampler span per query encoded, whatever the graph's memo holds:
    # every training query of the epoch's batches, then each seen query of
    # the valid pass and the 4 test queries
    kg = trainer.kg
    left = len(trainer.queries) % config.batch_size
    trained = len(trainer.queries) - (left if left == 1 else 0)
    evaluated = sum(not kg.query_is_unseen(q.head, q.relation)
                    for q in (queries_both_directions(kg, "valid")
                              + queries_both_directions(kg, "test")[:4]))
    assert calls["kg.khop_neighborhood"] == trained + evaluated == 634
    for name in ("kg.khop_neighborhood", "kg.build_filter_index", "gnn.encode",
                 "gnn.combine_adjacency", "vgae.mask_edges",
                 "vgae.edge_loss", "training.batch_edge_loss",
                 "autodiff.backward", "evaluation.query_scores"):
        assert calls[name] > 0, name
    # one linking pass and one head-tower call per encoded batch, never one
    # per subgraph or per query
    assert calls["gnn.combine_adjacency"] == calls["model.encode_queries"]
    assert calls["text.encode_heads"] == calls["model.encode_queries"]
    # at lambda < 1 a training step masks, encodes and scores its whole
    # batch's edges once, never per subgraph, and runs one backward
    steps = -(-len(trainer.queries) // config.batch_size) - (left == 1)
    for name in ("vgae.mask_edges", "vgae.encode", "vgae.edge_loss",
                 "training.batch_edge_loss", "autodiff.backward"):
        assert calls[name] == steps, name
    # one entity table per training step and one entity matrix per evaluate
    # (the epoch's valid pass and the test pass), never one encode per
    # neighbor occurrence or a separate one for the gold tails
    evaluations = 2
    assert calls["model.tail_matrix"] == evaluations
    assert calls["text.encode_entities"] == (calls["autodiff.backward"]
                                             + evaluations)
    metrics = tracer.layer_metrics(1, {})
    # the rows the text towers encode: what tokenizing each batch's texts
    # gave before the graph's token table, one per head and entity-table row
    assert metrics["text.rows_encoded"] == 1234
    assert metrics["kg.subgraph_nodes.mean"] > 0
    assert metrics["gnn.stacked_nodes.mean"] > 0
    assert metrics["training.steps"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_runs_each_workload_at_tiny_size(monkeypatch, workload):
    """The benchmark's own entry point, one pass set at tiny size: every
    check it makes holds and no operation fails."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from run import EXPECTED_CHECKS, ONE_THREAD

    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--size", "tiny"],
        cwd=PERFBENCH.parent, env={**os.environ, **ONE_THREAD},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["checks"]) == EXPECTED_CHECKS[workload]
    assert all(result["checks"].values()), result["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
