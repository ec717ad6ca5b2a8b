"""The benchmark's tracer wraps hoplink functions by name from outside; a
refactor under src/ that renames or reshapes one of them must fail here, not
only in a ``perfbench/run.py --trace 1`` run."""

from pathlib import Path

from hoplink.config import RunConfig
from hoplink.evaluation import evaluate
from hoplink.kg import KnowledgeGraph
from hoplink.synth import generate_synthetic_kg
from hoplink.training import Trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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

    names = {span[0] for span in tracer.spans}
    for name in ("gnn.encode", "gnn.combine_adjacency", "vgae.mask_edges",
                 "evaluation.query_scores"):
        assert name in names, name
    metrics = tracer.layer_metrics(1, {})
    assert metrics["gnn.stacked_nodes.mean"] > 0
    assert metrics["training.steps"] > 0
