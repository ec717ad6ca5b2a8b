"""``encode_queries`` against the per-occurrence query path it replaced.

The oracle below is that path, kept here as the reference: the tail tower
encodes one row per neighbor occurrence, a second tail-tower call encodes
the gold tails, a Python loop builds the permutation that lays each
subgraph's rows out head first, and the arrows come from the set-based
reference of ``combine_adjacency``. The entity-table path encodes each distinct
entity once and gathers its rows, so values agree and gradients agree to
rounding: repeated rows' gradients are summed in another order.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

from hoplink import autodiff as ad
from hoplink.config import RunConfig
from hoplink.gnn import GraphBatch
from hoplink.kg import (
    KnowledgeGraph,
    TransductiveWarning,
    queries_both_directions,
)
from hoplink.model import KgcModel
from hoplink.seeding import derive_seed
from hoplink.synth import generate_synthetic_kg
from hoplink.text import build_vocab
from hoplink.training import info_nce_loss

from conftest import encode_heads, reference_arrows

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def oracle_encode(model, kg, queries, seeds, golds, entities=None):
    """The per-occurrence path: returns (X, e_hr, gold rows)."""
    subs = [model.neighborhood(kg, h, seed)
            for (h, _), seed in zip(queries, seeds)]
    H = encode_heads(model.text, [
        (kg.entities[h].name, kg.entities[h].description,
         kg.relation_labels[r]) for h, r in queries])
    neighbor_ids = [e for sub in subs for e in sub.nodes[1:]]
    if neighbor_ids:
        N = (model.encode_entities(kg, neighbor_ids) if entities is None
             else ad.constant(entities[neighbor_ids]))
        stacked = ad.concat_rows([H, N])
    else:
        stacked = H
    arrows, offsets = reference_arrows(kg, subs)
    perm = []
    for i, (sub, offset) in enumerate(zip(subs, offsets)):
        first = len(queries) + offset - i
        perm += [i, *range(first, first + sub.num_nodes - 1)]
    X = ad.gather_rows(stacked, perm)
    sizes = [sub.num_nodes for sub in subs]
    e_hr = model.gnn.encode(X, GraphBatch(arrows, sizes), offsets)
    return X, e_hr, model.encode_entities(kg, golds)


def table_encode(model, kg, queries, seeds, golds):
    batch = model.encode_queries(kg, queries, seeds, golds=golds)
    return batch.X, batch.e_hr, batch.gold


def weighted_sum(x, seed):
    w = np.random.default_rng(seed).normal(size=x.shape)
    return ad.sum_all(ad.hadamard(x, ad.constant(w)))


def values_and_grads(model, encode, kg, queries, seeds, golds):
    """Forward values of X, e_hr and the gold rows, and every leaf's
    gradient of a loss that reads all three (None where none reaches)."""
    params = model.named_parameters()
    for p in params.values():
        p.grad = None
    with ad.Tape():
        X, e_hr, gold = encode(model, kg, queries, seeds, golds)
        loss = ad.add(
            ad.add(weighted_sum(X, 1), weighted_sum(e_hr, 2)),
            ad.add(weighted_sum(gold, 3),
                   info_nce_loss(e_hr, gold, model.temperature_scale())))
        ad.backward(loss)
    values = [X.values, e_hr.values, gold.values]
    grads = {name: None if p.grad is None else p.grad.copy()
             for name, p in params.items()}
    return values, grads


def assert_matches_oracle(model, kg, queries, seeds, golds):
    want_values, want_grads = values_and_grads(
        model, oracle_encode, kg, queries, seeds, golds)
    got_values, got_grads = values_and_grads(
        model, table_encode, kg, queries, seeds, golds)
    for name, got, want in zip(("X", "e_hr", "gold"), got_values, want_values):
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12,
                                   err_msg=name)
    assert got_grads.keys() == want_grads.keys()
    reached = 0
    for name, want in want_grads.items():
        got = got_grads[name]
        assert (got is None) == (want is None), name
        if want is not None:
            reached += 1
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12,
                                       err_msg=name)
    assert reached > 0


def synth_batch(b=64, **overrides):
    splits, texts = generate_synthetic_kg(0)
    kg = KnowledgeGraph.build(splits, texts)
    base = dict(dim=16, encoder="gat", heads=2, k=1, seed=1)
    base.update(overrides)
    config = RunConfig(**base)
    model = KgcModel(config, build_vocab(kg, max_len=config.max_len))
    triples = queries_both_directions(kg, "train")[:b]
    queries = [(q.head, q.relation) for q in triples]
    seeds = [derive_seed(config.seed, f"nbhd:0:{i}") for i in range(b)]
    return model, kg, queries, seeds, [q.tail for q in triples]


@pytest.mark.parametrize("overrides", [
    dict(encoder="gat", k=1),
    dict(encoder="gat", k=2, cap_per_hop=4),
    dict(encoder="gcn", k=2),
    dict(encoder="sage", k=2),
    dict(encoder="gat", k=1, b=8, text_mode="transformer_lite"),
], ids=["gat-k1", "gat-k2-cap4", "gcn", "sage", "transformer"])
def test_synth_batches_match_the_oracle(overrides):
    assert_matches_oracle(*synth_batch(**overrides))


def test_wide_k2_step_matches_the_oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from widegraph import generate_wide_kg

    splits, texts = generate_wide_kg(1)
    kg = KnowledgeGraph.build({"train": splits["train"]}, texts)
    config = RunConfig(dim=64, encoder="gat", heads=3, layers=2, k=2,
                       cap_per_hop=32, batch_size=32, seed=1)
    model = KgcModel(config, build_vocab(kg, max_len=config.max_len))
    triples = queries_both_directions(kg, "train")[::997][:32]
    queries = [(q.head, q.relation) for q in triples]
    seeds = [derive_seed(1, f"nbhd:0:{i}") for i in range(len(triples))]
    assert_matches_oracle(model, kg, queries, seeds, [q.tail for q in triples])


def isolated_heads_batch():
    """Queries whose heads appear only outside train, so every
    neighborhood is the head alone."""
    entity_text = {name: (name, f"{name} words") for name in
                   ("a", "b", "c", "ghost", "spook", "shade")}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransductiveWarning)
        kg = KnowledgeGraph.build(
            {"train": [("a", "r", "b"), ("b", "s", "c")],
             "valid": [("ghost", "r", "a"), ("spook", "s", "b"),
                       ("shade", "r", "a")], "test": []}, entity_text)
    model = KgcModel(RunConfig(dim=8, heads=2, k=2, seed=3), build_vocab(kg))
    heads = [kg.entity_ids[n] for n in ("ghost", "spook", "shade")]
    golds = [kg.entity_ids[n] for n in ("a", "b", "a")]
    return model, kg, [(h, 0) for h in heads], [7, 8, 9], golds


def test_empty_neighborhoods_match_the_oracle():
    model, kg, queries, seeds, golds = isolated_heads_batch()
    batch = model.encode_queries(kg, queries, seeds)
    assert [sub.num_nodes for sub in batch.subgraphs] == [1, 1, 1]
    assert_matches_oracle(model, kg, queries, seeds, golds)


@pytest.mark.parametrize("make_batch", [
    lambda: synth_batch(encoder="gat", k=2, cap_per_hop=4),
    lambda: synth_batch(encoder="gat", k=2, cap_per_hop=4,
                        text_mode="transformer_lite"),
    isolated_heads_batch,
], ids=["synth", "transformer", "isolated"])
def test_eval_table_gives_the_training_path_bits(make_batch):
    # evaluation reads its table from entity_matrix, training from the tower
    model, kg, queries, seeds, golds = make_batch()
    entities = model.entity_matrix(kg)
    with ad.no_grad():
        trained = model.encode_queries(kg, queries, seeds, golds=golds)
        evaluated = model.encode_queries(kg, queries, seeds, entities, golds)
        X, e_hr, _ = oracle_encode(model, kg, queries, seeds, golds, entities)
    assert evaluated.X.values.tobytes() == trained.X.values.tobytes()
    assert evaluated.gold.values.tobytes() == trained.gold.values.tobytes()
    np.testing.assert_array_equal(evaluated.X.values, X.values)
    np.testing.assert_allclose(evaluated.e_hr.values, e_hr.values,
                               rtol=1e-12, atol=1e-12)

