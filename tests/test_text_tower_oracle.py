"""The batched transformer tower against the per-sequence tower it replaced.

The oracle below is that tower, kept here as the reference: one Python pass
per sequence, one pass per attention head through a (d x d/heads) selection
matrix, and a mean over the sequence's rows. The batched tower stacks every
token of the call as one row, attends within each sequence through
``sequence_attention`` and pools with one sparse product, so values and
gradients agree to rounding.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hoplink import autodiff as ad
from hoplink.kg import KnowledgeGraph
from hoplink.synth import generate_synthetic_kg
from hoplink.text import TextEncoder, TextEncoderConfig, Tokenizer, build_vocab

from conftest import encode_heads, encode_tails, head_ids, tail_ids

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def oracle_block(enc, x, prefix):
    p, d, heads = enc.params, enc.config.dim, enc.config.heads
    head_dim = d // heads
    q, k, v = (ad.matmul(x, p[f"{prefix}_{name}"]) for name in ("wq", "wk", "wv"))
    outs = []
    for h in range(heads):
        sel = np.zeros((d, head_dim))
        sel[h * head_dim:(h + 1) * head_dim] = np.eye(head_dim)
        sel_t = ad.constant(sel)
        qh, kh, vh = (ad.matmul(t, sel_t) for t in (q, k, v))
        scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / np.sqrt(head_dim))
        outs.append(ad.matmul(ad.exp(ad.log_softmax_rows(scores)), vh))
    x = ad.add(x, ad.matmul(ad.concat_cols(outs), p[f"{prefix}_wo"]))
    ff = ad.matmul(ad.relu(ad.matmul(x, p[f"{prefix}_ff1"])), p[f"{prefix}_ff2"])
    return ad.add(x, ff)


def oracle_tower(enc, ids_list, tower):
    """One pass per sequence; an empty sequence is a constant zero row."""
    d = enc.config.dim
    rows = []
    for ids in ids_list:
        if not ids:
            rows.append(ad.constant(np.zeros((1, d))))
            continue
        x = ad.add(ad.gather_rows(enc.params["embeddings"], list(ids)),
                   ad.gather_rows(enc.params["positions"], list(range(len(ids)))))
        for layer in range(enc.config.layers):
            x = oracle_block(enc, x, f"{tower}_l{layer}")
        mean = sp.csr_matrix(np.full((1, len(ids)), 1.0 / len(ids)))
        rows.append(ad.sparse_matmul(mean, x))
    return ad.concat_rows(rows) if rows else ad.constant(np.zeros((0, d)))


def values_and_grads(enc, encode):
    """Forward values and every leaf's gradient (zeros where none reaches)
    of a weighted sum of the encodings."""
    for p in enc.params.values():
        p.grad = None
    with ad.Tape():
        out = encode()
        w = np.random.default_rng(5).normal(size=out.shape)
        if out.requires_grad:
            ad.backward(ad.sum_all(ad.hadamard(out, ad.constant(w))))
    grads = {name: np.zeros_like(p.values) if p.grad is None else p.grad
             for name, p in enc.params.items()}
    return out.values, grads


def assert_matches_oracle(enc, heads=(), tails=()):
    tok = enc.tokenizer
    for tower, batched, ids_list in (
            ("head", lambda: encode_heads(enc, heads),
             [head_ids(tok, *item) for item in heads]),
            ("tail", lambda: encode_tails(enc, tails),
             [tail_ids(tok, *item) for item in tails])):
        want, want_grads = values_and_grads(
            enc, lambda: oracle_tower(enc, ids_list, tower))
        got, got_grads = values_and_grads(enc, batched)
        assert got.shape == want.shape == (len(ids_list), enc.config.dim)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12,
                                   err_msg=tower)
        for name, want_grad in want_grads.items():
            np.testing.assert_allclose(got_grads[name], want_grad, rtol=1e-12,
                                       atol=1e-12, err_msg=f"{tower} {name}")


def transformer(tokenizer, dim=16, layers=1, heads=2, seed=0):
    config = TextEncoderConfig(dim=dim, mode="transformer_lite", layers=layers,
                               heads=heads, ff_width=24)
    return TextEncoder(tokenizer, config, np.random.default_rng(seed))


def synth_items():
    splits, texts = generate_synthetic_kg(0)
    kg = KnowledgeGraph.build(splits, texts)
    labels = kg.relation_labels
    heads = [(e.name, e.description, labels[i % len(labels)])
             for i, e in enumerate(kg.entities[:20])]
    tails = [(e.name, e.description) for e in kg.entities]
    return build_vocab(kg, max_len=12), heads, tails


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_synth_heads_and_tails_match_the_oracle(layers, heads):
    tokenizer, head_items, tail_items = synth_items()
    enc = transformer(tokenizer, layers=layers, heads=heads, seed=layers + heads)
    assert_matches_oracle(enc, head_items, tail_items)


def small_tokenizer():
    words = ["apple", "red", "green", "tree", "fruit", "rel", "of"]
    return Tokenizer({w: i for i, w in enumerate(["<pad>", "<unk>", "<sep>"] + words)})


def test_mixed_lengths_with_empty_and_one_token_sequences():
    enc = transformer(small_tokenizer(), dim=8, layers=2, heads=2, seed=4)
    tails = [("apple", "red fruit"), ("", ""), ("tree", ""), ("", ""),
             ("green", "apple tree of red fruit"), ("red", ""), ("tree", "apple")]
    assert sorted({len(tail_ids(enc.tokenizer, *t)) for t in tails}) == [0, 1, 2, 3, 6]
    heads = [("", "", ""), ("apple", "", "rel"), ("tree", "green", "rel of")]
    assert_matches_oracle(enc, heads, tails)


def test_a_batch_of_only_empty_sequences():
    enc = transformer(small_tokenizer(), dim=8, heads=2, seed=5)
    assert_matches_oracle(enc, tails=[("", "")] * 3)
    out = encode_tails(enc, [("", "")] * 3)
    np.testing.assert_array_equal(out.values, np.zeros((3, 8)))


def test_wide_graph_batch_matches_the_oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from widegraph import generate_wide_kg

    splits, texts = generate_wide_kg(1)
    kg = KnowledgeGraph.build({"train": splits["train"]}, texts)
    entities = kg.entities[::97][:32]
    labels = kg.relation_labels
    enc = transformer(build_vocab(kg), dim=64, heads=2, seed=6)
    assert_matches_oracle(
        enc, [(e.name, e.description, labels[i % len(labels)])
              for i, e in enumerate(entities)],
        [(e.name, e.description) for e in entities])
