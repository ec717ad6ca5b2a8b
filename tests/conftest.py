"""Shared toy graphs for the model, training, and evaluation tests, the
set-based arrow oracle, and the per-item token rules that the graph's token
table replaced, kept as the text towers' input oracle."""

import numpy as np
import pytest

from hoplink.kg import KnowledgeGraph, add_inverse_relations
from hoplink.text import SEP, UNK, tokenize


def token_ids(tokenizer, text):
    return [tokenizer.token_to_id.get(tok, UNK) for tok in tokenize(text)]


def tail_ids(tokenizer, name, desc):
    """Token ids for [name, desc]; empty when both are."""
    name_ids = token_ids(tokenizer, name)
    budget = max(0, tokenizer.max_len - len(name_ids))
    return name_ids + token_ids(tokenizer, desc)[:budget]


def head_ids(tokenizer, name, desc, relation_phrase):
    """Token ids for [name, desc, SEP, relation]; desc is cut first, and the
    name and relation segments are never dropped."""
    name_ids = token_ids(tokenizer, name)
    rel_ids = token_ids(tokenizer, relation_phrase)
    budget = max(0, tokenizer.max_len - len(name_ids) - len(rel_ids) - 1)
    return name_ids + token_ids(tokenizer, desc)[:budget] + [SEP] + rel_ids


def packed(ids_list):
    """(ids, lengths) of a list of id sequences, the towers' batch form."""
    lengths = np.array([len(ids) for ids in ids_list], dtype=np.int64)
    return np.array([i for ids in ids_list for i in ids], dtype=np.int64), lengths


def encode_heads(encoder, items):
    """Head-tower encodings of (name, description, relation phrase) texts."""
    return encoder.encode_heads(*packed([head_ids(encoder.tokenizer, *item)
                                         for item in items]))


def encode_tails(encoder, items):
    """Tail-tower encodings of (name, description) texts."""
    return encoder.encode_tails(*packed([tail_ids(encoder.tokenizer, *item)
                                         for item in items]))


def reference_arrows(kg, subgraphs):
    """Set-based oracle of ``combine_adjacency``: each subgraph's (i, j)
    with a train triple nodes[i] -> nodes[j], in row-major order, shifted
    by the subgraph's first stacked row; and those first rows."""
    pairs = {(h, t) for h, _, t in kg.splits["train"]}
    arrows, offsets, offset = [], [], 0
    for sub in subgraphs:
        offsets.append(offset)
        row = {e: offset + i for i, e in enumerate(sub.nodes)}
        arrows += sorted((row[u], row[v]) for u, v in pairs
                         if u in row and v in row)
        offset += len(sub.nodes)
    return np.array(arrows, dtype=np.int64).reshape(-1, 2), offsets


def chain_graph() -> KnowledgeGraph:
    """8 entities on a mostly-cyclic wiring with textual descriptions."""
    entity_text = {
        f"e{i}": (f"entity {i}", f"thing number {i} alpha beta gamma")
        for i in range(8)
    }
    train = [
        ("e0", "r0", "e1"), ("e1", "r0", "e2"), ("e2", "r1", "e3"),
        ("e3", "r0", "e4"), ("e4", "r1", "e5"), ("e5", "r0", "e6"),
        ("e6", "r1", "e7"), ("e7", "r0", "e0"), ("e0", "r1", "e4"),
        ("e2", "r0", "e6"),
    ]
    valid = [("e1", "r1", "e5")]
    test = [("e3", "r1", "e7")]
    kg = KnowledgeGraph.build(
        {"train": train, "valid": valid, "test": test}, entity_text)
    add_inverse_relations(kg)
    return kg


def dozen_graph() -> KnowledgeGraph:
    """12 entities, 20 train triples, repeated (h, r) pairs for filtering."""
    words = ["amber", "birch", "cedar", "delta", "ember", "frost",
             "grove", "heath", "inlet", "juniper", "kelp", "larch"]
    entity_text = {
        f"n{i}": (words[i], f"{words[i]} marker {words[(i + 3) % 12]}")
        for i in range(12)
    }
    train = [
        ("n0", "near", "n1"), ("n0", "near", "n2"), ("n1", "near", "n3"),
        ("n2", "near", "n4"), ("n3", "kind", "n5"), ("n4", "kind", "n6"),
        ("n5", "near", "n7"), ("n6", "near", "n8"), ("n7", "kind", "n9"),
        ("n8", "kind", "n10"), ("n9", "near", "n11"), ("n10", "near", "n0"),
        ("n11", "kind", "n1"), ("n1", "kind", "n4"), ("n2", "kind", "n7"),
        ("n3", "near", "n8"), ("n5", "kind", "n10"), ("n6", "kind", "n11"),
        ("n0", "kind", "n9"), ("n4", "near", "n5"),
    ]
    valid = [("n0", "near", "n3"), ("n2", "kind", "n9")]
    test = [("n0", "near", "n4"), ("n5", "near", "n8"), ("n7", "kind", "n11")]
    kg = KnowledgeGraph.build(
        {"train": train, "valid": valid, "test": test}, entity_text)
    add_inverse_relations(kg)
    return kg


@pytest.fixture
def chain_kg() -> KnowledgeGraph:
    return chain_graph()


@pytest.fixture
def dozen_kg() -> KnowledgeGraph:
    return dozen_graph()
