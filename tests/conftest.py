"""Shared toy graphs for the model, training, and evaluation tests, the
set-based arrow oracle, the per-item token rules that the graph's token
table replaced, kept as the text towers' input oracle, and the edge mask
that drew from a bare arrow list, kept as the reference of its draws."""

import numpy as np
import pytest

from hoplink.autodiff import ShapeError
from hoplink.kg import KnowledgeGraph
from hoplink.text import SEP, UNK, tokenize
from hoplink.vgae import EdgeMask


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


def reference_mask_edges(arrows, sizes, ratio, seed):
    """``vgae.mask_edges`` as it was when it took the arrows and sizes
    itself and symmetrized, sorted and deduplicated the taken cells in its
    own cell space: the reference its draws must match bit for bit."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio must be in (0, 1), got {ratio}")
    arrows = np.asarray(arrows, dtype=np.int64).reshape(-1, 2)
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    if len(sizes) == 0 or (sizes < 1).any():
        raise ShapeError(f"subgraph sizes must be positive and non-empty, "
                         f"got {sizes.tolist()}")
    ends = np.cumsum(sizes)
    row_start = ends - sizes
    src, dst = arrows[:, 0], arrows[:, 1]
    if len(arrows) and (arrows.min() < 0 or arrows.max() >= ends[-1]):
        raise ShapeError(f"arrow endpoint outside {int(ends[-1])} stacked rows")
    owner = np.searchsorted(ends, src, side="right")
    if (owner != np.searchsorted(ends, dst, side="right")).any():
        raise ShapeError("arrow crosses from one subgraph's rows into another's")
    if (np.diff(owner) < 0).any():
        raise ShapeError("arrows are not grouped by subgraph in batch order")

    rng = np.random.default_rng(seed)
    m = np.bincount(owner, minlength=len(sizes))
    n_mask = np.ceil(ratio * m).astype(np.int64)
    # owner is sorted, so the lexsort keeps each subgraph's run in place
    order = np.lexsort((rng.random(len(arrows)), owner))
    place = np.arange(len(arrows)) - (np.cumsum(m) - m)[owner]
    positives = arrows[np.sort(order[place < n_mask[owner]])]

    # subgraph k's cells (i, j) are keyed cell_start[k] + i_k * n_k + j_k
    cells = sizes * sizes
    cell_start = np.cumsum(cells) - cells
    n, base = sizes[owner], cell_start[owner]
    i, j = src - row_start[owner], dst - row_start[owner]
    diag_owner = np.repeat(np.arange(len(sizes)), sizes)
    diag = np.arange(len(diag_owner)) - row_start[diag_owner]
    taken = np.sort(np.concatenate([
        base + i * n + j, base + j * n + i,
        cell_start[diag_owner] + diag * (sizes[diag_owner] + 1)]))
    taken = taken[np.concatenate([[True], taken[1:] != taken[:-1]])]
    n_free = cells - np.diff(np.searchsorted(taken, np.append(cell_start,
                                                              cells.sum())))
    n_neg = np.where(n_free > 0, n_mask, 0)
    neg_owner = np.repeat(np.arange(len(sizes)), n_neg)
    # ranks of subgraph k lie in its own range, so one sort orders them
    # within every subgraph and keeps the subgraphs in batch order
    rank = np.sort(rng.integers(0, n_free[neg_owner])
                   + (np.cumsum(n_free) - n_free)[neg_owner])
    # the R-th free cell c (not taken, not diagonal) has exactly R free cells
    # before it, so c = R + #(taken cells <= c)
    cell = rank + np.searchsorted(taken - np.arange(len(taken)), rank,
                                  side="right")
    local_i, local_j = np.divmod(cell - cell_start[neg_owner],
                                 sizes[neg_owner])
    first = row_start[neg_owner]
    negatives = np.stack([local_i + first, local_j + first], axis=1)
    return EdgeMask(positives, negatives, n_mask, n_neg)


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
    return KnowledgeGraph.build(
        {"train": train, "valid": valid, "test": test}, entity_text)


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
    return KnowledgeGraph.build(
        {"train": train, "valid": valid, "test": test}, entity_text)


@pytest.fixture
def chain_kg() -> KnowledgeGraph:
    return chain_graph()


@pytest.fixture
def dozen_kg() -> KnowledgeGraph:
    return dozen_graph()
