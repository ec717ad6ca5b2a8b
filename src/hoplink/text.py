"""Entity text features: tokenizer, vocabulary, and the trainable text encoder.

The head tower encodes [name, description, SEP, relation phrase]; the tail and
neighbor towers encode [name, description]. Towers share one token-embedding
table but keep separate projection (or transformer) parameters. The
transformer tower encodes a whole call at once: every token is one row, and
attention stays within each sequence.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .kg import KnowledgeGraph

PAD, UNK, SEP = 0, 1, 2
RESERVED = (("<pad>", PAD), ("<unk>", UNK), ("<sep>", SEP))

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Tokenizer:
    token_to_id: dict[str, int]
    max_len: int = 64

    @property
    def vocab_size(self) -> int:
        return len(self.token_to_id)

    def ids(self, text: str) -> list[int]:
        return [self.token_to_id.get(tok, UNK) for tok in tokenize(text)]

    def tail_ids(self, name: str, desc: str) -> list[int]:
        """Token ids for [name, desc]; empty when both are."""
        name_ids = self.ids(name)
        desc_ids = self.ids(desc)
        budget = max(0, self.max_len - len(name_ids))
        return name_ids + desc_ids[:budget]

    def head_ids(self, name: str, desc: str, relation_phrase: str) -> list[int]:
        """Token ids for [name, desc, SEP, relation]; desc is cut first.

        The name and relation segments are never dropped, even when they alone
        exceed max_len; the transformer tower then reuses its last position
        row for the tokens past the table.
        """
        name_ids = self.ids(name)
        desc_ids = self.ids(desc)
        rel_ids = self.ids(relation_phrase)
        budget = max(0, self.max_len - len(name_ids) - len(rel_ids) - 1)
        return name_ids + desc_ids[:budget] + [SEP] + rel_ids


def build_vocab(kg: KnowledgeGraph, min_frequency: int = 1,
                max_len: int = 64) -> Tokenizer:
    """Vocabulary over all entity names, descriptions, and relation phrases.

    Tokens seen fewer than min_frequency times map to UNK. Ids are reserved
    tokens first, then the surviving tokens in lexicographic order, so the
    mapping is stable across runs and machines.
    """
    counts: Counter[str] = Counter()
    for rec in kg.entities:
        counts.update(tokenize(rec.name))
        counts.update(tokenize(rec.description))
    for label in kg.relation_labels:
        counts.update(tokenize(label))
    token_to_id = {tok: tid for tok, tid in RESERVED}
    kept = sorted(t for t, c in counts.items() if c >= min_frequency)
    for tok in kept:
        token_to_id[tok] = len(token_to_id)
    return Tokenizer(token_to_id=token_to_id, max_len=max_len)


def save_vocab(tokenizer: Tokenizer, path) -> None:
    lines = [f"{tok}\t{tid}\n" for tok, tid in sorted(tokenizer.token_to_id.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def bag_matrix(ids_list: Sequence[Sequence[int]],
               vocab_size: int) -> sp.csr_matrix:
    """Count-normalized bag rows; an empty sequence yields a zero row."""
    lengths = np.fromiter(map(len, ids_list), np.int64, len(ids_list))
    rows = np.repeat(np.arange(len(ids_list)), lengths)
    cols = np.fromiter(itertools.chain.from_iterable(ids_list), np.int64, lengths.sum())
    vals = np.repeat(1.0 / np.maximum(lengths, 1), lengths)
    mat = sp.csr_matrix((vals, (rows, cols)),
                        shape=(len(ids_list), vocab_size), dtype=np.float64)
    mat.sum_duplicates()
    return mat


@dataclass
class TextEncoderConfig:
    dim: int = 64
    mode: str = "mean_pool"
    layers: int = 1
    heads: int = 2
    ff_width: int = 128

    def __post_init__(self):
        if self.mode not in ("mean_pool", "transformer_lite"):
            raise ValueError(f"unknown text encoder mode {self.mode!r}")
        if self.layers < 1 or self.ff_width < 1:
            raise ValueError(f"text layers and ff width must be >= 1, got "
                             f"{self.layers} and {self.ff_width}")
        if self.mode == "transformer_lite" and (
                self.heads < 1 or self.dim % self.heads != 0):
            raise ValueError(
                f"dim {self.dim} not divisible by head count {self.heads}")


class TextEncoder:
    """Turns token sequences into d-vectors; one tower per role (head/tail)."""

    def __init__(self, tokenizer: Tokenizer, config: TextEncoderConfig,
                 rng: np.random.Generator):
        self.tokenizer = tokenizer
        self.config = config
        d = config.dim
        self.params: dict[str, Tensor] = {}
        self.params["embeddings"] = ad.parameter(
            rng.normal(scale=1.0 / np.sqrt(d), size=(tokenizer.vocab_size, d)))
        if config.mode == "mean_pool":
            # identity start: the encoder begins as plain mean pooling
            self.params["head_proj"] = ad.parameter(np.eye(d))
            self.params["tail_proj"] = ad.parameter(np.eye(d))
        else:
            self.params["positions"] = ad.parameter(
                rng.normal(scale=0.02, size=(tokenizer.max_len + 2, d)))
            for tower in ("head", "tail"):
                for layer in range(config.layers):
                    p = f"{tower}_l{layer}"
                    for name in ("wq", "wk", "wv", "wo"):
                        self.params[f"{p}_{name}"] = ad.xavier_uniform((d, d), rng)
                    self.params[f"{p}_ff1"] = ad.xavier_uniform(
                        (d, config.ff_width), rng)
                    self.params[f"{p}_ff2"] = ad.xavier_uniform(
                        (config.ff_width, d), rng)

    # -- batch entry points ------------------------------------------------

    def encode_heads(self, items: Sequence[tuple[str, str, str]]) -> Tensor:
        return self._encode([self.tokenizer.head_ids(name, desc, rel)
                             for name, desc, rel in items], "head")

    def encode_tails(self, items: Sequence[tuple[str, str]]) -> Tensor:
        return self._encode([self.tokenizer.tail_ids(name, desc)
                             for name, desc in items], "tail")

    def encode_from_bag(self, bag: sp.csr_matrix, tower: str) -> Tensor:
        """Fast path for mean_pool mode with a precomputed bag matrix."""
        if self.config.mode != "mean_pool":
            raise ValueError("bag encoding only applies to mean_pool mode")
        pooled = ad.sparse_matmul(bag, self.params["embeddings"])
        return ad.matmul(pooled, self.params[f"{tower}_proj"])

    # -- internals -----------------------------------------------------------

    def _encode(self, ids_list, tower: str) -> Tensor:
        if self.config.mode == "mean_pool":
            return self.encode_from_bag(
                bag_matrix(ids_list, self.tokenizer.vocab_size), tower)
        # every token of every sequence is one row of x
        lengths = np.fromiter(map(len, ids_list), np.int64, len(ids_list))
        ends = np.cumsum(lengths)
        t = int(lengths.sum())
        ids = np.fromiter(itertools.chain.from_iterable(ids_list), np.int64, t)
        # a sequence longer than the position table reuses its last row
        pos = np.minimum(np.arange(t) - np.repeat(ends - lengths, lengths),
                         self.params["positions"].shape[0] - 1)
        x = ad.add(ad.gather_rows(self.params["embeddings"], ids),
                   ad.gather_rows(self.params["positions"], pos))
        for layer in range(self.config.layers):
            x = self._block(x, lengths, f"{tower}_l{layer}")
        # mean over each sequence's rows; an empty sequence pools to zeros
        return ad.sparse_matmul(bag_matrix(np.split(np.arange(t), ends)[:-1], t), x)

    def _block(self, x: Tensor, lengths: np.ndarray, prefix: str) -> Tensor:
        q, k, v = (ad.matmul(x, self.params[f"{prefix}_{name}"])
                   for name in ("wq", "wk", "wv"))
        attended = ad.sequence_attention(q, k, v, lengths, self.config.heads)
        x = ad.add(x, ad.matmul(attended, self.params[f"{prefix}_wo"]))
        ff = ad.matmul(ad.relu(ad.matmul(x, self.params[f"{prefix}_ff1"])),
                       self.params[f"{prefix}_ff2"])
        return ad.add(x, ff)
