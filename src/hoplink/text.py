"""Entity text features: tokenizer, vocabulary, and the trainable text encoder.

A graph's entity texts and relation labels are tokenized once, into the
graph's ``TokenTable``; a model maps the table's words to its vocabulary's
ids once per graph (``TextIds``), and every tower input, a tail bag, a head
row or a transformer sequence, is a slice of that one id array.

The head tower encodes [name, description, SEP, relation phrase]; the tail and
neighbor towers encode [name, description]. Towers share one token-embedding
table but keep separate projection (or transformer) parameters. The
transformer tower encodes a whole call at once: every token is one row, and
attention stays within each sequence.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .kg import KnowledgeGraph, _range_slots

if TYPE_CHECKING:
    from .config import RunConfig

PAD, UNK, SEP = 0, 1, 2
RESERVED = (("<pad>", PAD), ("<unk>", UNK), ("<sep>", SEP))

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# each byte of a-z and 0-9 to itself, "\n" to "|" and any other byte to a
# space: UTF-8 gives a non-ASCII character only bytes >= 0x80, so a byte
# string mapped this way splits into the words ``tokenize`` finds
_WORD_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789"
                    else ord("|") if b == ord("\n") else ord(" ") for b in range(256))


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class TokenTable:
    """Every token of a graph's texts, tokenized once: text 2e is entity
    e's name, text 2e + 1 its description, and the last ``num_relations``
    texts are the relation labels. ``codes`` holds each text's tokens in
    order, then code 0, the mark ``words[0]`` that closes the text."""

    words: list[str]        # the close mark, then the distinct words
    codes: np.ndarray       # each token's index in ``words``, text by text
    lengths: np.ndarray     # each text's token count
    starts: np.ndarray      # each text's first position in ``codes``
    num_relations: int


def _fill_table(texts: list[str], num_relations: int) -> TokenTable:
    # the texts joined and lowered at once, each closed by " \n " (its own
    # "\n" made a space first), so each "|" found closes a text; a fill
    # makes few numpy calls, as each costs tens of microseconds on a cold
    # cache, which small graphs pay in every set-up
    joined = (" \n ".join(text.replace("\n", " ") for text in texts) + " \n").lower()
    found = joined.encode("utf-8", "surrogatepass").translate(_WORD_BYTES).split()
    # each word's code, in order of first appearance after "|"
    code: defaultdict[bytes, int] = defaultdict()
    code.default_factory = code.__len__
    code[b"|"]
    codes = np.fromiter(map(code.__getitem__, found), np.int64, len(found))
    ends = np.flatnonzero(codes == 0)
    starts = np.concatenate(([0], ends[:-1] + 1))
    return TokenTable(b" ".join(code).decode().split(), codes, ends - starts,
                      starts, num_relations)


def token_table(kg: KnowledgeGraph) -> TokenTable:
    """``kg.token_table``, filled on first read."""
    if kg.token_table is None:
        texts = [text for rec in kg.entities for text in (rec.name, rec.description)]
        kg.token_table = _fill_table(texts + kg.relation_labels, len(kg.relation_labels))
    return kg.token_table


@dataclass
class Tokenizer:
    token_to_id: dict[str, int]
    max_len: int = 64

    @property
    def vocab_size(self) -> int:
        return len(self.token_to_id)


def build_vocab(kg: KnowledgeGraph, min_frequency: int = 1,
                max_len: int = 64) -> Tokenizer:
    """Vocabulary over all entity names, descriptions, and relation phrases.

    Tokens seen fewer than min_frequency times map to UNK. Ids are reserved
    tokens first, then the surviving tokens in lexicographic order, so the
    mapping is stable across runs and machines.
    """
    table = token_table(kg)
    counts = np.bincount(table.codes, minlength=len(table.words))
    token_to_id = {tok: tid for tok, tid in RESERVED}
    kept = sorted(itertools.compress(table.words[1:], counts[1:] >= min_frequency))
    for tok in kept:
        token_to_id[tok] = len(token_to_id)
    return Tokenizer(token_to_id=token_to_id, max_len=max_len)


class TextIds:
    """A graph's token table in one vocabulary: ``ids`` holds the id of
    every table token, with SEP for the mark closing each text, and each
    tower input is cut from it."""

    def __init__(self, table: TokenTable, tokenizer: Tokenizer):
        self.table = table
        self.max_len = tokenizer.max_len
        word_ids = np.fromiter(itertools.chain((SEP,), map(
            tokenizer.token_to_id.get, table.words[1:], itertools.repeat(UNK))),
            np.int64, len(table.words))
        self.ids = word_ids[table.codes]

    def tails(self, entities) -> tuple[np.ndarray, np.ndarray]:
        """Ids of [name, description] of each entity, the description cut so
        that the row holds at most max_len tokens unless the name alone does;
        (every row's ids back to back, each row's count)."""
        lengths, starts = self.table.lengths, self.table.starts
        names = 2 * np.asarray(entities, dtype=np.int64)
        name = lengths[names]
        desc = np.minimum(lengths[names + 1], np.maximum(0, self.max_len - name))
        first = np.stack([starts[names], starts[names + 1]], axis=1).ravel()
        count = np.stack([name, desc], axis=1).ravel()
        return self.ids[_range_slots(first, first + count)[0]], name + desc

    def heads(self, heads, relations) -> tuple[np.ndarray, np.ndarray]:
        """Ids of [name, description, SEP, relation phrase] of each query;
        only the description is cut to max_len, so the name and relation
        segments stay whole even when they alone are longer."""
        lengths, starts = self.table.lengths, self.table.starts
        names = 2 * np.asarray(heads, dtype=np.int64)
        labels = len(lengths) - self.table.num_relations + np.asarray(relations)
        name, rel = lengths[names], lengths[labels]
        desc = np.minimum(lengths[names + 1], np.maximum(0, self.max_len - name - rel - 1))
        # four runs per row: the name, the description, the SEP that closes
        # the description, and the relation phrase
        after = starts[names + 1] + lengths[names + 1]
        first = np.stack([starts[names], starts[names + 1], after, starts[labels]],
                         axis=1).ravel()
        count = np.stack([name, desc, np.ones_like(name), rel], axis=1).ravel()
        return self.ids[_range_slots(first, first + count)[0]], name + desc + 1 + rel


def save_vocab(tokenizer: Tokenizer, path) -> None:
    lines = [f"{tok}\t{tid}\n" for tok, tid in sorted(tokenizer.token_to_id.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def bag_matrix(ids: np.ndarray, lengths: np.ndarray,
               vocab_size: int) -> sp.csr_matrix:
    """Count-normalized bag rows of the sequences packed in ``ids`` (row i
    holds the next ``lengths[i]`` ids); an empty sequence yields a zero row."""
    vals = np.repeat(1.0 / np.maximum(lengths, 1), lengths)
    mat = ad.csr_rows(vals, ids, lengths, vocab_size)
    mat.sum_duplicates()
    return mat


class TextEncoder:
    """Turns token sequences into d-vectors; one tower per role (head/tail).
    Reads ``dim`` and the ``text_*`` fields of a ``RunConfig``."""

    def __init__(self, tokenizer: Tokenizer, config: RunConfig,
                 rng: np.random.Generator):
        self.tokenizer = tokenizer
        self.config = config.validate()
        d = config.dim
        self.params: dict[str, Tensor] = {}
        self.params["embeddings"] = ad.parameter(
            rng.normal(scale=1.0 / np.sqrt(d), size=(tokenizer.vocab_size, d)))
        if config.text_mode == "mean_pool":
            # identity start: the encoder begins as plain mean pooling
            self.params["head_proj"] = ad.parameter(np.eye(d))
            self.params["tail_proj"] = ad.parameter(np.eye(d))
        else:
            self.params["positions"] = ad.parameter(
                rng.normal(scale=0.02, size=(tokenizer.max_len + 2, d)))
            for tower in ("head", "tail"):
                for layer in range(config.text_layers):
                    p = f"{tower}_l{layer}"
                    for name in ("wq", "wk", "wv", "wo"):
                        self.params[f"{p}_{name}"] = ad.xavier_uniform((d, d), rng)
                    self.params[f"{p}_ff1"] = ad.xavier_uniform(
                        (d, config.text_ff), rng)
                    self.params[f"{p}_ff2"] = ad.xavier_uniform(
                        (config.text_ff, d), rng)

    # -- batch entry points ------------------------------------------------

    # a batch is packed sequences: ``ids`` holds every sequence's token ids
    # back to back and ``lengths`` each sequence's count (``TextIds``)

    def encode_heads(self, ids: np.ndarray, lengths: np.ndarray) -> Tensor:
        return self._encode(ids, lengths, "head")

    def encode_tails(self, ids: np.ndarray, lengths: np.ndarray) -> Tensor:
        return self._encode(ids, lengths, "tail")

    # -- internals -----------------------------------------------------------

    def _encode(self, ids: np.ndarray, lengths: np.ndarray, tower: str) -> Tensor:
        if self.config.text_mode == "mean_pool":
            bag = bag_matrix(ids, lengths, self.tokenizer.vocab_size)
            pooled = ad.sparse_matmul(bag, self.params["embeddings"])
            return ad.matmul(pooled, self.params[f"{tower}_proj"])
        # every token of every sequence is one row of x
        ends = np.cumsum(lengths)
        t = len(ids)
        # a sequence longer than the position table reuses its last row
        pos = np.minimum(np.arange(t) - np.repeat(ends - lengths, lengths),
                         self.params["positions"].shape[0] - 1)
        x = ad.add(ad.gather_rows(self.params["embeddings"], ids),
                   ad.gather_rows(self.params["positions"], pos))
        for layer in range(self.config.text_layers):
            x = self._block(x, lengths, f"{tower}_l{layer}")
        # mean over each sequence's rows; an empty sequence pools to zeros
        return ad.sparse_matmul(bag_matrix(np.arange(t), lengths, t), x)

    def _block(self, x: Tensor, lengths: np.ndarray, prefix: str) -> Tensor:
        q, k, v = (ad.matmul(x, self.params[f"{prefix}_{name}"])
                   for name in ("wq", "wk", "wv"))
        attended = ad.sequence_attention(q, k, v, lengths,
                                         self.config.text_heads)
        x = ad.add(x, ad.matmul(attended, self.params[f"{prefix}_wo"]))
        ff = ad.matmul(ad.relu(ad.matmul(x, self.params[f"{prefix}_ff1"])),
                       self.params[f"{prefix}_ff2"])
        return ad.add(x, ff)
