"""Full link-prediction model: text features in, neighborhood encoder on top,
optional edge-reconstruction head on the side.

A batch of (head, relation) queries is encoded in one pass: head texts go
through the head tower; every entity the batch reads (neighbors, and in
training the gold tails) gets one row of an entity table, the tail tower's
encoding of those entities in training or their rows of the constant entity
matrix in evaluation; one gather lays each query subgraph out as a
consecutive run of rows (head row first), and the graph encoder runs once
over one edge index of all the subgraphs' arrows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import MAX_INV_TAU, RunConfig, config_from_dict, config_to_dict
from .gnn import GraphBatch, GraphEncoder, combine_adjacency
from .kg import KnowledgeGraph, NeighborhoodSubgraph, khop_neighborhood
from .seeding import derive_rng, derive_seed
from .text import TextEncoder, TextIds, Tokenizer, token_table
from .vgae import Vgae

LOG_MAX_INV_TAU = math.log(MAX_INV_TAU)


@dataclass
class QueryBatch:
    """One encoded batch of (head, relation) queries."""

    e_hr: Tensor                 # b x d query vectors
    X: Tensor                    # stacked node features, one run per subgraph
    subgraphs: list[NeighborhoodSubgraph]
    graph: GraphBatch            # the subgraphs' layout and arrows over X's rows
    gold: Tensor | None = None   # entity-table rows of the requested golds


class KgcModel:
    def __init__(self, config: RunConfig, tokenizer: Tokenizer):
        self.config = config.validate()
        self.tokenizer = tokenizer
        self.text = TextEncoder(tokenizer, config,
                                derive_rng(config.seed, "init:text"))
        self.gnn = GraphEncoder(config, derive_rng(config.seed, "init:gnn"))
        # lambda = 1 means the edge loss has zero weight, so the decoder is
        # never built and contributes no parameters or arithmetic
        self.vgae: Vgae | None = None
        if config.lambda_weight < 1.0:
            self.vgae = Vgae(config.dim, config.resolved_latent_dim,
                             derive_rng(config.seed, "init:vgae"))
        self.log_inv_tau: Tensor | None = None
        if config.learn_tau:
            self.log_inv_tau = ad.parameter(
                np.array([math.log(1.0 / config.tau)]))
        # keyed on the graph's token table itself, not on the graph's id,
        # which CPython reuses once a graph is freed: a table belongs to one
        # graph, and holding it here keeps it from being freed
        self._text_ids: TextIds | None = None

    # -- parameters -----------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out = {f"text.{k}": v for k, v in self.text.params.items()}
        out.update({f"gnn.{k}": v for k, v in self.gnn.params.items()})
        if self.vgae is not None:
            out.update({f"vgae.{k}": v for k, v in self.vgae.params.items()})
        if self.log_inv_tau is not None:
            out["log_inv_tau"] = self.log_inv_tau
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def temperature_scale(self) -> Tensor | float:
        """Multiplier 1/tau applied to cosine similarities."""
        if self.log_inv_tau is not None:
            return ad.exp(ad.clamp(self.log_inv_tau, 0.0, LOG_MAX_INV_TAU))
        return 1.0 / self.config.tau

    def current_tau(self) -> float:
        if self.log_inv_tau is not None:
            clipped = float(np.clip(self.log_inv_tau.values[0],
                                    0.0, LOG_MAX_INV_TAU))
            return math.exp(-clipped)
        return self.config.tau

    # -- entity text encodings ------------------------------------------------

    def text_ids(self, kg: KnowledgeGraph) -> TextIds:
        """The graph's token table in this model's vocabulary, mapped once."""
        table = token_table(kg)
        if self._text_ids is None or self._text_ids.table is not table:
            self._text_ids = TextIds(table, self.tokenizer)
        return self._text_ids

    def encode_entities(self, kg: KnowledgeGraph, ids: Sequence[int]) -> Tensor:
        """Tail-tower encodings for the given entity ids (gradients flow)."""
        return self.text.encode_tails(*self.text_ids(kg).tails(ids))

    def entity_matrix(self, kg: KnowledgeGraph) -> np.ndarray:
        """Every entity's tail encoding (E x d), built without gradients."""
        with ad.no_grad():
            return self.encode_entities(kg, np.arange(kg.num_entities)).values

    def tail_matrix(self, kg: KnowledgeGraph,
                    entities: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """All-entity tail encodings, row-normalized: the rows of
        ``entities`` when given, else of a fresh ``entity_matrix(kg)``.

        Returns (E x d matrix, zero-row flags). Rows with no text or a vector
        of norm ~0 stay zero, so their cosine score against any query is 0.
        """
        mat = self.entity_matrix(kg) if entities is None else entities
        norms = np.linalg.norm(mat, axis=1)
        zero = norms <= 1e-12
        safe = np.where(zero, 1.0, norms)
        return mat / safe[:, None], zero

    # -- query encoding ---------------------------------------------------------

    def encode_queries(self, kg: KnowledgeGraph,
                       queries: np.ndarray | Sequence[tuple[int, int]],
                       seeds: Sequence[int],
                       entities: np.ndarray | None = None,
                       golds: Sequence[int] = ()) -> QueryBatch:
        """Encode b (head, relation) queries, a (b x 2) int array or b pairs,
        in one graph pass over each head's ``khop_neighborhood`` for its seed.

        Neighbor rows and the rows of ``golds`` (``QueryBatch.gold``) come
        from one entity table, a row per distinct entity read: the tail
        tower's encoding (gradients flow), or, without gradients, rows of
        ``entities`` when it holds ``entity_matrix(kg)``. The tower encodes
        each row on its own, so both tables hold the same bits."""
        pairs = np.asarray(queries)
        if pairs.shape != (len(seeds), 2) or pairs.dtype.kind not in "iu":
            raise ShapeError(f"{pairs.dtype} queries {pairs.shape} for {len(seeds)} seeds: "
                             f"need ({len(seeds)}, 2) ints")
        heads, relations = pairs.T
        # heads are checked by the sampler; a relation id would index text
        unknown = (relations < 0) | (relations >= len(kg.relation_labels))
        if unknown.any():
            raise KeyError(f"unknown relation id {relations[unknown][0]}")
        subs = [khop_neighborhood(kg, h, self.config.k, self.config.cap_per_hop, seed)
                for h, seed in zip(heads.tolist(), seeds)]
        H = self.text.encode_heads(*self.text_ids(kg).heads(heads, relations))

        golds = np.asarray(golds)
        # np.asarray(()) is float64, so only non-empty golds must be integer
        if golds.ndim != 1 or (golds.size and golds.dtype.kind not in "iu"):
            raise ShapeError(f"{golds.dtype} golds {golds.shape}: need a flat "
                             f"sequence of integer entity ids")
        golds = golds.astype(np.int64, copy=False)
        read = np.concatenate([*(sub.nodes[1:] for sub in subs), golds])
        num_neighbors = len(read) - len(golds)
        ids, rows = np.unique(read, return_inverse=True)
        table = (self.encode_entities(kg, ids) if entities is None
                 else ad.constant(entities[ids]))
        graph = GraphBatch(*combine_adjacency(kg, subs))
        # X gathers rows of [H; table]: head i (row i) goes in front of its
        # own neighbors, after the offsets[i] - i neighbors of earlier subgraphs
        b = len(pairs)
        index = np.insert(b + rows[:num_neighbors],
                          graph.offsets - np.arange(b), np.arange(b))
        X = ad.gather_rows(ad.concat_rows([H, table]), index)
        e_hr = self.gnn.encode(X, graph, graph.offsets)
        gold = (ad.gather_rows(table, rows[num_neighbors:]) if len(golds)
                else None)
        return QueryBatch(e_hr=e_hr, X=X, subgraphs=subs, graph=graph,
                          gold=gold)

    # -- state ------------------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.values.copy()
                for name, p in self.named_parameters().items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise ValueError(
                f"state mismatch: missing {missing}, unexpected {extra}")
        for name, p in params.items():
            values = np.asarray(state[name], dtype=np.float64)
            if values.shape != p.values.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{values.shape} vs {p.values.shape}")
            p.values = values.copy()


def eval_neighborhood_seed(root_seed: int, split: str, index: int) -> int:
    """Evaluation neighborhoods must not depend on the epoch counter."""
    return derive_seed(root_seed, f"eval:{split}:{index}")


def save_model(path, model: KgcModel) -> None:
    save_checkpoint(path, config_to_dict(model.config),
                    model.tokenizer.token_to_id, model.state_arrays())


def load_model(path) -> KgcModel:
    """Rebuild a saved model; a checkpoint whose tensors do not fit its own
    config (missing, extra or misshapen) raises ``CheckpointError``."""
    config_dict, vocab, tensors = load_checkpoint(path)
    config = config_from_dict(config_dict)
    tokenizer = Tokenizer(token_to_id=vocab, max_len=config.max_len)
    model = KgcModel(config, tokenizer)
    try:
        model.load_state_arrays(tensors)
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from None
    return model
