"""Full link-prediction model: text features in, neighborhood encoder on top,
optional edge-reconstruction head on the side.

A batch of (head, relation) queries is encoded in one pass: head texts go
through the head tower; every entity the batch reads (neighbors, and in
training the gold tails) gets one row of an entity table, the tail tower's
encoding of those entities; one gather lays each query subgraph out as a
consecutive run of rows (head row first), and the graph encoder runs once
over one edge index of all the subgraphs' arrows. Evaluation reads a
constant ``EntityTable`` instead, built once per call: the entity matrix and
the graph encoder's layer-0 row-wise stage of it, so that a chunk stages
only its head rows and gathers the rest of layer 0's input by entity id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GraphError, ShapeError, Tensor
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
    subgraphs: list[NeighborhoodSubgraph]
    graph: GraphBatch            # the subgraphs' layout and arrows over X's rows
    gold: Tensor | None          # entity-table rows of the requested golds
    stack: Callable[[], Tensor]  # builds X

    @cached_property
    def X(self) -> Tensor:
        """Stacked node features, one run per subgraph; evaluation builds
        them only when read."""
        return self.stack()


@dataclass(frozen=True)
class EntityTable:
    """What evaluation reads of every entity, built once per ``evaluate`` or
    ``explain`` call and never kept past it, as it goes stale once the
    parameters move: the entity matrix (E x d, ``entity_matrix``) and the
    graph encoder's layer-0 row-wise stage of it (``GraphEncoder.rowwise``)."""

    matrix: np.ndarray
    stage: tuple[np.ndarray, ...]


class _Undrawn:
    """Stands in for an init generator when every parameter is loaded next:
    each draw is an uninitialized array of the requested shape."""

    def normal(self, *args, size, **kwargs) -> np.ndarray:
        return np.empty(size)

    uniform = normal


class KgcModel:
    def __init__(self, config: RunConfig, tokenizer: Tokenizer, init: bool = True):
        """A model with a seeded random init, or with every parameter left
        uninitialized for ``load_state_arrays`` when not ``init``."""
        self.config = config.validate()
        self.tokenizer = tokenizer

        def rng(purpose: str):
            return derive_rng(config.seed, purpose) if init else _Undrawn()

        self.text = TextEncoder(tokenizer, config, rng("init:text"))
        self.gnn = GraphEncoder(config, rng("init:gnn"))
        # lambda = 1 means the edge loss has zero weight, so the decoder is
        # never built and contributes no parameters or arithmetic
        self.vgae: Vgae | None = None
        if config.lambda_weight < 1.0:
            self.vgae = Vgae(config.dim, config.resolved_latent_dim, rng("init:vgae"))
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

    def entity_table(self, kg: KnowledgeGraph) -> EntityTable:
        """A fresh ``EntityTable`` of the graph's entities."""
        matrix = self.entity_matrix(kg)
        return EntityTable(matrix, self._rowwise(matrix))

    def _rowwise(self, X: np.ndarray) -> tuple[np.ndarray, ...]:
        """The graph encoder's layer-0 row-wise stage of X, without
        gradients. A one-row product takes BLAS's one-row kernel, which
        rounds unlike a row of a larger product, so one row is staged as
        two."""
        rows = X if len(X) > 1 else np.repeat(X, 2, axis=0)
        with ad.no_grad():
            return tuple(s.values[:len(X)] for s in self.gnn.rowwise(ad.constant(rows)))

    # -- query encoding ---------------------------------------------------------

    def encode_queries(self, kg: KnowledgeGraph,
                       queries: np.ndarray | Sequence[tuple[int, int]],
                       seeds: Sequence[int],
                       entities: EntityTable | None = None,
                       golds: Sequence[int] = ()) -> QueryBatch:
        """Encode b (head, relation) queries, a (b x 2) int array or b pairs,
        in one graph pass over each head's ``khop_neighborhood`` for its seed.

        Neighbor rows and the rows of ``golds`` (``QueryBatch.gold``) come
        from an entity table. In training it is the tail tower's encoding of
        each distinct entity read (gradients flow), gathered into X, which
        the graph encoder stages. In evaluation, without gradients, it is
        ``entities``, one ``entity_table(kg)``: only the head rows are staged
        here, and layer 0's input is the table's stage gathered by entity id
        with the head rows' stage at the subgraph offsets; X is built only
        when read. The tower encodes each row on its own and the stage is
        row-wise, so both paths give the same bits."""
        pairs = np.asarray(queries)
        if pairs.shape != (len(seeds), 2) or pairs.dtype.kind not in "iu":
            raise ShapeError(f"{pairs.dtype} queries {pairs.shape} for {len(seeds)} seeds: "
                             f"need ({len(seeds)}, 2) ints")
        if entities is not None and ad.grad_enabled():
            raise GraphError("an entity table is read without gradients: "
                             "encode inside ad.no_grad()")
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
        graph = GraphBatch(*combine_adjacency(kg, subs))
        if entities is not None:
            nodes = np.concatenate([sub.nodes for sub in subs])

            def place(table: np.ndarray, head_rows: np.ndarray) -> Tensor:
                # entity rows by id, each head's row over its own at its offset
                out = table[nodes]
                out[graph.offsets] = head_rows
                return ad.constant(out)

            stage = [place(*rows) for rows in zip(entities.stage, self._rowwise(H.values))]
            e_hr = self.gnn.encode(H, graph, graph.offsets, stage)
            gold = ad.constant(entities.matrix[golds]) if len(golds) else None
            return QueryBatch(e_hr=e_hr, subgraphs=subs, graph=graph, gold=gold,
                              stack=lambda: place(entities.matrix, H.values))

        read = np.concatenate([*(sub.nodes[1:] for sub in subs), golds])
        num_neighbors = len(read) - len(golds)
        ids, rows = np.unique(read, return_inverse=True)
        table = self.encode_entities(kg, ids)
        # X gathers rows of [H; table]: head i (row i) goes in front of its
        # own neighbors, after the offsets[i] - i neighbors of earlier subgraphs
        b = len(pairs)
        index = np.insert(b + rows[:num_neighbors],
                          graph.offsets - np.arange(b), np.arange(b))
        X = ad.gather_rows(ad.concat_rows([H, table]), index)
        e_hr = self.gnn.encode(X, graph, graph.offsets)
        gold = (ad.gather_rows(table, rows[num_neighbors:]) if len(golds)
                else None)
        return QueryBatch(e_hr=e_hr, subgraphs=subs, graph=graph, gold=gold,
                          stack=lambda: X)

    # -- state ------------------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.values.copy()
                for name, p in self.named_parameters().items()}

    def load_state_arrays(self, state: dict[str, np.ndarray], copy: bool = True) -> None:
        """Set every parameter from ``state``, from a copy of each array or,
        without ``copy``, from the array itself where it is float64."""
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
            p.values = values.copy() if copy else values


def eval_neighborhood_seed(root_seed: int, split: str, index: int) -> int:
    """Evaluation neighborhoods must not depend on the epoch counter."""
    return derive_seed(root_seed, f"eval:{split}:{index}")


def save_model(path, model: KgcModel) -> None:
    save_checkpoint(path, config_to_dict(model.config),
                    model.tokenizer.token_to_id, model.state_arrays())


def load_model(path) -> KgcModel:
    """Rebuild a saved model; a checkpoint whose tensors do not fit its own
    config (missing, extra or misshapen) raises ``CheckpointError``. Each
    parameter is the checkpoint's own array, with no random init first."""
    config_dict, vocab, tensors = load_checkpoint(path)
    config = config_from_dict(config_dict)
    tokenizer = Tokenizer(token_to_id=vocab, max_len=config.max_len)
    model = KgcModel(config, tokenizer, init=False)
    try:
        model.load_state_arrays(tensors, copy=False)
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from None
    return model
