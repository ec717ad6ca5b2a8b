"""Full link-prediction model: text features in, neighborhood encoder on top,
optional edge-reconstruction head on the side.

A batch of (head, relation) queries is encoded in one pass: head texts go
through the head tower, neighbor entities through the tail tower, the rows are
permuted so each query subgraph owns a consecutive run (head row first), and
the graph encoder runs once over one edge index of all the subgraphs' arrows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_from_dict, config_to_dict
from .gnn import GraphBatch, GraphEncoder, GraphEncoderConfig, combine_adjacency
from .kg import KnowledgeGraph, NeighborhoodSubgraph, khop_neighborhood
from .seeding import derive_rng, derive_seed
from .text import TextEncoder, TextEncoderConfig, Tokenizer, bag_matrix
from .vgae import Vgae

MAX_INV_TAU = 1000.0  # tau is kept inside [0.001, 1]
LOG_MAX_INV_TAU = math.log(MAX_INV_TAU)


@dataclass
class QueryBatch:
    """One encoded batch of (head, relation) queries."""

    e_hr: Tensor                 # b x d query vectors
    X: Tensor                    # stacked node features, one run per subgraph
    offsets: list[int]           # row offset of each subgraph's head in X
    subgraphs: list[NeighborhoodSubgraph]
    graph: GraphBatch            # the subgraphs' arrows over X's rows


class KgcModel:
    def __init__(self, config: RunConfig, tokenizer: Tokenizer):
        config.validate()
        self.config = config
        self.tokenizer = tokenizer
        text_cfg = TextEncoderConfig(dim=config.dim, mode=config.text_mode,
                                     layers=config.text_layers,
                                     heads=config.text_heads,
                                     ff_width=config.text_ff)
        gnn_cfg = GraphEncoderConfig(variant=config.encoder,
                                     layers=config.layers, dim=config.dim,
                                     heads=config.heads,
                                     activation=config.activation)
        self.text = TextEncoder(tokenizer, text_cfg,
                                derive_rng(config.seed, "init:text"))
        self.gnn = GraphEncoder(gnn_cfg, derive_rng(config.seed, "init:gnn"))
        # lambda = 1 means the edge loss has zero weight, so the decoder is
        # never built and contributes no parameters or arithmetic
        self.vgae: Vgae | None = None
        if config.lambda_weight < 1.0:
            self.vgae = Vgae(config.dim, derive_rng(config.seed, "init:vgae"),
                             latent_dim=config.resolved_latent_dim)
        self.log_inv_tau: Tensor | None = None
        if config.learn_tau:
            self.log_inv_tau = ad.parameter(
                np.array([math.log(1.0 / config.tau)]))
        self._bag_cache: tuple[int, object, np.ndarray] | None = None

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

    def _entity_bag(self, kg: KnowledgeGraph):
        cached = self._bag_cache
        if cached is not None and cached[0] == id(kg):
            return cached[1], cached[2]
        ids_list, flags = [], []
        for rec in kg.entities:
            seq, empty = self.tokenizer.tail_ids(rec.name, rec.description)
            ids_list.append(seq)
            flags.append(empty)
        bag, bag_empty = bag_matrix(ids_list, self.tokenizer.vocab_size)
        empty = np.array(flags) | bag_empty
        self._bag_cache = (id(kg), bag, empty)
        return bag, empty

    def encode_entities(self, kg: KnowledgeGraph, ids: list[int]) -> Tensor:
        """Tail-tower encodings for the given entity ids (gradients flow)."""
        if self.config.text_mode == "mean_pool":
            bag, empty = self._entity_bag(kg)
            return self.text.encode_from_bag(bag[ids], empty[ids], "tail")
        items = [(kg.entities[e].name, kg.entities[e].description)
                 for e in ids]
        return self.text.encode_tails(items)

    def tail_matrix(self, kg: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
        """All-entity tail encodings, row-normalized, built without gradients.

        Returns (E x d matrix, zero-row flags). Rows with no text or a vector
        of norm ~0 stay zero, so their cosine score against any query is 0.
        """
        chunk = max(1, self.config.eval_chunk)
        pieces = []
        with ad.no_grad():
            for start in range(0, kg.num_entities, chunk):
                ids = list(range(start, min(start + chunk, kg.num_entities)))
                pieces.append(self.encode_entities(kg, ids).values)
        mat = np.vstack(pieces)
        norms = np.linalg.norm(mat, axis=1)
        zero = norms <= 1e-12
        safe = np.where(zero, 1.0, norms)
        return mat / safe[:, None], zero

    # -- query encoding ---------------------------------------------------------

    def neighborhood(self, kg: KnowledgeGraph, head: int,
                     seed: int) -> NeighborhoodSubgraph:
        return khop_neighborhood(kg, head, k=self.config.k,
                                 cap_per_hop=self.config.cap_per_hop,
                                 seed=seed)

    def encode_queries(self, kg: KnowledgeGraph,
                       queries: list[tuple[int, int]],
                       seeds: list[int]) -> QueryBatch:
        """Encode a batch of (head, relation) queries in one graph pass."""
        if len(seeds) != len(queries):
            raise ValueError("one neighborhood seed per query is required")
        subs = [self.neighborhood(kg, h, seed)
                for (h, _), seed in zip(queries, seeds)]
        head_items = [(kg.entities[h].name, kg.entities[h].description,
                       kg.relation_labels[r]) for h, r in queries]
        H = self.text.encode_heads(head_items)

        neighbor_ids = [e for sub in subs for e in sub.nodes[1:]]
        if neighbor_ids:
            N = self.encode_entities(kg, neighbor_ids)
            stacked = ad.concat_rows([H, N])
        else:
            stacked = H
        arrows, offsets = combine_adjacency(subs)
        # rows arrive as [heads..., neighbors...]; one gather puts each
        # subgraph's rows together with its head first
        perm: list[int] = []
        for i, (sub, offset) in enumerate(zip(subs, offsets)):
            first = len(queries) + offset - i  # after all heads and earlier neighbors
            perm += [i, *range(first, first + sub.num_nodes - 1)]
        X = ad.gather_rows(stacked, perm)
        graph = GraphBatch(arrows, X.shape[0])
        e_hr = self.gnn.encode(X, graph, offsets)
        return QueryBatch(e_hr=e_hr, X=X, offsets=offsets, subgraphs=subs,
                          graph=graph)

    def encode_query(self, kg: KnowledgeGraph, head: int, relation: int,
                     seed: int) -> QueryBatch:
        return self.encode_queries(kg, [(head, relation)], [seed])

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
    config_dict, vocab, tensors = load_checkpoint(path)
    config = config_from_dict(config_dict)
    tokenizer = Tokenizer(token_to_id={t: int(i) for t, i in vocab.items()},
                          max_len=config.max_len)
    model = KgcModel(config, tokenizer)
    model.load_state_arrays(tensors)
    return model
