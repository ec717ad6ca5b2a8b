"""Losses and the training loop.

The ranking loss is an in-batch contrastive objective: each query's gold tail
is scored against every other gold tail in the batch via temperature-scaled
cosine similarity, and the gold entry must win the row softmax. The optional
edge-reconstruction loss is mixed in as

    loss = lambda * L_kg + (1 - lambda) * L_edge
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, ShapeError, Tensor
from .config import ConfigError, RunConfig
from .kg import KnowledgeGraph, neighborhood_seeds, query_columns
from .model import KgcModel, QueryBatch
from .seeding import derive_rng, derive_seed
from .text import build_vocab
from .vgae import EdgeMask, edge_loss, mask_edges, reparameterize, visible_graph


class DegenerateBatchError(ValueError):
    """The contrastive loss has nothing to contrast against."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; parameters were rolled back."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


def info_nce_loss(queries: Tensor, tails: Tensor,
                  inv_tau: Tensor | float = 20.0) -> Tensor:
    """Mean cross-entropy of each query against the in-batch gold tails.

    Rows are L2-normalized; zero-norm rows (no usable text anywhere) cannot
    produce a meaningful similarity, so those pairs are dropped from the mean.
    The result carries a ``skipped_rows`` bool array for inspection.
    """
    if queries.values.ndim != 2 or queries.shape != tails.shape:
        raise ShapeError(
            f"queries {queries.shape} and tails {tails.shape} must be "
            "matching 2-d batches")
    b = queries.shape[0]
    if b < 2:
        raise DegenerateBatchError(
            f"contrastive batch needs at least 2 rows, got {b}")
    q_norm = ad.l2_normalize_rows(queries)
    t_norm = ad.l2_normalize_rows(tails)
    skipped = q_norm.zero_rows | t_norm.zero_rows
    kept = int(b - skipped.sum())
    if kept == 0:
        raise DegenerateBatchError("every row in the batch has zero norm")

    sims = ad.matmul(q_norm, ad.transpose(t_norm))
    if isinstance(inv_tau, Tensor):
        scaled = ad.scale_by(sims, inv_tau)
    else:
        scaled = ad.scale(sims, float(inv_tau))
    log_probs = ad.log_softmax_rows(scaled)
    # pick out -log p[i, i] for kept rows only, averaged over kept rows
    weights = np.diag(np.where(skipped, 0.0, -1.0 / kept))
    loss = ad.sum_all(ad.hadamard(log_probs, ad.constant(weights)))
    loss.skipped_rows = skipped
    return loss


def combined_loss(kg_loss: Tensor, edge_loss_term: Tensor | None,
                  lambda_weight: float) -> Tensor:
    """lambda * L_kg + (1 - lambda) * L_edge; the edge term may be omitted
    only when lambda == 1."""
    if not 0.0 <= lambda_weight <= 1.0:
        raise ConfigError(f"lambda must lie in [0, 1], got {lambda_weight}")
    if edge_loss_term is None:
        if lambda_weight != 1.0:
            raise ValueError("edge loss may only be omitted when lambda == 1")
        return ad.scale(kg_loss, lambda_weight)
    return ad.add(ad.scale(kg_loss, lambda_weight),
                  ad.scale(edge_loss_term, 1.0 - lambda_weight))


def batch_edge_loss(model: KgcModel, batch: QueryBatch, mask: EdgeMask,
                    noise_seed: int) -> Tensor:
    """Edge-reconstruction loss over a batch's subgraphs, averaged per query.

    All subgraphs share one encoder pass over the batch's visible graph,
    its arrows minus the masked positives. Subgraphs with no edges
    contribute 0.
    """
    if model.vgae is None:
        raise ValueError("model was built without an edge decoder")
    visible = visible_graph(batch.graph, mask)
    state = model.vgae.encode(batch.X, visible)
    z = reparameterize(state, noise_seed)
    return edge_loss(state, z, mask, visible)


class Trainer:
    """Mini-batch trainer with per-epoch validation and deterministic seeding.

    Every stochastic choice (shuffles, neighborhood subsampling, edge masks,
    reparameterization noise) draws from a seed derived from the run seed and
    a purpose label, so reruns reproduce byte-identical trajectories.
    """

    def __init__(self, kg: KnowledgeGraph, config: RunConfig, log_fn=None):
        config.validate()
        self.kg = kg
        self.config = config
        tokenizer = build_vocab(kg, min_frequency=config.min_frequency,
                                max_len=config.max_len)
        self.model = KgcModel(config, tokenizer)
        self.optimizer = AdamW(self.model.parameters(), lr=config.lr,
                               weight_decay=config.weight_decay)
        # (head, relation, gold) rows; train_epochs also takes a list of rows
        self.queries: np.ndarray = query_columns(kg, "train")
        self.epoch = 0
        self.history: list[dict] = []
        self.log_fn = log_fn
        self._last_good = self.model.state_arrays()

    def _log(self, line: str) -> None:
        if self.log_fn is not None:
            self.log_fn(line)

    def _neighborhood_seed(self, epoch: int, query_index: int) -> int:
        # frozen neighborhoods reuse the epoch-0 draw
        e = epoch if self.config.resample_neighborhoods else 0
        return derive_seed(self.config.seed, f"nbhd:{e}:{query_index}")

    def _train_batch(self, epoch: int, batch_index: int, rows: np.ndarray,
                     indices: np.ndarray) -> float:
        """One step on ``rows``, rows ``indices`` of the epoch's queries."""
        cfg = self.config
        model = self.model
        seeds = neighborhood_seeds(
            self.kg, rows[:, 0].tolist(), cfg.k, cfg.cap_per_hop,
            lambda i: self._neighborhood_seed(epoch, int(indices[i])))
        batch = model.encode_queries(self.kg, rows[:, :2], seeds,
                                     golds=rows[:, 2])
        kg_term = info_nce_loss(batch.e_hr, batch.gold,
                                model.temperature_scale())

        if model.vgae is not None:
            mask = mask_edges(
                batch.graph, cfg.mask_ratio,
                derive_seed(cfg.seed, f"mask:{epoch}:{batch_index}"))
            noise_seed = derive_seed(cfg.seed, f"noise:{epoch}:{batch_index}")
            edge_term = batch_edge_loss(model, batch, mask, noise_seed)
            loss = combined_loss(kg_term, edge_term, cfg.lambda_weight)
        else:
            loss = combined_loss(kg_term, None, cfg.lambda_weight)

        value = loss.item()
        if not np.isfinite(value):
            model.load_state_arrays(self._last_good)
            raise DivergenceError(
                f"non-finite loss at epoch {epoch} batch {batch_index}; "
                "parameters rolled back to the last finished epoch", epoch)
        self.optimizer.zero_grad()
        ad.backward(loss)
        self.optimizer.step()
        return value

    def train_epochs(self, count: int) -> list[dict]:
        """Run ``count`` epochs from the current state; returns their records."""
        from .evaluation import evaluate

        cfg = self.config
        records = []
        has_valid = len(self.kg.triples["valid"]) > 0
        for _ in range(count):
            epoch = self.epoch
            queries = np.asarray(self.queries, np.int64).reshape(-1, 3)
            order = derive_rng(cfg.seed, f"shuffle:{epoch}").permutation(
                len(queries))
            losses = []
            for batch_index, start in enumerate(
                    range(0, len(order), cfg.batch_size)):
                indices = order[start:start + cfg.batch_size]
                if len(indices) < 2:
                    continue
                with ad.Tape():
                    losses.append(self._train_batch(
                        epoch, batch_index, queries[indices], indices))
            train_loss = float(np.mean(losses)) if losses else float("nan")
            valid_mrr = (evaluate(self.model, self.kg, "valid").mrr
                         if has_valid else 0.0)
            record = {"epoch": epoch, "train_loss": train_loss,
                      "valid_mrr": valid_mrr}
            self.history.append(record)
            records.append(record)
            self._log(f"epoch={epoch} train_loss={train_loss:.6f} "
                      f"valid_mrr={valid_mrr:.6f}")
            self._last_good = self.model.state_arrays()
            self.epoch += 1
        return records

    def train(self) -> list[dict]:
        return self.train_epochs(self.config.epochs)
