"""Filtered ranking metrics over both query directions.

For each (head, relation, gold tail) query the gold's rank among all entities
is computed pessimistically: every other known-true tail for (head, relation)
is excluded, and ties with the gold score count against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
# build_filter_index stays importable here: perfbench's tracer wraps it by name
from .kg import (KnowledgeGraph, build_filter_index, known_tails,  # noqa: F401
                 query_columns)
from .model import KgcModel, eval_neighborhood_seed


@dataclass(frozen=True)
class RankingMetrics:
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    count: int

    def as_dict(self) -> dict:
        return {"mrr": self.mrr, "hits@1": self.hits1, "hits@3": self.hits3,
                "hits@10": self.hits10, "count": self.count}

    @staticmethod
    def from_ranks(ranks: np.ndarray | list[int]) -> "RankingMetrics":
        arr = np.asarray(ranks, dtype=np.float64)
        if not len(arr):
            return RankingMetrics(0.0, 0.0, 0.0, 0.0, 0)
        return RankingMetrics(
            mrr=float(np.mean(1.0 / arr)),
            hits1=float(np.mean(arr <= 1)),
            hits3=float(np.mean(arr <= 3)),
            hits10=float(np.mean(arr <= 10)),
            count=len(arr))


def filtered_rank(scores: np.ndarray, golds: np.ndarray, tails: np.ndarray,
                  counts: np.ndarray) -> np.ndarray:
    """Pessimistic rank of each row's gold within its row of ``scores``.

    Row i's known-true tails, the next ``counts[i]`` entries of ``tails``
    (the layout ``known_tails`` returns), are removed from its candidate
    pool first; every remaining candidate other than the gold that scores
    >= the gold pushes the gold down one place.
    """
    rows = np.arange(len(golds))
    excluded = np.zeros(scores.shape, dtype=bool)
    excluded[np.repeat(rows, counts), tails] = True
    excluded[rows, golds] = True  # the gold is never its own rival
    gold_scores = scores[rows, golds]
    return 1 + np.sum((scores >= gold_scores[:, None]) & ~excluded, axis=1)


def query_scores(e_hr: np.ndarray, tail_rows: np.ndarray) -> np.ndarray:
    """(b x E) cosines of a batch of query vectors against every entity's
    unit tail row; a query row of norm ~0 scores 0 everywhere."""
    norms = np.linalg.norm(e_hr, axis=1, keepdims=True)
    scored = norms > 1e-12
    unit = np.where(scored, e_hr / np.where(scored, norms, 1.0), 0.0)
    return unit @ tail_rows.T


def evaluate(model: KgcModel, kg: KnowledgeGraph, split: str,
             max_queries: int | None = None) -> RankingMetrics:
    """Filtered MRR and Hits@{1,3,10} over forward and inverse queries.

    The queries are the first ``max_queries`` rows of ``query_columns``.
    Unseen heads/relations cannot be scored and take the worst rank. Seen
    rows are encoded and ranked in chunks of ``config.batch_size``, one
    ``encode_queries`` pass per chunk, the batch shape of training. The
    neighborhood seed of row i depends only on the run seed, the split and
    i, so a query gets the same neighborhood in any chunk. Its last bits can
    still depend on the chunk: OpenBLAS rounds a product of at least two
    rows and two columns the same way wherever a row sits, but not a
    matrix-vector product (GAT's attention scores, whose bits follow a
    node's position in the batch) nor a one-row product, such as the final
    layer's projection of the readout row in a chunk of a single query. A
    rank moves only where a candidate scores within a few ulps of the gold.
    Runs without gradients and changes neither the model nor the graph's
    facts: each chunk's known tails are one ``known_tails`` lookup into
    ``kg.filter_index``. It does fill ``kg.neighborhoods``, the graph's memo
    of draw-free neighborhoods (see ``khop_neighborhood``), which changes no
    later result.
    """
    queries = query_columns(kg, split)[:max_queries]
    if not len(queries):
        return RankingMetrics(0.0, 0.0, 0.0, 0.0, 0)
    entities = model.entity_matrix(kg)
    tail_rows, _ = model.tail_matrix(kg, entities)
    ranks = np.full(len(queries), kg.num_entities, dtype=np.int64)
    seen = np.flatnonzero(~kg.query_is_unseen(queries[:, 0], queries[:, 1]))
    size = model.config.batch_size
    for start in range(0, len(seen), size):
        index = seen[start:start + size]
        rows = queries[index]
        seeds = [eval_neighborhood_seed(model.config.seed, split, i)
                 for i in index.tolist()]
        with ad.no_grad():
            batch = model.encode_queries(kg, rows[:, :2].tolist(), seeds, entities)
        scores = query_scores(batch.e_hr.values, tail_rows)
        ranks[index] = filtered_rank(scores, rows[:, 2],
                                     *known_tails(kg, rows[:, 0], rows[:, 1]))
    return RankingMetrics.from_ranks(ranks)
