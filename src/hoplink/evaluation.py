"""Filtered ranking metrics over both query directions.

For each (head, relation, gold tail) query the gold's rank among all entities
is computed pessimistically: every other known-true tail for (head, relation)
is excluded, and ties with the gold score count against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
# build_filter_index stays importable here: perfbench's tracer wraps it by name
from .kg import (KnowledgeGraph, build_filter_index, known_tails,  # noqa: F401
                 queries_both_directions)
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
    def from_ranks(ranks: list[int]) -> "RankingMetrics":
        if not ranks:
            return RankingMetrics(0.0, 0.0, 0.0, 0.0, 0)
        arr = np.array(ranks, dtype=np.float64)
        return RankingMetrics(
            mrr=float(np.mean(1.0 / arr)),
            hits1=float(np.mean(arr <= 1)),
            hits3=float(np.mean(arr <= 3)),
            hits10=float(np.mean(arr <= 10)),
            count=len(ranks))


def filtered_rank(scores: np.ndarray, golds: Sequence[int], tails: np.ndarray,
                  counts: Sequence[int]) -> np.ndarray:
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

    Seen queries are encoded and ranked in chunks of ``config.batch_size``,
    one ``encode_queries`` pass per chunk, the batch shape of training. The
    neighborhood seed of query i depends only on the run seed, the split and
    i, its index in the full query list, so a query gets the same
    neighborhood in any chunk. Its last bits can still depend on the chunk:
    OpenBLAS rounds a product of at least two rows and two columns the same
    way wherever a row sits, but not a one-row product (a chunk of a single
    query) nor a matrix-vector product (GAT's attention scores, whose bits
    follow a node's position in the batch). A rank moves only where a
    candidate scores within a few ulps of the gold. Unseen heads/relations
    cannot be scored and take the worst rank. Runs without gradients and
    changes neither the model nor the graph's facts: each chunk's known tails
    are one ``known_tails`` lookup into ``kg.filter_index``. It does fill
    ``kg.neighborhoods``, the graph's memo of draw-free neighborhoods (see
    ``khop_neighborhood``), which changes no later result.
    """
    queries = queries_both_directions(kg, split)
    if max_queries is not None:
        queries = queries[:max_queries]
    if not queries:
        return RankingMetrics(0.0, 0.0, 0.0, 0.0, 0)
    entities = model.entity_matrix(kg)
    tail_rows, _ = model.tail_matrix(kg, entities)
    ranks = np.full(len(queries), kg.num_entities, dtype=np.int64)
    seen = [i for i, q in enumerate(queries)
            if not kg.query_is_unseen(q.head, q.relation)]
    size = model.config.batch_size
    for start in range(0, len(seen), size):
        index = seen[start:start + size]
        chunk = [queries[i] for i in index]
        seeds = [eval_neighborhood_seed(model.config.seed, split, i)
                 for i in index]
        with ad.no_grad():
            batch = model.encode_queries(
                kg, [(q.head, q.relation) for q in chunk], seeds, entities)
        scores = query_scores(batch.e_hr.values, tail_rows)
        heads, relations, golds = zip(*chunk)
        ranks[index] = filtered_rank(scores, golds,
                                     *known_tails(kg, heads, relations))
    return RankingMetrics.from_ranks(ranks.tolist())
