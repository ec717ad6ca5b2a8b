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
from .kg import KnowledgeGraph, Triple, build_filter_index, queries_both_directions  # noqa: F401
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


def filtered_rank(scores: np.ndarray, gold: int,
                  known_tails: set[int]) -> int:
    """Pessimistic rank of ``gold`` within ``scores``.

    Other known-true tails are removed from the candidate pool first; among
    the remaining candidates, any score >= the gold's pushes the gold down.
    """
    keep = np.ones(scores.shape[0], dtype=bool)
    for t in known_tails:
        if t != gold:
            keep[t] = False
    pool = scores[keep]
    gold_score = scores[gold]
    higher = int(np.sum(pool > gold_score))
    tied = int(np.sum(pool == gold_score)) - 1  # the gold itself
    return 1 + higher + max(0, tied)


def query_scores(model: KgcModel, kg: KnowledgeGraph, head: int,
                 relation: int, tail_rows: np.ndarray, seed: int) -> np.ndarray:
    """Cosine scores of one query against every entity's tail encoding."""
    with ad.no_grad():
        batch = model.encode_queries(kg, [(head, relation)], [seed])
        vec = batch.e_hr.values[0]
    norm = np.linalg.norm(vec)
    if norm > 1e-12:
        vec = vec / norm
    else:
        vec = np.zeros_like(vec)
    return tail_rows @ vec


def rank_query(model: KgcModel, kg: KnowledgeGraph, query: Triple,
               tail_rows: np.ndarray, filter_index, seed: int) -> int:
    """Filtered rank for one query; unseen heads/relations cannot be scored
    and take the worst possible rank."""
    if kg.query_is_unseen(query.head, query.relation):
        return kg.num_entities
    scores = query_scores(model, kg, query.head, query.relation,
                          tail_rows, seed)
    known = filter_index.get((query.head, query.relation), {query.tail})
    return filtered_rank(scores, query.tail, known)


def evaluate(model: KgcModel, kg: KnowledgeGraph, split: str,
             max_queries: int | None = None) -> RankingMetrics:
    """Filtered MRR and Hits@{1,3,10} over forward and inverse queries.

    Runs without gradients and mutates nothing: it reads ``kg.filter_index``,
    which ``add_inverse_relations`` keeps current. Neighborhood seeds depend
    only on the run seed, the split, and the query index.
    """
    queries = queries_both_directions(kg, split)
    if max_queries is not None:
        queries = queries[:max_queries]
    if not queries:
        return RankingMetrics(0.0, 0.0, 0.0, 0.0, 0)
    filter_index = kg.filter_index
    tail_rows, _ = model.tail_matrix(kg)
    ranks = [
        rank_query(model, kg, query, tail_rows, filter_index,
                   eval_neighborhood_seed(model.config.seed, split, i))
        for i, query in enumerate(queries)
    ]
    return RankingMetrics.from_ranks(ranks)
