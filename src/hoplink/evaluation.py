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
                 neighborhood_seeds, query_columns)
from .model import KgcModel, eval_neighborhood_seed

# evaluate ranks chunks of up to this many score cells (8 MiB of float64,
# twice 2^19's 4 MiB), or of batch_size rows where those hold more, as each
# chunk costs ~3 ms of small numpy and scipy calls in ``encode_queries``
# whatever its size. Paired, with the entity table: evaluate on perfbench's
# wide-k1-eval model (5,000 entities, batch 32, one BLAS thread), 2^19
# (104-row chunks) and 2^20 (209) alternated in one process, 30 rounds
# each, twice: 2^20 was faster by 4.6% and 3.1% in the median, in 27 and 22
# of the 30 pairs. Its larger chunks cost ~8 MiB of that workload's peak
# RSS (BENCH_32.json).
SCORE_CELLS = 1 << 20


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
    (the layout ``known_tails`` returns, each row's distinct), are removed
    from its candidate pool first; every remaining candidate other than the
    gold that scores >= the gold pushes the gold down one place. Counted as
    every candidate scoring >= the gold, less the gold itself and the known
    tails among them, so no (b x E) mask is built; a NaN gold beats nothing
    and ranks first.
    """
    rows = np.arange(len(golds))
    gold_scores = scores[rows, golds]
    owner = np.repeat(rows, counts)
    known = (tails != np.asarray(golds)[owner]) \
        & (scores[owner, tails] >= gold_scores[owner])
    return (1 + np.count_nonzero(scores >= gold_scores[:, None], axis=1)
            - np.bincount(owner[known], minlength=len(golds))
            - (gold_scores >= gold_scores))


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

    The queries are the first ``max_queries`` (>= 0; None means all) rows of
    ``query_columns``.
    Unseen heads/relations cannot be scored and take the worst rank. Seen
    rows are encoded and ranked in chunks of max(``config.batch_size``,
    ``SCORE_CELLS`` // E) rows, one ``encode_queries`` pass per chunk, so a
    chunk's (rows x E) score matrix holds about ``SCORE_CELLS`` cells on a
    small graph and training's batch shape on a large one. Every chunk reads
    one ``entity_table``, built here and dropped on return: the entity
    matrix, whose unit rows are the candidates, and the graph encoder's
    layer-0 row-wise stage of it, so a chunk stages only its head rows. A
    chunk keeps only its query vectors, so its batch and score matrix are
    freed before the next chunk is encoded. The neighborhood seed of row i
    depends only on the run seed, the split and i, so a query gets the same
    neighborhood in any chunk, and the same vector bit for bit in any chunk
    of two or more queries: GAT scores all heads in one product whose width
    is a multiple of 8 columns, not in matrix-vector products, whose
    OpenBLAS rounding follows a row's position in its chunk. That holds
    while every dense product sums over at most 384 terms: a final GAT
    layer projects heads x dim of them, and at 8 heads of dim 64 (512) a
    row's bits follow its position again. A chunk of a single query takes
    BLAS's one-row kernel for its final projection, so its last bits can
    differ; a rank moves only where a candidate scores within a few ulps of
    the gold.
    Runs without gradients and changes neither the model nor the graph's
    facts: each chunk's known tails are one ``known_tails`` lookup into
    ``kg.filter_index``. It does fill ``kg.neighborhoods``, the graph's memo
    of draw-free neighborhoods (see ``khop_neighborhood``), which changes no
    later result.
    """
    if max_queries is not None and max_queries < 0:
        raise ValueError(f"max_queries must be >= 0 or None, got {max_queries}")
    queries = query_columns(kg, split)[:max_queries]
    if not len(queries):
        return RankingMetrics(0.0, 0.0, 0.0, 0.0, 0)
    entities = model.entity_table(kg)
    tail_rows, _ = model.tail_matrix(kg, entities.matrix)
    ranks = np.full(len(queries), kg.num_entities, dtype=np.int64)
    seen = np.flatnonzero(~kg.query_is_unseen(queries[:, 0], queries[:, 1]))
    size = max(model.config.batch_size, SCORE_CELLS // kg.num_entities)
    for start in range(0, len(seen), size):
        index = seen[start:start + size]
        rows = queries[index]
        seeds = neighborhood_seeds(
            kg, rows[:, 0].tolist(), model.config.k, model.config.cap_per_hop,
            lambda i: eval_neighborhood_seed(model.config.seed, split, int(index[i])))
        with ad.no_grad():
            e_hr = model.encode_queries(kg, rows[:, :2], seeds,
                                        entities).e_hr.values
        ranks[index] = filtered_rank(query_scores(e_hr, tail_rows), rows[:, 2],
                                     *known_tails(kg, rows[:, 0], rows[:, 1]))
    return RankingMetrics.from_ranks(ranks)
