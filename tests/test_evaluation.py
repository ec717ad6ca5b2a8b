import warnings

import numpy as np
import pytest

import hoplink.autodiff as ad
from hoplink.config import RunConfig
from hoplink.evaluation import (
    RankingMetrics,
    evaluate,
    filtered_rank,
    rank_query,
)
from hoplink.kg import (
    KnowledgeGraph,
    TransductiveWarning,
    Triple,
    add_inverse_relations,
    build_filter_index,
    queries_both_directions,
)
from hoplink.model import KgcModel, eval_neighborhood_seed
from hoplink.text import build_vocab

from conftest import dozen_graph


def make_model(kg, **overrides) -> KgcModel:
    base = dict(dim=12, heads=2, k=2, seed=9, eval_chunk=16)
    base.update(overrides)
    return KgcModel(RunConfig(**base), build_vocab(kg))


class TestFilteredRank:
    def test_filtering_removes_a_better_known_tail(self):
        # gold scores 0.9; the only better candidate is itself a known tail
        scores = np.array([0.95, 0.9, 0.8, 0.7])
        assert filtered_rank(scores, gold=1, known_tails={0, 1}) == 1

    def test_unfiltered_rank_counts_better_scores(self):
        scores = np.array([0.95, 0.9, 0.8, 0.7])
        assert filtered_rank(scores, gold=1, known_tails={1}) == 2

    def test_gold_loses_every_tie(self):
        scores = np.array([0.5, 0.9, 0.9])
        assert filtered_rank(scores, gold=1, known_tails={1}) == 2

    def test_all_equal_scores_rank_last(self):
        scores = np.full(6, 0.125)
        assert filtered_rank(scores, gold=2, known_tails={2}) == 6

    def test_filtering_other_golds_never_hurts(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.normal(size=12)
            gold = int(rng.integers(12))
            others = set(map(int, rng.choice(12, size=4, replace=False)))
            plain = filtered_rank(scores, gold, {gold})
            filtered = filtered_rank(scores, gold, others | {gold})
            assert filtered <= plain


class TestRankingMetrics:
    def test_hand_computed_averages(self):
        m = RankingMetrics.from_ranks([1, 2, 4])
        assert m.mrr == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert m.hits1 == pytest.approx(1 / 3)
        assert m.hits3 == pytest.approx(2 / 3)
        assert m.hits10 == pytest.approx(1.0)
        assert m.count == 3

    def test_empty_rank_list(self):
        m = RankingMetrics.from_ranks([])
        assert m == RankingMetrics(0.0, 0.0, 0.0, 0.0, 0)

    def test_hits_are_monotone_and_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            ranks = list(rng.integers(1, 30, size=rng.integers(1, 40)))
            m = RankingMetrics.from_ranks(ranks)
            assert 0.0 <= m.hits1 <= m.hits3 <= m.hits10 <= 1.0
            assert 0.0 < m.mrr <= 1.0
            assert m.hits1 <= m.mrr

    def test_as_dict_keys(self):
        d = RankingMetrics.from_ranks([1]).as_dict()
        assert set(d) == {"mrr", "hits@1", "hits@3", "hits@10", "count"}


def brute_force_ranks(model, kg, split):
    """Re-derive every rank with per-entity loops and explicit cosines."""
    tails = []
    for rec in kg.entities:
        with ad.no_grad():
            tails.append(model.text.encode_tail(rec.name, rec.description).values)
    known = {}
    for triples in kg.splits.values():
        for tr in triples:
            known.setdefault((tr.head, tr.relation), set()).add(tr.tail)
            inv = tr.relation + kg.num_base_relations
            known.setdefault((tr.tail, inv), set()).add(tr.head)

    ranks = []
    for i, q in enumerate(queries_both_directions(kg, split)):
        if kg.query_is_unseen(q.head, q.relation):
            ranks.append(kg.num_entities)
            continue
        seed = eval_neighborhood_seed(model.config.seed, split, i)
        with ad.no_grad():
            vec = model.encode_queries(kg, [(q.head, q.relation)],
                                       [seed]).e_hr.values[0]
        vn = np.linalg.norm(vec)
        scores = []
        for t in range(kg.num_entities):
            tn = np.linalg.norm(tails[t])
            if vn < 1e-12 or tn < 1e-12:
                scores.append(0.0)
            else:
                scores.append(float(vec @ tails[t]) / (vn * tn))
        gold_score = scores[q.tail]
        rank = 1
        for t in range(kg.num_entities):
            if t == q.tail or t in known[(q.head, q.relation)]:
                continue
            if scores[t] >= gold_score:
                rank += 1
        ranks.append(rank)
    return ranks


class TestEvaluate:
    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_matches_brute_force_recomputation(self, dozen_kg, split):
        model = make_model(dozen_kg)
        expected = RankingMetrics.from_ranks(
            brute_force_ranks(model, dozen_kg, split))
        got = evaluate(model, dozen_kg, split)
        assert got == expected

    def test_brute_force_match_survives_other_encoders(self, dozen_kg):
        for encoder in ("gcn", "sage"):
            model = make_model(dozen_kg, encoder=encoder)
            expected = RankingMetrics.from_ranks(
                brute_force_ranks(model, dozen_kg, "test"))
            assert evaluate(model, dozen_kg, "test") == expected

    def test_counts_both_query_directions(self, dozen_kg):
        model = make_model(dozen_kg)
        assert evaluate(model, dozen_kg, "test").count == 6
        assert evaluate(model, dozen_kg, "valid").count == 4

    def test_is_deterministic_and_mutates_nothing(self, dozen_kg):
        model = make_model(dozen_kg)
        before = {k: v.tobytes() for k, v in model.state_arrays().items()}
        first = evaluate(model, dozen_kg, "test")
        second = evaluate(model, dozen_kg, "test")
        after = {k: v.tobytes() for k, v in model.state_arrays().items()}
        assert first == second
        assert before == after

    def test_reads_the_filter_index_without_rebuilding_it(self, dozen_kg):
        model = make_model(dozen_kg)
        index = dozen_kg.filter_index
        snapshot = {k: set(v) for k, v in index.items()}
        evaluate(model, dozen_kg, "test")
        assert dozen_kg.filter_index is index
        assert index == snapshot == build_filter_index(dozen_kg)

    def test_max_queries_truncates(self, dozen_kg):
        model = make_model(dozen_kg)
        assert evaluate(model, dozen_kg, "test", max_queries=2).count == 2

    def test_empty_split_gives_zero_metrics(self):
        kg = KnowledgeGraph.build(
            {"train": [("a", "r", "b"), ("b", "r", "a")], "valid": [],
             "test": []},
            {"a": ("a", "left half"), "b": ("b", "right half")})
        add_inverse_relations(kg)
        model = make_model(kg, k=1)
        assert evaluate(model, kg, "valid").count == 0

    def test_unseen_head_takes_the_worst_rank(self):
        entity_text = {"a": ("a", "first"), "b": ("b", "second"),
                       "ghost": ("ghost", "unseen at train time")}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TransductiveWarning)
            kg = KnowledgeGraph.build(
                {"train": [("a", "r", "b"), ("b", "r", "a")],
                 "valid": [("ghost", "r", "a")], "test": []}, entity_text)
        add_inverse_relations(kg)
        model = make_model(kg, k=1)
        ghost = kg.entity_ids["ghost"]
        tail_rows, _ = model.tail_matrix(kg)
        index = build_filter_index(kg)
        rank = rank_query(model, kg, Triple(ghost, 0, kg.entity_ids["a"]),
                          tail_rows, index,
                          eval_neighborhood_seed(9, "valid", 0))
        assert rank == kg.num_entities
