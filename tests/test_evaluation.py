import copy
import warnings

import numpy as np
import pytest

import hoplink.autodiff as ad
from hoplink.config import RunConfig
from hoplink.evaluation import (
    RankingMetrics,
    evaluate,
    filtered_rank,
    query_scores,
)
from hoplink.kg import (
    KnowledgeGraph,
    TransductiveWarning,
    Triple,
    build_filter_index,
    query_columns,
)
from hoplink.model import KgcModel, eval_neighborhood_seed
from hoplink.text import build_vocab

from conftest import dozen_graph, encode_tails


def make_model(kg, **overrides) -> KgcModel:
    base = dict(dim=12, heads=2, k=2, seed=9)
    base.update(overrides)
    return KgcModel(RunConfig(**base), build_vocab(kg))


def flat_tails(known):
    """Per-row tail collections as filtered_rank's (tails, counts) layout."""
    tails = [int(t) for row in known for t in sorted(row)]
    return np.array(tails, dtype=np.int64), [len(row) for row in known]


def rank_one(scores, gold, known_tails):
    """filtered_rank of a single query, as a one-row batch."""
    return filtered_rank(np.asarray(scores)[None, :], [gold],
                         *flat_tails([known_tails]))[0]


class TestFilteredRank:
    def test_filtering_removes_a_better_known_tail(self):
        # gold scores 0.9; the only better candidate is itself a known tail
        scores = np.array([0.95, 0.9, 0.8, 0.7])
        assert rank_one(scores, gold=1, known_tails={0, 1}) == 1

    def test_unfiltered_rank_counts_better_scores(self):
        scores = np.array([0.95, 0.9, 0.8, 0.7])
        assert rank_one(scores, gold=1, known_tails={1}) == 2

    def test_gold_loses_every_tie(self):
        scores = np.array([0.5, 0.9, 0.9])
        assert rank_one(scores, gold=1, known_tails={1}) == 2

    def test_all_equal_scores_rank_last(self):
        scores = np.full(6, 0.125)
        assert rank_one(scores, gold=2, known_tails={2}) == 6

    def test_filtering_other_golds_never_hurts(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.normal(size=12)
            gold = int(rng.integers(12))
            others = set(map(int, rng.choice(12, size=4, replace=False)))
            plain = rank_one(scores, gold, {gold})
            filtered = rank_one(scores, gold, others | {gold})
            assert filtered <= plain

    def test_rows_rank_independently(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(7, 12))
        scores[3, :] = 0.5  # a row of ties, like a zero-norm query's
        golds = list(map(int, rng.integers(12, size=7)))
        known = [set(map(int, rng.choice(12, size=int(rng.integers(0, 5)),
                                         replace=False))) for _ in range(7)]
        known[2] = ()  # a query with no filter entry at all
        batched = filtered_rank(scores, golds, *flat_tails(known))
        assert batched.tolist() == [rank_one(row, g, k) for row, g, k
                                    in zip(scores, golds, known)]
        assert batched[3] == 12 - len(set(known[3]) - {golds[3]})


class TestQueryScores:
    def test_rows_are_cosines_and_a_zero_row_scores_zero(self):
        rng = np.random.default_rng(2)
        tails = rng.normal(size=(5, 4))
        tails /= np.linalg.norm(tails, axis=1, keepdims=True)
        tails[1] = 0.0  # a textless entity
        queries = rng.normal(size=(3, 4))
        queries[1] = 1e-14  # norm below 1e-12: scored as a zero query
        scores = query_scores(queries, tails)
        assert scores.shape == (3, 5)
        np.testing.assert_array_equal(scores[1], np.zeros(5))
        np.testing.assert_array_equal(scores[:, 1], np.zeros(3))
        for i in (0, 2):
            q = queries[i] / np.linalg.norm(queries[i])
            np.testing.assert_allclose(scores[i], tails @ q, atol=1e-15)


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

    def test_rank_array_gives_the_list_metrics(self):
        ranks = np.array([3, 1, 12, 2, 7], dtype=np.int64)
        assert (RankingMetrics.from_ranks(ranks)
                == RankingMetrics.from_ranks(ranks.tolist()))
        assert type(RankingMetrics.from_ranks(ranks).count) is int
        assert (RankingMetrics.from_ranks(np.empty(0, np.int64))
                == RankingMetrics(0.0, 0.0, 0.0, 0.0, 0))

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
            tails.append(encode_tails(
                model.text, [(rec.name, rec.description)]).values[0])
    known = {}
    for triples in kg.splits.values():
        for tr in triples:
            known.setdefault((tr.head, tr.relation), set()).add(tr.tail)
            inv = tr.relation + kg.num_base_relations
            known.setdefault((tr.tail, inv), set()).add(tr.head)

    # forward then inverse query of each triple, and the unseen rule, built
    # here rather than taken from query_columns or query_is_unseen
    queries = []
    for tr in kg.splits[split]:
        queries.append(tr)
        queries.append(Triple(tr.tail, tr.relation + kg.num_base_relations,
                              tr.head))
    ranks = []
    for i, q in enumerate(queries):
        if (kg.entity_unseen[q.head]
                or kg.relation_unseen[q.relation % kg.num_base_relations]):
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

    def test_reads_the_filter_index_without_rebuilding_it(self, dozen_kg,
                                                          monkeypatch):
        model = make_model(dozen_kg)
        index = dozen_kg.filter_index
        snapshot = index.copy()

        def rebuild(*_args):
            raise AssertionError("evaluate rebuilt the filter index")

        monkeypatch.setattr("hoplink.kg.build_filter_index", rebuild)
        monkeypatch.setattr("hoplink.evaluation.build_filter_index", rebuild)
        evaluate(model, dozen_kg, "test")
        monkeypatch.undo()
        assert dozen_kg.filter_index is index
        assert not index.flags.writeable
        assert np.array_equal(index, snapshot)
        heads, relations, tails = np.array(
            [tr for split in dozen_kg.splits.values() for tr in split]).T
        fresh = copy.copy(dozen_kg)
        assert np.array_equal(
            build_filter_index(fresh, heads, relations, tails), snapshot)

    def test_max_queries_truncates(self, dozen_kg):
        model = make_model(dozen_kg)
        assert evaluate(model, dozen_kg, "test", max_queries=2).count == 2

    def test_empty_split_gives_zero_metrics(self):
        kg = KnowledgeGraph.build(
            {"train": [("a", "r", "b"), ("b", "r", "a")], "valid": [],
             "test": []},
            {"a": ("a", "left half"), "b": ("b", "right half")})
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
        model = make_model(kg, k=1)
        ghost = kg.entity_ids["ghost"]
        assert query_columns(kg, "valid")[0].tolist() == [
            ghost, 0, kg.entity_ids["a"]]
        metrics = evaluate(model, kg, "valid", max_queries=1)
        assert metrics.count == 1
        assert metrics.mrr == 1.0 / kg.num_entities


def record_encode_batches(monkeypatch) -> list[int]:
    """Patch KgcModel.encode_queries to log each call's query count."""
    sizes: list[int] = []
    encode = KgcModel.encode_queries

    def counting(self, kg, queries, seeds, *entities):
        sizes.append(len(queries))
        return encode(self, kg, queries, seeds, *entities)

    monkeypatch.setattr(KgcModel, "encode_queries", counting)
    return sizes


class TestBatchedEvaluate:
    """The chunked path against the brute-force oracle: partial last chunks,
    unseen queries inside a chunk, textless ties, every encoder."""

    @pytest.mark.parametrize("batch_size", [2, 3])
    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_chunks_match_brute_force(self, dozen_kg, split, batch_size):
        # a cap of 1 per hop makes every neighborhood a seeded sample, so a
        # seed taken from the wrong query index moves ranks
        model = make_model(dozen_kg, batch_size=batch_size, cap_per_hop=1)
        expected = RankingMetrics.from_ranks(
            brute_force_ranks(model, dozen_kg, split))
        assert evaluate(model, dozen_kg, split) == expected

    @pytest.mark.parametrize("encoder", ["gcn", "sage"])
    def test_other_encoders_match_in_chunks(self, dozen_kg, encoder):
        model = make_model(dozen_kg, encoder=encoder, batch_size=3)
        expected = RankingMetrics.from_ranks(
            brute_force_ranks(model, dozen_kg, "train"))
        assert evaluate(model, dozen_kg, "train") == expected

    def test_unseen_query_mid_chunk_and_textless_ties(self, monkeypatch):
        entity_text = {"a": ("anchor", "first stone"), "b": ("birch", "tree"),
                       "c": ("cedar", "tall tree"), "mute": ("", ""),
                       "ghost": ("ghost", "unseen at train time")}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TransductiveWarning)
            kg = KnowledgeGraph.build(
                {"train": [("a", "r", "b"), ("b", "r", "c"),
                           ("c", "s", "mute"), ("mute", "r", "a")],
                 "valid": [("a", "s", "c"), ("ghost", "r", "b"),
                           ("b", "s", "mute")], "test": []}, entity_text)
        model = make_model(kg, k=1, batch_size=5)
        rows = query_columns(kg, "valid")
        unseen = np.flatnonzero(kg.query_is_unseen(rows[:, 0], rows[:, 1]))
        assert unseen.tolist() == [2]  # between the seen rows of the one chunk
        _, zero = model.tail_matrix(kg)
        assert zero[kg.entity_ids["mute"]]
        ranks = brute_force_ranks(model, kg, "valid")
        assert ranks[2] == kg.num_entities
        sizes = record_encode_batches(monkeypatch)
        assert evaluate(model, kg, "valid") == RankingMetrics.from_ranks(ranks)
        assert sizes == [5]  # the seen queries only

    @pytest.mark.parametrize("batch_size", [2, 3, 64])
    def test_one_encode_pass_per_chunk_of_seen_queries(
            self, dozen_kg, monkeypatch, batch_size):
        model = make_model(dozen_kg, batch_size=batch_size)
        sizes = record_encode_batches(monkeypatch)
        evaluate(model, dozen_kg, "train")
        seen = 40  # 20 train triples, both directions, none unseen
        assert len(sizes) == -(-seen // batch_size)
        assert sum(sizes) == seen
        assert max(sizes) <= batch_size
