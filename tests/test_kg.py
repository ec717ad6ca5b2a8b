import warnings
from collections import defaultdict

import numpy as np
import pytest

from hoplink.kg import (
    DatasetError,
    KnowledgeGraph,
    ParseError,
    TransductiveWarning,
    Triple,
    add_inverse_relations,
    build_filter_index,
    khop_neighborhood,
    load_dataset,
    load_dataset_dir,
    queries_both_directions,
    validate_counts,
)


def toy_kg(train, valid=(), test=(), texts=None):
    labels = {e for h, _, t in list(train) + list(valid) + list(test) for e in (h, t)}
    table = {e: (e, "") for e in labels}
    if texts:
        table.update(texts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransductiveWarning)
        return KnowledgeGraph.build(
            {"train": list(train), "valid": list(valid), "test": list(test)}, table)


CHAIN = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")]


class TestLoading:
    def test_roundtrip_from_files(self, tmp_path):
        (tmp_path / "train.txt").write_text("a\tr0\tb\nb\tr1\tc\n")
        (tmp_path / "valid.txt").write_text("a\tr1\tc\n")
        (tmp_path / "test.txt").write_text("b\tr0\ta\n")
        (tmp_path / "entities.txt").write_text(
            "a\talpha\tfirst letter\nb\tbeta\t\nc\tgamma\tthird letter\n")
        kg = load_dataset_dir(tmp_path)
        assert kg.num_entities == 3
        assert kg.num_base_relations == 2
        assert [len(kg.splits[s]) for s in ("train", "valid", "test")] == [2, 1, 1]
        assert kg.entities[kg.entity_ids["b"]].name == "beta"
        assert kg.entities[kg.entity_ids["b"]].description == ""

    def test_first_appearance_ids_are_deterministic(self, tmp_path):
        (tmp_path / "train.txt").write_text("z\tr\ty\ny\tr\tx\n")
        (tmp_path / "entities.txt").write_text("x\tx\t\ny\ty\t\nz\tz\t\n")
        kg1 = load_dataset_dir(tmp_path)
        kg2 = load_dataset_dir(tmp_path)
        assert kg1.entity_ids == kg2.entity_ids == {"z": 0, "y": 1, "x": 2}

    def test_malformed_triple_line_reports_line_number(self, tmp_path):
        (tmp_path / "train.txt").write_text("a\tr\tb\na r b\n")
        (tmp_path / "entities.txt").write_text("a\ta\t\nb\tb\t\n")
        with pytest.raises(ParseError, match="train.txt:2"):
            load_dataset_dir(tmp_path)

    def test_empty_train_rejected(self, tmp_path):
        (tmp_path / "train.txt").write_text("")
        (tmp_path / "entities.txt").write_text("a\ta\t\n")
        with pytest.raises(DatasetError, match="empty"):
            load_dataset_dir(tmp_path)

    def test_missing_entity_text_rejected(self, tmp_path):
        (tmp_path / "train.txt").write_text("a\tr\tb\n")
        (tmp_path / "entities.txt").write_text("a\talpha\t\n")
        with pytest.raises(DatasetError, match="'b'"):
            load_dataset_dir(tmp_path)

    def test_transductive_violation_warns_and_records(self):
        with pytest.warns(TransductiveWarning):
            kg = KnowledgeGraph.build(
                {"train": [("a", "r", "b")], "valid": [("a", "s", "c")], "test": []},
                {e: (e, "") for e in "abc"})
        assert kg.entity_ids["c"] in kg.unseen_entities
        assert kg.relation_ids["s"] in kg.unseen_relations
        assert kg.query_is_unseen(kg.entity_ids["c"], kg.relation_ids["r"])
        assert not kg.query_is_unseen(kg.entity_ids["a"], kg.relation_ids["r"])

    def test_manifest_mismatch_lists_each_diff(self):
        kg = toy_kg(CHAIN)
        diffs = validate_counts(kg, {"entities": 4, "relations": 2, "train": 3})
        assert diffs == ["relations: expected 2, found 1"]

    def test_manifest_mismatch_fails_load(self, tmp_path):
        (tmp_path / "train.txt").write_text("a\tr\tb\n")
        (tmp_path / "entities.txt").write_text("a\ta\t\nb\tb\t\n")
        with pytest.raises(DatasetError, match="entities: expected 3, found 2"):
            load_dataset({"train": tmp_path / "train.txt"},
                         tmp_path / "entities.txt", {"entities": 3})

    def test_adjacency_excludes_valid_and_test(self):
        kg = toy_kg([("a", "r", "b")], valid=[("a", "r", "c")], test=[("c", "r", "b")])
        pairs = {(h, t) for h in range(kg.num_entities) for _, t in kg.out_adj[h]}
        a, b = kg.entity_ids["a"], kg.entity_ids["b"]
        assert pairs == {(a, b)}


class TestInverseRelations:
    def test_relation_count_doubles_and_filter_gains_inverse(self):
        kg = toy_kg([("a", "r", "b")])
        add_inverse_relations(kg)
        assert kg.num_relations == 2
        a, b = kg.entity_ids["a"], kg.entity_ids["b"]
        r = kg.relation_ids["r"]
        assert kg.filter_index[(b, r + 1)] == {a}
        assert (r + 1, a) in kg.out_adj[b]
        assert kg.relation_labels[r + 1] == "inverse of r"

    def test_idempotent(self):
        kg = toy_kg(CHAIN)
        add_inverse_relations(kg)
        labels = list(kg.relation_labels)
        adj = [list(x) for x in kg.out_adj]
        add_inverse_relations(kg)
        assert kg.relation_labels == labels
        assert [list(x) for x in kg.out_adj] == adj

    def test_queries_both_directions(self):
        kg = toy_kg([("a", "r", "b"), ("b", "r", "c")])
        with pytest.raises(ValueError, match="inverse"):
            queries_both_directions(kg, "train")
        add_inverse_relations(kg)
        qs = queries_both_directions(kg, "train")
        assert len(qs) == 4
        a, b = kg.entity_ids["a"], kg.entity_ids["b"]
        r = kg.relation_ids["r"]
        assert qs[0] == Triple(a, r, b)
        assert qs[1] == Triple(b, r + kg.num_base_relations, a)


class TestFilterIndex:
    def test_two_tails_collected(self):
        kg = toy_kg([("a", "r", "b"), ("a", "r", "c")])
        a, r = kg.entity_ids["a"], kg.relation_ids["r"]
        assert kg.filter_index[(a, r)] == {kg.entity_ids["b"], kg.entity_ids["c"]}

    def test_absent_key_is_empty(self):
        kg = toy_kg([("a", "r", "b")])
        assert kg.filter_index.get((kg.entity_ids["b"], 0), set()) == set()

    def test_matches_brute_force_on_six_triples(self):
        rows = [("a", "r", "b"), ("a", "r", "c"), ("b", "s", "a"),
                ("c", "s", "a"), ("c", "r", "b"), ("a", "s", "c")]
        kg = toy_kg(rows[:3], valid=rows[3:5], test=rows[5:])
        expected = defaultdict(set)
        for split in kg.splits.values():
            for tr in split:
                expected[(tr.head, tr.relation)].add(tr.tail)
        assert build_filter_index(kg) == dict(expected)

    def test_every_split_triple_is_covered(self):
        kg = toy_kg(CHAIN, valid=[("a", "r", "c")], test=[("d", "r", "a")])
        add_inverse_relations(kg)
        for split in kg.splits.values():
            for tr in split:
                assert tr.tail in kg.filter_index[(tr.head, tr.relation)]
                inv = tr.relation + kg.num_base_relations
                assert tr.head in kg.filter_index[(tr.tail, inv)]


def bfs_oracle(id_triples, head, k):
    und = defaultdict(set)
    for h, _, t in id_triples:
        und[h].add(t)
        und[t].add(h)
    dist = {head: 0}
    frontier = [head]
    for hop in range(1, k + 1):
        nxt = sorted({n for f in frontier for n in und[f]} - dist.keys())
        for n in nxt:
            dist[n] = hop
        frontier = nxt
    return dist


class TestKhopNeighborhood:
    def test_chain_two_hops(self):
        kg = toy_kg(CHAIN)
        sub = khop_neighborhood(kg, kg.entity_ids["a"], k=2)
        names = {kg.entity_labels[e] for e in sub.nodes}
        assert names == {"a", "b", "c"}
        assert sub.nodes[0] == kg.entity_ids["a"]
        idx = {kg.entity_labels[e]: i for i, e in enumerate(sub.nodes)}
        expected = np.zeros((3, 3))
        expected[idx["a"], idx["b"]] = 1
        expected[idx["b"], idx["c"]] = 1
        np.testing.assert_array_equal(sub.arrows, np.argwhere(expected))
        assert not sub.truncated

    def test_isolated_node(self):
        kg = toy_kg([("a", "r", "b")], valid=[("c", "r", "a")])
        sub = khop_neighborhood(kg, kg.entity_ids["c"], k=3)
        assert sub.nodes == [kg.entity_ids["c"]]
        assert sub.arrows.shape == (0, 2)

    def test_star_truncates_at_cap(self):
        kg = toy_kg([("hub", "r", f"leaf{i}") for i in range(100)])
        sub = khop_neighborhood(kg, kg.entity_ids["hub"], k=1, cap_per_hop=32, seed=5)
        assert sub.num_nodes == 33
        assert sub.truncated
        assert (sub.hop_of[1:] == 1).all()

    def test_seeded_sampling_is_deterministic(self):
        kg = toy_kg([("hub", "r", f"leaf{i}") for i in range(100)])
        h = kg.entity_ids["hub"]
        s1 = khop_neighborhood(kg, h, k=1, cap_per_hop=8, seed=3)
        s2 = khop_neighborhood(kg, h, k=1, cap_per_hop=8, seed=3)
        s3 = khop_neighborhood(kg, h, k=1, cap_per_hop=8, seed=4)
        assert s1.nodes == s2.nodes
        assert s1.nodes != s3.nodes

    def test_inverse_relations_add_no_arrows(self):
        kg = toy_kg([("a", "r", "b")])
        add_inverse_relations(kg)
        sub = khop_neighborhood(kg, kg.entity_ids["a"], k=1)
        assert sub.num_nodes == 2
        np.testing.assert_array_equal(sub.arrows, [[0, 1]])

    def test_unknown_head_and_bad_args(self):
        kg = toy_kg(CHAIN)
        with pytest.raises(KeyError):
            khop_neighborhood(kg, 99, k=1)
        with pytest.raises(ValueError):
            khop_neighborhood(kg, 0, k=0)
        with pytest.raises(ValueError):
            khop_neighborhood(kg, 0, k=1, cap_per_hop=0)

    def test_incoming_edges_discovered(self):
        kg = toy_kg([("b", "r", "a"), ("c", "r", "b")])
        sub = khop_neighborhood(kg, kg.entity_ids["a"], k=2)
        assert {kg.entity_labels[e] for e in sub.nodes} == {"a", "b", "c"}

    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(3, 51))
            m = int(rng.integers(n, 3 * n))
            rels = int(rng.integers(1, 5))
            rows = []
            for _ in range(m):
                h, t = rng.integers(0, n, size=2)
                rows.append((f"e{h}", f"r{rng.integers(0, rels)}", f"e{t}"))
            kg = toy_kg(rows)
            id_triples = [(tr.head, tr.relation, tr.tail) for tr in kg.splits["train"]]
            head = int(rng.integers(0, kg.num_entities))
            k = int(rng.integers(1, 4))
            sub = khop_neighborhood(kg, head, k=k, cap_per_hop=10_000, seed=trial)

            dist = bfs_oracle(id_triples, head, k)
            assert set(sub.nodes) == set(dist)
            assert not sub.truncated
            assert len(sub.nodes) == len(set(sub.nodes))
            for node, hop in zip(sub.nodes, sub.hop_of):
                assert dist[node] == hop

            # each linked pair once, in row-major (i, j) order
            directed = {(h, t) for h, _, t in id_triples}
            expected = [[i, j] for i, u in enumerate(sub.nodes)
                        for j, v in enumerate(sub.nodes) if (u, v) in directed]
            assert sub.arrows.tolist() == expected

    def test_one_hop_equals_neighbor_union(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(3, 30))
            rows = [(f"e{rng.integers(0, n)}", "r", f"e{rng.integers(0, n)}")
                    for _ in range(2 * n)]
            kg = toy_kg(rows)
            head = int(rng.integers(0, kg.num_entities))
            sub = khop_neighborhood(kg, head, k=1, cap_per_hop=10_000)
            expected = kg.undirected_neighbors(head) - {head}
            assert set(sub.nodes) - {head} == expected
