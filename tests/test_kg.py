import warnings
from collections import defaultdict
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hoplink.model as model_module
from hoplink.config import RunConfig
from hoplink.gnn import GraphBatch
from hoplink.kg import (
    DatasetError,
    KnowledgeGraph,
    ParseError,
    TransductiveWarning,
    Triple,
    add_inverse_relations,
    build_filter_index,
    combine_adjacency,
    dataset_counts,
    khop_neighborhood,
    known_tails,
    load_dataset_dir,
    queries_both_directions,
    query_columns,
    subgraph_edges,
    validate_counts,
)
from hoplink.model import save_model
from hoplink.synth import generate_synthetic_kg
from hoplink.text import token_table
from hoplink.training import Trainer

from conftest import reference_arrows


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


def tails_of(kg, head, relation) -> set[int]:
    """The filter index's known tails of one (head, relation) query."""
    tails, counts = known_tails(kg, [head], [relation])
    assert counts.tolist() == [len(tails)]
    return set(tails.tolist())


def id_columns(kg):
    """(heads, relations, tails) id arrays of every split's triples."""
    return np.array([tr for split in kg.splits.values() for tr in split],
                    dtype=np.int64).reshape(-1, 3).T


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
        assert kg.entity_unseen[kg.entity_ids["c"]]
        assert kg.relation_unseen[kg.relation_ids["s"]]
        assert kg.query_is_unseen(kg.entity_ids["c"], kg.relation_ids["r"])
        assert not kg.query_is_unseen(kg.entity_ids["a"], kg.relation_ids["r"])

    def test_graphs_and_indexes_compare_by_identity(self):
        # their fields are numpy arrays, whose == cannot give one truth value
        kg_a, kg_b = (KnowledgeGraph.build(*generate_synthetic_kg(0))
                      for _ in range(2))
        assert kg_a == kg_a and kg_a != kg_b
        index_a, index_b = kg_a.neighbor_index, kg_b.neighbor_index
        assert index_a == index_a and index_a != index_b
        assert len({kg_a, kg_b, index_a, index_b, index_a}) == 4

    def test_unseen_sets_match_the_train_split(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, rels = int(rng.integers(2, 12)), int(rng.integers(1, 4))
            split = [[(f"e{rng.integers(0, n)}", f"r{rng.integers(0, rels)}",
                       f"e{rng.integers(0, n)}") for _ in range(size)]
                     for size in rng.integers([1, 0, 0], [2 * n, n, n])]
            kg = toy_kg(*split)
            train = kg.splits["train"]
            ends = {tr.head for tr in train} | {tr.tail for tr in train}
            assert (set(np.flatnonzero(kg.entity_unseen).tolist())
                    == set(range(kg.num_entities)) - ends)
            assert (set(np.flatnonzero(kg.relation_unseen).tolist())
                    == (set(range(kg.num_base_relations))
                        - {tr.relation for tr in train}))

    def test_manifest_mismatch_lists_each_diff(self):
        kg = toy_kg(CHAIN)
        diffs = validate_counts(kg, {"entities": 4, "relations": 2, "train": 3})
        assert diffs == ["relations: expected 2, found 1"]

    def test_dataset_counts_in_manifest_order(self):
        kg = toy_kg(CHAIN, valid=[("a", "s", "d")])
        assert list(dataset_counts(kg).items()) == [
            ("entities", 4), ("relations", 2), ("train", 3), ("valid", 1),
            ("test", 0)]

    def test_adjacency_excludes_valid_and_test(self):
        kg = toy_kg([("a", "r", "b")], valid=[("a", "r", "c")], test=[("c", "r", "b")])
        index = kg.neighbor_index
        heads = np.repeat(np.arange(kg.num_entities), np.diff(index.out_indptr))
        pairs = set(zip(heads.tolist(), index.out_tails.tolist()))
        a, b = kg.entity_ids["a"], kg.entity_ids["b"]
        assert pairs == {(a, b)}
        assert kg.degree(kg.entity_ids["c"]) == 0

    def test_degree_counts_distinct_train_edges_both_ways(self):
        kg = toy_kg([("a", "r", "b"), ("a", "r", "b"), ("a", "s", "b"),
                     ("c", "r", "a"), ("c", "r", "c")], valid=[("a", "r", "c")])
        a, b, c = (kg.entity_ids[e] for e in "abc")
        expected = {a: 3, b: 2, c: 3}  # a self-loop is one edge out, one in
        assert {e: kg.degree(e) for e in (a, b, c)} == expected


class TestInverseRelations:
    def test_relation_count_doubles_and_filter_gains_inverse(self):
        kg = toy_kg([("a", "r", "b")])
        assert len(kg.relation_labels) == 2
        a, b = kg.entity_ids["a"], kg.entity_ids["b"]
        r = kg.relation_ids["r"]
        assert tails_of(kg, b, r + 1) == {a}
        assert kg.relation_labels[r + 1] == "inverse of r"

    def test_extends_the_built_filter_index_in_place(self):
        # the built index holds every split's facts and their inverses
        kg = toy_kg(CHAIN, valid=[("a", "r", "c")], test=[("d", "r", "a")])
        built = kg.filter_index.copy()
        assert np.array_equal(built, build_filter_index(kg, *id_columns(kg)))
        a, d = kg.entity_ids["a"], kg.entity_ids["d"]
        assert tails_of(kg, a, kg.relation_ids["inverse of r"]) == {d}

    def test_add_inverse_relations_returns_the_graph_as_built(self):
        # perfbench/worker.py still calls it on a built graph
        kg = toy_kg(CHAIN, valid=[("a", "s", "c")])
        table = token_table(kg)
        labels, ids = list(kg.relation_labels), dict(kg.relation_ids)
        index, filters = kg.filter_index, kg.filter_index.copy()
        assert add_inverse_relations(kg) is kg
        assert kg.relation_labels == labels == ["r", "s", "inverse of r", "inverse of s"]
        assert kg.relation_ids == ids == {label: i for i, label in enumerate(labels)}
        assert kg.filter_index is index and np.array_equal(index, filters)
        assert token_table(kg) is table and table.num_relations == 4

    def test_a_label_that_is_another_relations_inverse_is_rejected(self):
        with pytest.raises(DatasetError, match="'inverse of foo'.*'foo'"):
            toy_kg([("a", "foo", "b"), ("b", "inverse of foo", "a")])
        with pytest.raises(DatasetError, match="'inverse of foo'"):
            toy_kg([("a", "inverse of foo", "b")], valid=[("b", "foo", "a")])

    def test_queries_both_directions(self):
        kg = toy_kg([("a", "r", "b"), ("b", "r", "c")])
        qs = queries_both_directions(kg, "train")
        assert len(qs) == 4
        a, b = kg.entity_ids["a"], kg.entity_ids["b"]
        r = kg.relation_ids["r"]
        assert qs[0] == Triple(a, r, b)
        assert qs[1] == Triple(b, r + kg.num_base_relations, a)


def query_rows_oracle(kg, split):
    """Forward then inverse (head, relation, gold) row of each triple, built
    one triple at a time."""
    rows = []
    for h, r, t in kg.splits[split]:
        rows.append((h, r, t))
        rows.append((t, r + kg.num_base_relations, h))
    return rows


def unseen_oracle(kg, head, relation):
    """The scalar rule: an unseen head, or an unseen base relation."""
    base = relation
    if relation >= kg.num_base_relations:
        base -= kg.num_base_relations
    return bool(kg.entity_unseen[head] or kg.relation_unseen[base])


def unseen_head_kg():
    """Valid and test queries with heads and a relation absent from train."""
    return toy_kg(CHAIN, valid=[("a", "r", "x"), ("y", "s", "b"), ("b", "r", "c")],
                  test=[("x", "r", "y"), ("d", "r", "a")])


class TestQueryColumns:
    @pytest.mark.parametrize("make_kg", [
        lambda: KnowledgeGraph.build(*generate_synthetic_kg(0)),
        unseen_head_kg])
    def test_rows_match_the_per_triple_loop(self, make_kg):
        kg = make_kg()
        for split in ("train", "valid", "test"):
            rows = query_columns(kg, split)
            expected = query_rows_oracle(kg, split)
            assert rows.dtype == np.int64 and rows.shape == (len(expected), 3)
            assert list(map(tuple, rows.tolist())) == expected
            assert queries_both_directions(kg, split) == expected

    def test_empty_split_gives_no_rows(self):
        kg = toy_kg(CHAIN)
        assert query_columns(kg, "test").shape == (0, 3)

    def test_vectorized_unseen_matches_the_scalar_rule(self):
        kg = unseen_head_kg()
        assert kg.entity_unseen.any() and kg.relation_unseen.any()
        for split in ("train", "valid", "test"):
            rows = query_columns(kg, split)
            got = kg.query_is_unseen(rows[:, 0], rows[:, 1])
            expected = [unseen_oracle(kg, h, r) for h, r, _ in rows.tolist()]
            assert got.tolist() == expected
            assert [kg.query_is_unseen(h, r) for h, r, _ in rows.tolist()] == expected
        # every (entity, relation) pair, inverse relations included
        heads, relations = np.divmod(
            np.arange(kg.num_entities * len(kg.relation_labels)),
            len(kg.relation_labels))
        assert kg.query_is_unseen(heads, relations).tolist() == [
            unseen_oracle(kg, h, r)
            for h, r in zip(heads.tolist(), relations.tolist())]

    def test_scalar_answer_is_a_plain_bool(self):
        kg = unseen_head_kg()
        x = kg.entity_ids["x"]
        assert kg.query_is_unseen(x, 0) is True
        assert kg.query_is_unseen(kg.entity_ids["a"], 0) is False


def filter_oracle(split_rows):
    """The dict-of-sets filter built one label triple at a time, with ids
    assigned by a closure per table in first-appearance order (h, r, t)."""
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}

    def ent(label):
        return entity_ids.setdefault(label, len(entity_ids))

    def rel(label):
        return relation_ids.setdefault(label, len(relation_ids))

    ids = {name: [(ent(h), rel(r), ent(t)) for h, r, t in rows]
           for name, rows in split_rows.items()}
    index: dict[tuple[int, int], set[int]] = {}
    for triples in ids.values():
        for h, r, t in triples:
            index.setdefault((h, r), set()).add(t)
            index.setdefault((t, r + len(relation_ids)), set()).add(h)
    return entity_ids, relation_ids, ids, index


labels = st.sampled_from("abcdefg")
label_rows = st.lists(st.tuples(labels, st.sampled_from("pqr"), labels),
                      max_size=8)


class TestFilterIndex:
    def test_two_tails_collected(self):
        kg = toy_kg([("a", "r", "b"), ("a", "r", "c")])
        a, r = kg.entity_ids["a"], kg.relation_ids["r"]
        assert tails_of(kg, a, r) == {kg.entity_ids["b"], kg.entity_ids["c"]}

    def test_absent_key_is_empty(self):
        kg = toy_kg([("a", "r", "b")])
        assert tails_of(kg, kg.entity_ids["b"], 0) == set()

    def test_matches_brute_force_on_six_triples(self):
        rows = [("a", "r", "b"), ("a", "r", "c"), ("b", "s", "a"),
                ("c", "s", "a"), ("c", "r", "b"), ("a", "s", "c")]
        kg = toy_kg(rows[:3], valid=rows[3:5], test=rows[5:])
        expected = defaultdict(set)
        for split in kg.splits.values():
            for tr in split:
                expected[(tr.head, tr.relation)].add(tr.tail)
                expected[(tr.tail, tr.relation + 2)].add(tr.head)
        keys = [(h, r) for h in range(kg.num_entities) for r in range(4)]
        tails, counts = known_tails(kg, *zip(*keys))
        got = np.split(tails, np.cumsum(counts)[:-1])
        assert {key: set(row.tolist()) for key, row in zip(keys, got)} == {
            key: expected.get(key, set()) for key in keys}

    def test_every_split_triple_is_covered(self):
        kg = toy_kg(CHAIN, valid=[("a", "r", "c")], test=[("d", "r", "a")])
        for split in kg.splits.values():
            for tr in split:
                assert tr.tail in tails_of(kg, tr.head, tr.relation)
                inv = tr.relation + kg.num_base_relations
                assert tr.head in tails_of(kg, tr.tail, inv)

    @settings(max_examples=200, deadline=None)
    @given(train=label_rows.filter(bool), valid=label_rows, test=label_rows,
           probes=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 5)),
                           max_size=10))
    @example(train=[("a", "p", "a")], valid=[("a", "p", "a")],
             test=[("b", "q", "a")], probes=[(1, 0), (0, 4)])
    def test_lookup_matches_the_per_triple_oracle(self, train, valid, test, probes):
        # self-loops, repeats across splits, relations first seen in valid or
        # test, absent keys and inverse keys all come up in this space
        split_rows = {"train": train, "valid": valid, "test": test}
        kg = toy_kg(train, valid, test)
        entity_ids, relation_ids, ids, oracle = filter_oracle(split_rows)
        assert kg.entity_ids == entity_ids
        assert kg.entity_labels == list(entity_ids)
        num_rel = len(relation_ids)
        assert kg.relation_labels == (list(relation_ids)
                                      + [f"inverse of {label}" for label in relation_ids])
        assert kg.relation_ids == dict(zip(kg.relation_labels, range(2 * num_rel)))
        assert {name: [tuple(tr) for tr in kg.splits[name]] for name in ids} == ids
        keys = sorted(oracle) + [(h, r) for h, r in probes
                                 if h < kg.num_entities and r < 2 * num_rel]
        tails, counts = known_tails(kg, [h for h, _ in keys], [r for _, r in keys])
        rows = np.split(tails, np.cumsum(counts)[:-1]) if keys else []
        for key, row in zip(keys, rows):
            assert row.tolist() == sorted(oracle.get(key, ()))
        assert len(kg.filter_index) == sum(map(len, oracle.values()))


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
        np.testing.assert_array_equal(combine_adjacency(kg, [sub])[0],
                                      np.argwhere(expected))
        assert not sub.truncated

    def test_isolated_node(self):
        kg = toy_kg([("a", "r", "b")], valid=[("c", "r", "a")])
        sub = khop_neighborhood(kg, kg.entity_ids["c"], k=3)
        assert sub.nodes == [kg.entity_ids["c"]]
        assert combine_adjacency(kg, [sub])[0].shape == (0, 2)

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
        np.testing.assert_array_equal(s1.nodes, s2.nodes, strict=True)
        assert not np.array_equal(s1.nodes, s3.nodes)

    def test_inverse_relations_add_no_arrows(self):
        kg = toy_kg([("a", "r", "b")])
        sub = khop_neighborhood(kg, kg.entity_ids["a"], k=1)
        assert sub.num_nodes == 2
        np.testing.assert_array_equal(combine_adjacency(kg, [sub])[0], [[0, 1]])

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
            assert combine_adjacency(kg, [sub])[0].tolist() == expected

    def test_one_hop_equals_neighbor_union(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(3, 30))
            rows = [(f"e{rng.integers(0, n)}", "r", f"e{rng.integers(0, n)}")
                    for _ in range(2 * n)]
            kg = toy_kg(rows)
            head = int(rng.integers(0, kg.num_entities))
            sub = khop_neighborhood(kg, head, k=1, cap_per_hop=10_000)
            expected = {tr.tail for tr in kg.splits["train"] if tr.head == head}
            expected.update(tr.head for tr in kg.splits["train"] if tr.tail == head)
            assert set(sub.nodes) - {head} == expected - {head}


def set_based_khop(kg, head, k, cap_per_hop, seed):
    """Reference sampler: the set-based BFS that the CSR sampler replaced
    (neighbor sets per frontier node, one scan of each node's sorted
    out-edges), with its adjacency built from the train triples here, as an
    oracle for every output field and for ``subgraph_edges``."""
    out_adj, in_adj = defaultdict(set), defaultdict(set)
    for tr in kg.splits["train"]:
        out_adj[tr.head].add((tr.relation, tr.tail))
        in_adj[tr.tail].add((tr.relation, tr.head))
    rng = np.random.default_rng(seed)
    hop_of = {head: 0}
    order = [head]
    frontier = [head]
    truncated = False
    for hop in range(1, k + 1):
        found = set()
        for node in frontier:
            found.update(t for _, t in out_adj[node])
            found.update(h for _, h in in_adj[node])
        found.difference_update(hop_of)
        candidates = sorted(found)
        if len(candidates) > cap_per_hop:
            keep = rng.choice(len(candidates), size=cap_per_hop, replace=False)
            candidates = sorted(candidates[i] for i in keep)
            truncated = True
        for node in candidates:
            hop_of[node] = hop
            order.append(node)
        frontier = candidates
        if not frontier:
            break

    index_of = {e: i for i, e in enumerate(order)}
    edges = []
    for i, e in enumerate(order):
        for r, t in sorted(out_adj[e]):
            j = index_of.get(t)
            if j is None:
                continue
            edges.append((i, j, r))
    arrows = np.array(sorted({(i, j) for i, j, _ in edges}),
                      dtype=np.int64).reshape(-1, 2)
    hops = np.array([hop_of[e] for e in order], dtype=np.int64)
    return SimpleNamespace(nodes=order, arrows=arrows, hop_of=hops,
                           truncated=truncated, edges=edges)


def assert_same_subgraph(kg, got, want):
    for name in ("nodes", "hop_of"):
        # strict: the same shape and the int64 dtype, not only equal values
        np.testing.assert_array_equal(
            getattr(got, name), np.array(getattr(want, name), dtype=np.int64),
            strict=True)
    assert got.truncated == want.truncated
    arrows, sizes = combine_adjacency(kg, [got])
    assert sizes == [got.num_nodes]
    assert arrows.dtype == np.int64
    assert arrows.shape == want.arrows.shape
    assert arrows.tolist() == want.arrows.tolist()
    assert subgraph_edges(kg, got) == want.edges


id_rows = st.integers(1, 10).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.integers(0, n - 1)),
    min_size=1, max_size=4 * n))


class TestCsrSamplerMatchesSetOracle:
    """The CSR sampler must reproduce the set-based sampler field by field,
    including which nodes a truncating hop keeps (the same RNG draws)."""

    @staticmethod
    def graph(rows):
        # "lone" appears only in valid, so it is a head with no train edges
        return toy_kg([(f"e{h}", f"r{r}", f"e{t}") for h, r, t in rows],
                      valid=[("lone", "r0", f"e{rows[0][0]}")])

    @settings(max_examples=200, deadline=None)
    @given(rows=id_rows, pick=st.integers(0, 99), k=st.integers(1, 3),
           cap=st.integers(1, 4), seed=st.integers(0, 2**16))
    @example(rows=[(0, 0, 0), (0, 0, 1), (1, 1, 1)], pick=0, k=2, cap=1,
             seed=0)                                         # self-loops
    @example(rows=[(0, 0, 1), (1, 0, 0), (1, 0, 2), (2, 1, 1)], pick=1, k=2,
             cap=1, seed=3)                                  # reciprocal pairs
    @example(rows=[(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 2, 2), (0, 0, 3)],
             pick=0, k=3, cap=1, seed=1)                     # one pair, 3 relations
    @example(rows=[(0, 0, 1), (0, 0, 1), (0, 0, 2), (2, 1, 0)], pick=0, k=1,
             cap=1, seed=2)                                  # duplicate triple
    def test_every_field_matches(self, rows, pick, k, cap, seed):
        kg = self.graph(rows)
        for head in (pick % kg.num_entities, kg.entity_ids["lone"]):
            assert_same_subgraph(kg, khop_neighborhood(kg, head, k, cap, seed),
                                 set_based_khop(kg, head, k, cap, seed))

    def test_truncating_hops_on_random_graphs(self):
        rng = np.random.default_rng(11)
        truncated = defaultdict(int)
        for trial in range(60):
            n = int(rng.integers(10, 60))
            rows = [(int(h), int(r), int(t)) for h, r, t in zip(
                rng.integers(0, n, 3 * n), rng.integers(0, 3, 3 * n),
                rng.integers(0, n, 3 * n))]
            kg = self.graph(rows)
            for k in (1, 2, 3):
                head = int(rng.integers(0, kg.num_entities))
                got = khop_neighborhood(kg, head, k, cap_per_hop=3, seed=trial)
                assert_same_subgraph(kg, got, set_based_khop(kg, head, k, 3, trial))
                truncated[k] += got.truncated
        assert all(truncated[k] >= 20 for k in (1, 2, 3)), dict(truncated)

    def test_hub_frontiers_on_a_skewed_graph(self):
        # a few hundred entities whose popularity falls off as 1 / rank, so
        # a hop from a hub gathers frontiers far wider than the caps above
        rng = np.random.default_rng(17)
        n, size = 300, 1200
        weight = 1.0 / np.arange(1, n + 1)
        weight /= weight.sum()
        rows = [(int(h), int(r), int(t)) for h, r, t in zip(
            rng.choice(n, size, p=weight), rng.integers(0, 4, size),
            rng.choice(n, size, p=weight))]
        kg = self.graph(rows)
        heads = rng.integers(0, kg.num_entities, 200)
        widest, truncated = 0, 0
        for trial, head in enumerate(heads.tolist()):
            for k in (2, 3):
                for cap in (32, n):
                    got = khop_neighborhood(kg, head, k, cap, seed=trial)
                    assert_same_subgraph(kg, got,
                                         set_based_khop(kg, head, k, cap, trial))
                    widest = max(widest, int(np.bincount(got.hop_of).max()))
                    truncated += got.truncated
        assert widest > 100 and truncated > 100, (widest, truncated)

    def test_index_ignores_inverse_relations(self):
        kg = self.graph([(0, 0, 1), (1, 1, 2), (2, 0, 2)])
        index = kg.neighbor_index
        with pytest.raises(ValueError, match="read-only"):
            index.indices[0] = 0
        e = kg.entity_ids
        row = slice(index.out_indptr[e["e2"]], index.out_indptr[e["e2"] + 1])
        assert index.out_relations[row].tolist() == [kg.relation_ids["r0"]]
        assert index.out_tails[row].tolist() == [e["e2"]]
        row = slice(index.indptr[e["e1"]], index.indptr[e["e1"] + 1])
        assert index.indices[row].tolist() == sorted([e["e0"], e["e2"]])


def skewed_rows(seed, n=300, size=1200):
    """Train rows of n entities whose popularity falls off as 1 / rank."""
    rng = np.random.default_rng(seed)
    weight = 1.0 / np.arange(1, n + 1)
    weight /= weight.sum()
    return [(int(h), int(r), int(t)) for h, r, t in zip(
        rng.choice(n, size, p=weight), rng.integers(0, 4, size),
        rng.choice(n, size, p=weight))]


class TestArrowIndex:
    """The degree-ordered arrow rows hold each distinct directed train pair
    exactly once, relations dropped, in the row of its end that is lower by
    (undirected degree, id)."""

    @staticmethod
    def entries(kg):
        """(row, other end, incoming bit) of every arrow entry, in order."""
        index = kg.neighbor_index
        rows = np.repeat(np.arange(kg.num_entities), np.diff(index.arrow_indptr))
        return list(zip(rows.tolist(), (index.arrow_entries >> 1).tolist(),
                        (index.arrow_entries & 1).tolist()))

    @staticmethod
    def expected(kg):
        neighbors = defaultdict(set)
        pairs = {(tr.head, tr.tail) for tr in kg.splits["train"]}
        for h, t in pairs:
            neighbors[h].add(t)
            neighbors[t].add(h)

        def rank(e):
            return len(neighbors[e]), e

        return sorted((h, t, 0) if rank(h) <= rank(t) else (t, h, 1)
                      for h, t in pairs)

    @settings(max_examples=200, deadline=None)
    @given(rows=id_rows)
    # a self-loop and a two-way pair, 2 relations each
    @example(rows=[(0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 0), (1, 0, 0)])
    def test_each_pair_once_in_its_lower_ranked_row(self, rows):
        kg = TestCsrSamplerMatchesSetOracle.graph(rows)
        assert self.entries(kg) == self.expected(kg)

    def test_skewed_graph(self):
        kg = TestCsrSamplerMatchesSetOracle.graph(skewed_rows(17))
        assert self.entries(kg) == self.expected(kg)
        index = kg.neighbor_index
        # hub rows hold few entries: far fewer than the longest out-row
        assert np.diff(index.arrow_indptr).max() * 4 < np.diff(index.out_indptr).max()

    def test_a_star_leaves_the_hub_row_empty(self):
        kg = toy_kg([("hub", "r", f"leaf{i}") for i in range(10)]
                    + [("leaf0", "s", "hub")])
        index, hub = kg.neighbor_index, kg.entity_ids["hub"]
        assert index.arrow_indptr[hub + 1] == index.arrow_indptr[hub]
        assert np.diff(index.arrow_indptr).tolist().count(1) == 9
        leaf0 = kg.entity_ids["leaf0"]
        row = index.arrow_entries[index.arrow_indptr[leaf0]:index.arrow_indptr[leaf0 + 1]]
        assert row.tolist() == [2 * hub, 2 * hub + 1]

    def test_arrays_are_read_only(self):
        index = toy_kg(CHAIN).neighbor_index
        for array in (index.arrow_indptr, index.arrow_entries):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


class TestCombineAdjacency:
    """One pass over a batch's arrow rows gives the arrows of the set-based
    reference, subgraph by subgraph, stacked at their first rows."""

    @staticmethod
    def assert_matches_reference(kg, subs):
        arrows, sizes = combine_adjacency(kg, subs)
        want, want_offsets = reference_arrows(kg, subs)
        assert sizes == [sub.num_nodes for sub in subs]
        assert GraphBatch(arrows, sizes).offsets.tolist() == want_offsets
        assert arrows.dtype == np.int64 and arrows.flags.c_contiguous
        assert arrows.shape == want.shape
        assert arrows.tolist() == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(rows=id_rows, data=st.data(),
           shapes=st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, 2, 4, 32])),
                           min_size=1, max_size=3))
    @example(rows=[(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 0), (2, 0, 2)],
             data=None, shapes=[(2, 32)])
    def test_batches_match_the_reference(self, rows, data, shapes):
        # "lone" (valid only) is a head without train edges
        kg = TestCsrSamplerMatchesSetOracle.graph(rows)
        if data is None:    # every head twice, self-loops and two-way pairs
            batch = [(head, 0) for head in 2 * list(range(kg.num_entities))]
        else:
            batch = data.draw(st.lists(st.tuples(
                st.integers(0, kg.num_entities - 1), st.integers(0, 2**16)),
                min_size=1, max_size=8))
        for k, cap in shapes:
            # the memo holds some of the batch's draw-free heads already
            for head, _ in batch[::2]:
                khop_neighborhood(kg, head, k, cap, seed=7)
            self.assert_matches_reference(
                kg, [khop_neighborhood(kg, head, k, cap, seed)
                     for head, seed in batch])

    def test_hub_batches_on_a_skewed_graph(self):
        kg = TestCsrSamplerMatchesSetOracle.graph(skewed_rows(17))
        heads = np.random.default_rng(5).integers(0, kg.num_entities, 96).tolist()
        heads[1] = heads[0]
        linked = 0
        for k in (1, 2, 3):
            for cap in (4, 32, 256):
                for start in range(0, len(heads), 32):
                    subs = [khop_neighborhood(kg, head, k, cap, seed=i)
                            for i, head in enumerate(heads[start:start + 32])]
                    self.assert_matches_reference(kg, subs)
                    linked += len(combine_adjacency(kg, subs)[0])
        assert linked > 10_000, linked

    def test_zero_subgraphs_rejected(self):
        with pytest.raises(ValueError, match="zero subgraphs"):
            combine_adjacency(toy_kg(CHAIN), [])


class TestNeighborhoodMemo:
    """``khop_neighborhood`` stores each neighborhood that made no draw on
    the graph; what a call returns must not depend on what the memo holds."""

    @settings(max_examples=100, deadline=None)
    @given(rows=id_rows, data=st.data(),
           shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)),
                           min_size=1, max_size=3, unique=True),
           seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=4))
    def test_repeated_calls_match_the_set_oracle(self, rows, data, shapes, seeds):
        kg = TestCsrSamplerMatchesSetOracle.graph(rows)
        heads = data.draw(st.permutations(2 * list(range(kg.num_entities))))
        draw_free = set()
        for seed in seeds:
            for head in heads:
                for k, cap in shapes:
                    want = set_based_khop(kg, head, k, cap, seed)
                    assert_same_subgraph(
                        kg, khop_neighborhood(kg, head, k, cap, seed), want)
                    if not want.truncated:
                        draw_free.add((head, k, cap))
        assert set(kg.neighborhoods) == draw_free

    def test_only_draw_free_neighborhoods_are_stored(self):
        # a hub of 5 leaves, one of which leads on to a far node
        kg = toy_kg([("hub", "r", f"leaf{i}") for i in range(5)]
                    + [("leaf0", "r", "far")])
        hub = kg.entity_ids["hub"]
        first = khop_neighborhood(kg, hub, k=1, cap_per_hop=3, seed=1)
        again = khop_neighborhood(kg, hub, k=1, cap_per_hop=3, seed=2)
        assert first.truncated and again.truncated
        assert not np.array_equal(first.nodes, again.nodes)
        assert kg.neighborhoods == {}
        for k, cap in ((1, 5), (2, 5), (1, 8)):
            assert not khop_neighborhood(kg, hub, k, cap, seed=3).truncated
        assert set(kg.neighborhoods) == {(hub, 1, 5), (hub, 2, 5), (hub, 1, 8)}
        assert kg.neighborhoods[hub, 1, 5].num_nodes == 6
        assert kg.neighborhoods[hub, 2, 5].num_nodes == 7
        np.testing.assert_array_equal(kg.neighborhoods[hub, 1, 8].nodes,
                                      kg.neighborhoods[hub, 1, 5].nodes, strict=True)

    def test_a_hit_returns_the_stored_read_only_subgraph(self):
        kg = toy_kg(CHAIN)
        head = kg.entity_ids["a"]
        first = khop_neighborhood(kg, head, k=2)
        assert kg.neighborhoods[head, 2, 32] is first
        assert khop_neighborhood(kg, head, k=2, seed=7) is first
        # b has two neighbors, so a cap of one draws and nothing is stored
        drawn = khop_neighborhood(kg, kg.entity_ids["b"], k=1, cap_per_hop=1)
        assert drawn.truncated and len(kg.neighborhoods) == 1
        for sub in (first, drawn):
            for array in (sub.nodes, sub.hop_of):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = kg.entity_ids["d"]
            with pytest.raises(FrozenInstanceError):
                sub.nodes = np.array([kg.entity_ids["d"]])
            with pytest.raises(FrozenInstanceError):
                sub.truncated = not sub.truncated
        np.testing.assert_array_equal(first.nodes, [kg.entity_ids[e] for e in "abc"])
        np.testing.assert_array_equal(first.hop_of, [0, 1, 2])

    def test_training_bytes_do_not_depend_on_the_memo(self, monkeypatch, tmp_path):
        splits, texts = generate_synthetic_kg(0)
        config = RunConfig(dim=16, encoder="gat", heads=2, k=1, lambda_weight=0.2,
                           batch_size=64, lr=0.01, tau=0.05, epochs=3, seed=0)

        def run(name):
            lines = []
            trainer = Trainer(KnowledgeGraph.build(splits, texts), config,
                              log_fn=lines.append)
            trainer.train()
            save_model(tmp_path / name, trainer.model)
            log = "".join(f"{line}\n" for line in lines).encode()
            return log, (tmp_path / name).read_bytes(), trainer.kg

        memo_log, memo_ckpt, memo_kg = run("memo.ckpt")
        sample = model_module.khop_neighborhood
        computed = []

        def without_memo(kg, *args, **kwargs):
            kg.neighborhoods.clear()
            computed.append(1)
            return sample(kg, *args, **kwargs)

        monkeypatch.setattr(model_module, "khop_neighborhood", without_memo)
        bare_log, bare_ckpt, _ = run("bare.ckpt")
        # every synth query is draw-free at k=1: one entry per head
        assert len(memo_kg.neighborhoods) == memo_kg.num_entities < len(computed)
        assert memo_log == bare_log
        assert memo_ckpt == bare_ckpt
