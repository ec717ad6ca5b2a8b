import math
import warnings

import numpy as np
import pytest

import hoplink.autodiff as ad
import hoplink.model as model_module
from hoplink.autodiff import ShapeError
from hoplink.config import RunConfig
from hoplink.kg import (
    KnowledgeGraph,
    TransductiveWarning,
    queries_both_directions,
    query_columns,
)
from hoplink.model import (
    LOG_MAX_INV_TAU,
    KgcModel,
    eval_neighborhood_seed,
    load_model,
    save_model,
)
from hoplink.synth import generate_synthetic_kg
from hoplink.text import build_vocab

from conftest import chain_graph, dozen_graph, encode_heads


def make_model(kg, **overrides) -> KgcModel:
    base = dict(dim=12, heads=2, k=2, seed=5)
    base.update(overrides)
    config = RunConfig(**base)
    tokenizer = build_vocab(kg)
    return KgcModel(config, tokenizer)


class TestParameters:
    def test_lambda_below_one_builds_the_decoder(self, chain_kg):
        model = make_model(chain_kg, lambda_weight=0.2)
        names = model.named_parameters()
        assert model.vgae is not None
        assert any(n.startswith("vgae.") for n in names)

    def test_lambda_one_omits_the_decoder_entirely(self, chain_kg):
        model = make_model(chain_kg, lambda_weight=1.0)
        assert model.vgae is None
        assert not any(n.startswith("vgae.")
                       for n in model.named_parameters())

    def test_prefixes_cover_every_component(self, chain_kg):
        names = set(make_model(chain_kg).named_parameters())
        assert any(n.startswith("text.") for n in names)
        assert any(n.startswith("gnn.") for n in names)
        assert "log_inv_tau" in names

    def test_fixed_temperature_has_no_parameter(self, chain_kg):
        model = make_model(chain_kg, learn_tau=False, tau=0.1)
        assert model.log_inv_tau is None
        assert "log_inv_tau" not in model.named_parameters()
        assert model.temperature_scale() == pytest.approx(10.0)
        assert model.current_tau() == pytest.approx(0.1)


class TestTemperature:
    def test_initial_value_matches_config_tau(self, chain_kg):
        model = make_model(chain_kg, tau=0.05)
        scale = model.temperature_scale()
        assert scale.item() == pytest.approx(20.0, rel=1e-12)
        assert model.current_tau() == pytest.approx(0.05)

    def test_scale_is_clamped_to_the_tau_range(self, chain_kg):
        model = make_model(chain_kg)
        model.log_inv_tau.values[:] = 50.0  # way past tau = 0.001
        assert model.temperature_scale().item() == pytest.approx(1000.0)
        assert model.current_tau() == pytest.approx(0.001)
        model.log_inv_tau.values[:] = -3.0  # way past tau = 1
        assert model.temperature_scale().item() == pytest.approx(1.0)
        assert model.current_tau() == pytest.approx(1.0)

    def test_clamp_bound_constant(self):
        assert LOG_MAX_INV_TAU == pytest.approx(math.log(1000.0))


class TestQueryEncoding:
    def test_batched_matches_per_query(self, chain_kg):
        model = make_model(chain_kg)
        pairs = [(0, 0), (2, 1), (4, 0), (7, 2)]
        seeds = [eval_neighborhood_seed(5, "t", i) for i in range(len(pairs))]
        batch = model.encode_queries(chain_kg, pairs, seeds)
        assert batch.e_hr.shape == (4, 12)
        for i, ((h, r), seed) in enumerate(zip(pairs, seeds)):
            single = model.encode_queries(chain_kg, [(h, r)], [seed])
            np.testing.assert_allclose(batch.e_hr.values[i],
                                       single.e_hr.values[0], atol=1e-12)

    @pytest.mark.parametrize("encoder", ["gat", "gcn", "sage"])
    def test_eval_sized_batch_rows_match_single_queries(self, encoder):
        # evaluation encodes a chunk of queries at once, at least batch_size
        # of them (see evaluate), and must rank as if each were encoded
        # alone; the rows agree to rounding, not bitwise
        kg = dozen_graph()
        model = make_model(kg, encoder=encoder)
        queries = queries_both_directions(kg, "train")
        pairs = [(q.head, q.relation) for q in queries]
        seeds = [eval_neighborhood_seed(5, "train", i)
                 for i in range(len(queries))]
        with ad.no_grad():
            batch = model.encode_queries(kg, pairs, seeds).e_hr.values
            single = np.vstack([
                model.encode_queries(kg, [pair], [seed]).e_hr.values
                for pair, seed in zip(pairs, seeds)])
        assert batch.shape == (40, 12)
        assert np.max(np.abs(batch - single)) <= 1e-12

    @pytest.mark.parametrize("encoder, heads, k, dim", [
        ("gat", 1, 1, 16), ("gat", 2, 1, 32), ("gat", 3, 1, 64),
        ("gat", 1, 2, 24), ("gat", 2, 2, 32), ("gat", 3, 2, 48),
        ("gat", 5, 1, 64), ("gat", 5, 2, 40), ("gat", 6, 2, 48),
        ("gcn", 1, 2, 32), ("sage", 1, 2, 32)])
    def test_a_query_vector_does_not_depend_on_its_chunk(self, encoder, heads,
                                                         k, dim):
        # a query's vector is the same bit for bit in overlapping, shifted
        # chunks of 2 to 60 queries, encoded as in training or from an
        # evaluation's entity table (a one-query chunk takes BLAS's one-row
        # kernel for its final projection, so it is left out)
        kg = KnowledgeGraph.build(*generate_synthetic_kg(0))
        model = make_model(kg, encoder=encoder, heads=heads, k=k, dim=dim,
                           seed=4)
        rows = query_columns(kg, "train")[:60, :2]
        seeds = [eval_neighborhood_seed(3, "train", i) for i in range(len(rows))]
        with ad.no_grad():
            want = model.encode_queries(kg, rows, seeds).e_hr.values
            for entities in (None, model.entity_table(kg)):
                for size in (2, 7, 23):
                    for shift in range(0, size, max(1, size // 3)):
                        for start in range(shift, len(rows) - 1, size):
                            stop = min(start + size, len(rows))
                            got = model.encode_queries(kg, rows[start:stop],
                                                       seeds[start:stop], entities)
                            np.testing.assert_array_equal(
                                got.e_hr.values, want[start:stop],
                                err_msg=f"rows {start}-{stop - 1}")

    def test_block_layout_heads_first(self, chain_kg):
        model = make_model(chain_kg)
        pairs = [(0, 0), (3, 1)]
        batch = model.encode_queries(chain_kg, pairs, [1, 2])
        items = [(chain_kg.entities[h].name, chain_kg.entities[h].description,
                  chain_kg.relation_labels[r]) for h, r in pairs]
        H = encode_heads(model.text, items)
        for i, offset in enumerate(batch.graph.offsets):
            np.testing.assert_array_equal(batch.X.values[offset], H.values[i])

    def test_neighbor_rows_use_the_tail_tower(self, chain_kg):
        model = make_model(chain_kg)
        batch = model.encode_queries(chain_kg, [(0, 0)], [1])
        sub = batch.subgraphs[0]
        expected = model.encode_entities(chain_kg, sub.nodes[1:])
        np.testing.assert_array_equal(batch.X.values[1:], expected.values)

    def test_isolated_head_still_encodes(self):
        # "ghost" appears only outside train, so its neighborhood is itself
        entity_text = {"a": ("a", "one"), "b": ("b", "two"),
                       "ghost": ("ghost", "alone")}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TransductiveWarning)
            kg = KnowledgeGraph.build(
                {"train": [("a", "r", "b")], "valid": [("ghost", "r", "a")],
                 "test": []}, entity_text)
        model = make_model(kg, k=1)
        ghost = kg.entity_ids["ghost"]
        batch = model.encode_queries(kg, [(ghost, 0)], [3])
        assert batch.subgraphs[0].num_nodes == 1
        assert batch.e_hr.shape == (1, 12)
        assert np.all(np.isfinite(batch.e_hr.values))

    def test_seed_count_must_match(self, chain_kg):
        model = make_model(chain_kg)
        with pytest.raises(ValueError, match="seed"):
            model.encode_queries(chain_kg, [(0, 0), (1, 0)], [1])

    def test_query_rows_must_be_integer_head_relation_pairs(self, chain_kg):
        # rows with a gold column must not be read as more, mis-paired queries
        model = make_model(chain_kg)
        triples = [(0, 0, 1), (1, 0, 2)]
        for queries in (np.array(triples), triples):
            # three seeds: the six numbers would also reshape to three pairs
            for seeds in ([1, 2], [1, 2, 3]):
                with pytest.raises(ShapeError, match="seeds"):
                    model.encode_queries(chain_kg, queries, seeds)
        # float ids would be truncated to other entities, not rejected
        for queries in (np.array([[0.0, 0.0], [1.0, 0.0]]), [(0.9, 0), (1, 0)]):
            with pytest.raises(ShapeError, match="ints"):
                model.encode_queries(chain_kg, queries, [1, 2])

    def test_relation_ids_must_name_a_relation_or_its_inverse(self, chain_kg):
        # -1 and -2R-3 would index relation text from the end, 2R past it
        model = make_model(chain_kg)
        count = len(chain_kg.relation_labels)
        with ad.no_grad():
            for r in (-1, count, -count - 3):
                with pytest.raises(KeyError, match=f"unknown relation id {r}"):
                    model.encode_queries(chain_kg, [(0, 0), (1, r)], [1, 2])
            want = model.encode_queries(chain_kg, [(0, count - 1)], [1]).e_hr.values
            got = model.encode_queries(chain_kg, np.array([(0, count - 1)], dtype=np.int32),
                                       [1]).e_hr.values
        np.testing.assert_array_equal(got, want)

    def test_golds_must_be_integer_entity_ids(self, chain_kg):
        # a float or bool gold would be read as another entity, not rejected
        model = make_model(chain_kg)
        with ad.no_grad():
            for golds in ([1.9], [True], np.array([1.0]), [[1]]):
                with pytest.raises(ShapeError, match="golds"):
                    model.encode_queries(chain_kg, [(0, 0)], [1], golds=golds)
            want = model.encode_queries(chain_kg, [(0, 0)], [1], golds=[1, 3])
            for dtype in (np.int32, np.uint8):
                got = model.encode_queries(chain_kg, [(0, 0)], [1],
                                           golds=np.array([1, 3], dtype=dtype))
                np.testing.assert_array_equal(got.gold.values, want.gold.values)
            assert model.encode_queries(chain_kg, [(0, 0)], [1], golds=[]).gold is None

    def test_an_array_of_rows_encodes_as_the_list_of_pairs(self, chain_kg):
        model = make_model(chain_kg)
        pairs = [(0, 0), (2, 1), (0, 1)]
        with ad.no_grad():
            rows = model.encode_queries(chain_kg, np.array(pairs, dtype=np.int64),
                                        [1, 2, 3]).e_hr.values
            listed = model.encode_queries(chain_kg, pairs, [1, 2, 3]).e_hr.values
        np.testing.assert_array_equal(rows, listed, strict=True)

    def test_gradients_flow_to_text_and_gnn(self, chain_kg):
        model = make_model(chain_kg)
        with ad.Tape():
            batch = model.encode_queries(chain_kg, [(0, 0), (2, 1)], [1, 2])
            ad.backward(ad.sum_all(batch.e_hr))
        emb = model.text.params["embeddings"].grad
        assert emb is not None and np.abs(emb).sum() > 0
        gnn_grads = [p.grad for p in model.gnn.params.values()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in gnn_grads)


class TestTailMatrix:
    def test_rows_are_unit_or_zero(self, chain_kg):
        model = make_model(chain_kg)
        rows, zero = model.tail_matrix(chain_kg)
        assert rows.shape == (chain_kg.num_entities, 12)
        norms = np.linalg.norm(rows, axis=1)
        for flag, norm in zip(zero, norms):
            assert norm == pytest.approx(0.0 if flag else 1.0, abs=1e-9)

    def test_matches_direct_entity_encoding(self, chain_kg):
        model = make_model(chain_kg)
        rows, _ = model.tail_matrix(chain_kg)
        with ad.no_grad():
            direct = model.encode_entities(
                chain_kg, list(range(chain_kg.num_entities))).values
        direct = direct / np.linalg.norm(direct, axis=1, keepdims=True)
        np.testing.assert_allclose(rows, direct, atol=1e-12)

    def test_textless_entity_is_flagged_zero(self):
        entity_text = {"a": ("anchor", "has words"), "b": ("", ""),
                       "c": ("cap", "more words")}
        kg = KnowledgeGraph.build(
            {"train": [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")],
             "valid": [], "test": []}, entity_text)
        model = make_model(kg)
        rows, zero = model.tail_matrix(kg)
        b = kg.entity_ids["b"]
        assert zero[b]
        assert np.all(rows[b] == 0.0)

    def test_a_graph_built_at_a_freed_graphs_id_gets_its_own_rows(self):
        splits, texts = generate_synthetic_kg(0)
        old = KnowledgeGraph.build(splits, texts)
        model, fresh = make_model(old), make_model(old)
        model.entity_matrix(old)
        # 20 of the synth labels on a ring, each with another one's text
        labels = list(texts)[:20]
        ring = [(labels[i], "r", labels[(i + 1) % 20]) for i in range(20)]
        fields = vars(KnowledgeGraph.build(
            {"train": ring}, {e: texts[labels[-1 - i]] for i, e in enumerate(labels)}))
        # a cache that kept only the old graph's id would let it be freed
        # here, and the next graph would take its memory and its id
        del old
        new = KnowledgeGraph(**fields)
        assert new.num_entities == 20
        np.testing.assert_array_equal(model.entity_matrix(new),
                                      fresh.entity_matrix(new))


class TestStateRoundtrip:
    def test_save_load_is_byte_exact(self, chain_kg, tmp_path):
        model = make_model(chain_kg)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        clone = load_model(path)
        s1, s2 = model.state_arrays(), clone.state_arrays()
        assert set(s1) == set(s2)
        for name in s1:
            assert s1[name].tobytes() == s2[name].tobytes(), name
        assert clone.config == model.config
        assert clone.tokenizer.token_to_id == model.tokenizer.token_to_id

    @pytest.mark.parametrize("text_mode", ["mean_pool", "transformer_lite"])
    def test_load_makes_no_random_init(self, chain_kg, tmp_path, monkeypatch,
                                       text_mode):
        # every parameter is the checkpoint's, so loading derives no init
        # generator and draws nothing
        model = make_model(chain_kg, text_mode=text_mode, lambda_weight=0.2)
        path = tmp_path / "model.ckpt"
        save_model(path, model)

        def no_init(*args):
            raise AssertionError("load_model drew a random init")

        monkeypatch.setattr(model_module, "derive_rng", no_init)
        clone = load_model(path)
        s1, s2 = model.state_arrays(), clone.state_arrays()
        assert set(s1) == set(s2) and "vgae.shared" in s2
        for name in s1:
            assert s1[name].tobytes() == s2[name].tobytes(), name

    def test_two_saves_are_identical_files(self, chain_kg, tmp_path):
        model = make_model(chain_kg)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(a, model)
        save_model(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_and_unexpected_keys_rejected(self, chain_kg):
        model = make_model(chain_kg)
        state = model.state_arrays()
        state.pop("log_inv_tau")
        with pytest.raises(ValueError, match="missing"):
            model.load_state_arrays(state)
        state = model.state_arrays()
        state["stray"] = np.zeros(3)
        with pytest.raises(ValueError, match="unexpected"):
            model.load_state_arrays(state)

    def test_shape_mismatch_rejected(self, chain_kg):
        model = make_model(chain_kg)
        state = model.state_arrays()
        state["log_inv_tau"] = np.zeros(2)
        with pytest.raises(ValueError, match="shape"):
            model.load_state_arrays(state)

    def test_loaded_model_encodes_identically(self, chain_kg, tmp_path):
        model = make_model(chain_kg)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        clone = load_model(path)
        seeds = [eval_neighborhood_seed(5, "x", 0)]
        with ad.no_grad():
            ours = model.encode_queries(chain_kg, [(0, 0)], seeds)
            theirs = clone.encode_queries(chain_kg, [(0, 0)], seeds)
        assert ours.e_hr.values.tobytes() == theirs.e_hr.values.tobytes()


class TestEvalSeeds:
    def test_depends_on_split_and_index_only(self):
        assert (eval_neighborhood_seed(5, "valid", 3)
                == eval_neighborhood_seed(5, "valid", 3))
        assert (eval_neighborhood_seed(5, "valid", 3)
                != eval_neighborhood_seed(5, "test", 3))
        assert (eval_neighborhood_seed(5, "valid", 3)
                != eval_neighborhood_seed(5, "valid", 4))
        assert (eval_neighborhood_seed(5, "valid", 3)
                != eval_neighborhood_seed(6, "valid", 3))
