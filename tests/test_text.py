from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hoplink import autodiff as ad
from hoplink import text as text_module
from hoplink.config import ConfigError, RunConfig
from hoplink.evaluation import evaluate
from hoplink.kg import KnowledgeGraph
from hoplink.model import KgcModel
from hoplink.training import Trainer
from hoplink.text import (
    PAD,
    SEP,
    UNK,
    TextEncoder,
    TextIds,
    Tokenizer,
    bag_matrix,
    build_vocab,
    save_vocab,
    token_table,
    tokenize,
)

from conftest import (
    chain_graph,
    encode_heads,
    encode_tails,
    head_ids,
    packed,
    tail_ids,
)


def make_kg(entity_texts, train=(("a", "r", "b"),)):
    table = {e: (e, "") for h, _, t in train for e in (h, t)}
    table.update(entity_texts)
    return KnowledgeGraph.build({"train": list(train)}, table)


def table_rows(tok, name, desc, relation="rel"):
    """The head row (with ``relation``) and the tail row that the graph's
    token table gives an entity with this text."""
    kg = make_kg({"a": (name, desc)}, train=[("a", relation, "b")])
    text = TextIds(token_table(kg), tok)
    head = kg.entity_ids["a"]
    return (text.heads([head], [kg.relation_ids[relation]])[0].tolist(),
            text.tails([head])[0].tolist())


def small_encoder(tokens, dim=8, seed=0, max_len=64, **cfg):
    tok = Tokenizer({name: tid for tid, name in
                     enumerate(["<pad>", "<unk>", "<sep>"] + list(tokens))},
                    max_len=max_len)
    enc = TextEncoder(tok, RunConfig(dim=dim, **cfg),
                      np.random.default_rng(seed))
    return tok, enc


class TestTokenizer:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("Latin-1, Grande_Armee!") == ["latin", "1", "grande", "armee"]

    def test_reserved_ids(self):
        assert (PAD, UNK, SEP) == (0, 1, 2)

    def test_unknown_maps_to_unk(self):
        tok, _ = small_encoder(["apple"])
        assert table_rows(tok, "apple pear", "")[1] == [3, UNK]

    def test_head_sequence_layout(self):
        tok, _ = small_encoder(["apple", "fruit", "rel"])
        seq, _ = table_rows(tok, "apple", "fruit")
        assert seq == [tok.token_to_id["apple"], tok.token_to_id["fruit"], SEP,
                       tok.token_to_id["rel"]]

    def test_truncation_cuts_description_only(self):
        tok = Tokenizer({name: tid for tid, name in enumerate(
            ["<pad>", "<unk>", "<sep>", "n1", "n2", "d", "r1", "r2"])}, max_len=6)
        seq, _ = table_rows(tok, "n1 n2", "d d d d d", "r1 r2")
        assert seq == [3, 4, 5, SEP, 6, 7]
        _, seq = table_rows(tok, "n1 n2", "d d d d d d d")
        assert len(seq) == 6
        assert seq[:2] == [3, 4]

    def test_empty_head_text_keeps_relation(self):
        tok, _ = small_encoder(["rel"])
        seq, _ = table_rows(tok, "", "")
        assert seq == [SEP, tok.token_to_id["rel"]]

    def test_empty_tail_text_gives_no_ids(self):
        tok, _ = small_encoder(["rel"])
        assert table_rows(tok, "", "")[1] == []


class TestBuildVocab:
    def test_empty_corpus_keeps_reserved_only(self):
        kg = make_kg({"a": (" ", ""), "b": (" ", "")}, train=[("a", " ", "b")])
        tok = build_vocab(kg)
        # the only words are those of the inverse relation's label
        assert kg.relation_labels == [" ", "inverse of  "]
        assert set(tok.token_to_id) == {"<pad>", "<unk>", "<sep>", "inverse", "of"}

    def test_repeated_token_counted_once_in_vocab(self):
        kg = make_kg({"a": ("aid aid grant", ""), "b": ("aid", "")})
        tok = build_vocab(kg)
        assert set(tok.token_to_id) == {"<pad>", "<unk>", "<sep>", "aid", "grant", "r",
                                        "inverse", "of"}

    def test_min_frequency_drops_rare_tokens(self):
        kg = make_kg({"a": ("aid aid grant", ""), "b": ("aid", "")})
        tok = build_vocab(kg, min_frequency=2)
        assert "grant" not in tok.token_to_id
        assert "aid" in tok.token_to_id

    def test_ids_are_sorted_after_reserved(self):
        kg = make_kg({"a": ("zebra apple", ""), "b": ("mango", "")})
        tok = build_vocab(kg)
        ordered = sorted(tok.token_to_id.items(), key=lambda kv: kv[1])
        names = [t for t, _ in ordered]
        assert names[:3] == ["<pad>", "<unk>", "<sep>"]
        assert names[3:] == sorted(names[3:])

    def test_vocab_roundtrip(self, tmp_path):
        kg = make_kg({"a": ("zebra apple", ""), "b": ("mango", "")})
        tok = build_vocab(kg)
        save_vocab(tok, tmp_path / "vocab.txt")
        lines = (tmp_path / "vocab.txt").read_text(encoding="utf-8").splitlines()
        parsed = {word: int(tid) for word, tid in (line.split("\t") for line in lines)}
        assert parsed == tok.token_to_id


# pieces of entity texts and relation labels: case, the characters whose
# lower case is longer or ASCII ("İ" -> "i" + a combining dot, the Kelvin
# sign -> "k"), ones that stay non-ASCII ("ß", "Σ"), digits, punctuation,
# an embedded newline or NUL, and words that repeat across texts
PIECES = ["cat", "Dog", "CAT", "x1", "42", "0", "İ", "\u212a", "ß", "Σ", "ΑΣ",
          "naïve", " ", "-", ".,", "\n", "\x00", "\t", "ab cd", "Kin"]
texts = st.lists(st.sampled_from(PIECES), max_size=6).map("".join)


@st.composite
def text_graphs(draw):
    """A graph of 2-7 entities whose names and descriptions (maybe empty)
    and 1-3 relation labels are drawn from ``PIECES``."""
    n = draw(st.integers(2, 7))
    labels = draw(st.lists(texts, min_size=1, max_size=3, unique=True))
    triples = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(labels),
                                      st.integers(0, n - 1)), min_size=1, max_size=10))
    entity_text = {f"e{i}": (draw(texts), draw(texts)) for i in range(n)}
    return KnowledgeGraph.build(
        {"train": [(f"e{h}", r, f"e{t}") for h, r, t in triples]}, entity_text)


def all_texts(kg):
    return ([text for rec in kg.entities for text in (rec.name, rec.description)]
            + kg.relation_labels)


class TestTokenTable:
    """The graph's token table against the per-item rules it replaced
    (``tests/conftest.py``: ``tail_ids``, ``head_ids``) and a ``Counter``."""

    @settings(max_examples=150, deadline=None)
    @given(kg=text_graphs(), max_len=st.sampled_from([1, 4, 64]),
           min_frequency=st.integers(1, 3))
    def test_rows_and_vocabulary_match_the_per_item_rules(self, kg, max_len,
                                                           min_frequency):
        tok = build_vocab(kg, min_frequency=min_frequency, max_len=max_len)
        counts = Counter(t for text in all_texts(kg) for t in tokenize(text))
        assert list(tok.token_to_id.items()) == list(build_vocab_oracle(
            counts, min_frequency).items())

        table = token_table(kg)
        assert table.lengths.tolist() == [len(tokenize(t)) for t in all_texts(kg)]
        assert [table.words[c] for c in table.codes] == [
            t for text in all_texts(kg) for t in tokenize(text) + [table.words[0]]]

        text = TextIds(table, tok)
        entities = np.arange(kg.num_entities)
        want = packed([tail_ids(tok, e.name, e.description) for e in kg.entities])
        for got, expected in zip(text.tails(entities), want):
            np.testing.assert_array_equal(got, expected)
        # every (head, relation) pair, inverse relations included
        heads, relations = np.divmod(
            np.arange(kg.num_entities * len(kg.relation_labels)), len(kg.relation_labels))
        want = packed([head_ids(tok, kg.entities[h].name, kg.entities[h].description,
                                kg.relation_labels[r])
                       for h, r in zip(heads.tolist(), relations.tolist())])
        for got, expected in zip(text.heads(heads, relations), want):
            np.testing.assert_array_equal(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(kg=text_graphs(), max_len=st.sampled_from([1, 4, 64]),
           min_frequency=st.integers(1, 3))
    def test_transformer_sequences_match_the_per_item_rules(self, kg, max_len,
                                                             min_frequency):
        config = RunConfig(dim=8, heads=2, k=1, text_mode="transformer_lite",
                           text_heads=2, max_len=max_len, min_frequency=min_frequency)
        model = KgcModel(config, build_vocab(kg, min_frequency, max_len))
        items = [(e.name, e.description) for e in kg.entities]
        with ad.no_grad():
            np.testing.assert_array_equal(
                model.entity_matrix(kg), encode_tails(model.text, items).values)
            pairs = [(h, r) for h in range(kg.num_entities)
                     for r in range(len(kg.relation_labels))]
            got = model.text.encode_heads(*model.text_ids(kg).heads(*np.array(pairs).T))
            want = encode_heads(model.text, [
                (kg.entities[h].name, kg.entities[h].description,
                 kg.relation_labels[r]) for h, r in pairs])
        np.testing.assert_array_equal(got.values, want.values)

    def test_training_and_evaluation_tokenize_nothing(self, monkeypatch):
        fills = []
        fill = text_module._fill_table
        monkeypatch.setattr(text_module, "_fill_table",
                            lambda *args: fills.append(1) or fill(*args))
        kg = chain_graph()
        trainer = Trainer(kg, RunConfig(dim=8, heads=2, k=1, batch_size=8,
                                        lambda_weight=0.5, seed=3))
        assert len(fills) == 1
        # every training step of an epoch, then its valid pass, then a test pass
        trainer.train_epochs(1)
        evaluate(trainer.model, kg, "test")
        assert len(fills) == 1

    def test_two_vocabularies_share_one_table(self):
        kg = chain_graph()
        first = KgcModel(RunConfig(dim=8, heads=2, k=1), build_vocab(kg))
        # each entity's digit is in its name and its description only, so
        # this vocabulary maps it to UNK
        second = KgcModel(RunConfig(dim=8, heads=2, k=1),
                          build_vocab(kg, min_frequency=3))
        first.entity_matrix(kg)
        second.entity_matrix(kg)
        assert first.text_ids(kg).table is second.text_ids(kg).table
        for model in (first, second):
            tok = model.tokenizer
            want = packed([tail_ids(tok, e.name, e.description) for e in kg.entities])
            got = model.text_ids(kg).tails(np.arange(kg.num_entities))
            np.testing.assert_array_equal(got[0], want[0])
        assert not np.array_equal(first.text_ids(kg).ids, second.text_ids(kg).ids)


def build_vocab_oracle(counts, min_frequency):
    token_to_id = {"<pad>": PAD, "<unk>": UNK, "<sep>": SEP}
    for tok in sorted(t for t, c in counts.items() if c >= min_frequency):
        token_to_id[tok] = len(token_to_id)
    return token_to_id


def bag_matrix_loop(ids_list, vocab_size):
    """Reference: the per-token append loop that ``bag_matrix`` replaced."""
    rows, cols, vals = [], [], []
    for i, ids in enumerate(ids_list):
        if not ids:
            continue
        weight = 1.0 / len(ids)
        for tid in ids:
            rows.append(i)
            cols.append(tid)
            vals.append(weight)
    mat = sp.csr_matrix((vals, (rows, cols)),
                        shape=(len(ids_list), vocab_size), dtype=np.float64)
    mat.sum_duplicates()
    return mat


class TestBagMatrix:
    def test_normalized_counts(self):
        bag = bag_matrix(*packed([[3, 3, 4], []]), vocab_size=6)
        np.testing.assert_allclose(bag.toarray(), [
            [0, 0, 0, 2 / 3, 1 / 3, 0], [0, 0, 0, 0, 0, 0]])

    @pytest.mark.parametrize("ids_list", [
        [], [[]], [[], []], [[5]], [[0, 0, 0]], [[], [2, 2, 7, 2], []],
        [[1, 2, 3], [3, 2, 1], [], [4, 4, 4, 4, 4, 4, 4]],
    ])
    def test_matches_the_loop_oracle(self, ids_list):
        assert_same_csr(bag_matrix(*packed(ids_list), vocab_size=8),
                        bag_matrix_loop(ids_list, vocab_size=8))

    def test_matches_the_loop_oracle_on_random_sequences(self):
        rng = np.random.default_rng(9)
        ids_list = [rng.integers(0, 30, size=rng.integers(0, 12)).tolist()
                    for _ in range(300)]
        assert_same_csr(bag_matrix(*packed(ids_list), vocab_size=30),
                        bag_matrix_loop(ids_list, vocab_size=30))


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestMeanPoolEncoder:
    def test_head_equals_token_mean_at_init(self):
        tok, enc = small_encoder(["apple", "rel"])
        out = encode_heads(enc, [("apple", "", "rel")])
        emb = enc.params["embeddings"].values
        expected = (emb[tok.token_to_id["apple"]] + emb[SEP]
                    + emb[tok.token_to_id["rel"]]) / 3
        np.testing.assert_allclose(out.values[0], expected)

    def test_deterministic(self):
        _, enc = small_encoder(["apple", "fruit", "rel"])
        a = encode_heads(enc, [("apple", "fruit", "rel")]).values[0]
        b = encode_heads(enc, [("apple", "fruit", "rel")]).values[0]
        np.testing.assert_array_equal(a, b)

    def test_relation_phrase_changes_output(self):
        _, enc = small_encoder(["apple", "red", "blue"])
        a = encode_heads(enc, [("apple", "", "red")]).values[0]
        b = encode_heads(enc, [("apple", "", "blue")]).values[0]
        assert not np.allclose(a, b)

    def test_descriptions_distinguish_same_name(self):
        _, enc = small_encoder(["apple", "red", "blue"])
        a = encode_tails(enc, [("apple", "red")]).values[0]
        b = encode_tails(enc, [("apple", "blue")]).values[0]
        assert not np.allclose(a, b)

    def test_batch_shape_and_dim(self):
        _, enc = small_encoder(["apple", "red"], dim=8)
        out = encode_tails(enc, [("apple", ""), ("red", ""), ("apple", "red")])
        assert out.shape == (3, 8)

    def test_all_unk_description_is_finite(self):
        _, enc = small_encoder(["apple"])
        out = encode_tails(enc, [("apple", "xyzzy qwerty")])
        assert np.isfinite(out.values).all()

    def test_empty_tail_text_gives_zero_row(self):
        _, enc = small_encoder(["apple"])
        out = encode_tails(enc, [("", ""), ("apple", "")])
        np.testing.assert_array_equal(out.values[0], np.zeros(8))
        # zero rows are found from their norms
        np.testing.assert_array_equal(ad.l2_normalize_rows(out).zero_rows,
                                      [True, False])

    def test_gradient_through_cosine_scoring(self):
        _, enc = small_encoder(["apple", "red", "blue", "rel"], dim=6)
        emb = enc.params["embeddings"]

        def loss(_):
            h = encode_heads(enc, [("apple", "red", "rel")])
            t = encode_tails(enc, [("blue", "red")])
            sim = ad.matmul(ad.l2_normalize_rows(h),
                            ad.transpose(ad.l2_normalize_rows(t)))
            return ad.sum_all(sim)

        assert ad.finite_diff_check(loss, emb, eps=1e-5) < 1e-4


def tape_ops(encode):
    with ad.Tape() as tape:
        encode()
        return len(tape)


class TestTransformerLite:
    # the encoder validates the whole config it is built from
    def test_dim_head_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            small_encoder([], dim=9, text_mode="transformer_lite", text_heads=2)

    @pytest.mark.parametrize("key", ["text_layers", "text_ff"],
                             ids=["layers", "ff_width"])
    @pytest.mark.parametrize("mode", ["mean_pool", "transformer_lite"])
    def test_layers_and_ff_width_below_one_rejected(self, key, mode):
        with pytest.raises(ConfigError, match="must be >= 1"):
            small_encoder([], text_mode=mode, text_heads=2, **{key: 0})

    def test_shapes_and_determinism(self):
        _, enc = small_encoder(["apple", "red", "rel"], dim=8,
                               text_mode="transformer_lite", text_heads=2,
                               text_layers=1)
        a = encode_heads(enc, [("apple", "red", "rel"), ("red", "", "rel")])
        b = encode_heads(enc, [("apple", "red", "rel"), ("red", "", "rel")])
        assert a.shape == (2, 8)
        assert np.isfinite(a.values).all()
        np.testing.assert_array_equal(a.values, b.values)

    def test_empty_sequence_gives_zero_row(self):
        _, enc = small_encoder(["apple"], dim=8, text_mode="transformer_lite",
                               text_heads=2)
        out = encode_tails(enc, [("", "")])
        np.testing.assert_array_equal(out.values, np.zeros((1, 8)))
        assert ad.l2_normalize_rows(out).zero_rows[0]

    def test_no_sequences_give_no_rows(self):
        _, enc = small_encoder(["apple"], dim=8, text_mode="transformer_lite",
                               text_heads=2)
        assert encode_tails(enc, []).shape == (0, 8)

    def test_gradients_flow(self):
        _, enc = small_encoder(["apple", "red"], dim=4,
                               text_mode="transformer_lite", text_heads=2,
                               text_layers=1)
        emb = enc.params["embeddings"]

        def loss(_):
            return ad.sum_all(encode_tails(enc, [("apple", "red")]))

        assert ad.finite_diff_check(loss, emb, eps=1e-5) < 1e-4

    def test_name_longer_than_the_position_table(self):
        # names and relations are never cut, so a sequence can outgrow the
        # max_len + 2 position rows; the rows past the table reuse its last
        words = ["one", "two", "three", "four", "five", "six", "rel"]
        tok, enc = small_encoder(words, dim=8, max_len=2,
                                 text_mode="transformer_lite", text_heads=2)
        name = "one two three four five six"
        assert len(tail_ids(tok, name, "")) == 6
        assert len(head_ids(tok, name, "", "rel")) == 8
        heads = encode_heads(enc, [(name, "", "rel"), ("one", "", "rel")])
        tails = encode_tails(enc, [(name, ""), ("two", "")])
        assert heads.shape == tails.shape == (2, 8)
        assert np.isfinite(heads.values).all() and np.isfinite(tails.values).all()

    def test_trainer_epoch_with_names_longer_than_max_len(self):
        from hoplink.config import ConfigError, RunConfig
        from hoplink.synth import generate_synthetic_kg
        from hoplink.training import Trainer

        splits, texts = generate_synthetic_kg(0)
        config = RunConfig(dim=32, encoder="gat", heads=2, k=1,
                           lambda_weight=0.2, batch_size=64, lr=0.01, tau=0.05,
                           text_mode="transformer_lite", max_len=2)
        trainer = Trainer(KnowledgeGraph.build(splits, texts), config)
        assert max(len(head_ids(trainer.model.tokenizer, e.name, e.description, r))
                   for e in trainer.kg.entities
                   for r in trainer.kg.relation_labels) > config.max_len + 2
        trainer.train_epochs(1)

    def test_tape_length_does_not_grow_with_the_batch(self):
        # the tower records the same ops for one sequence as for fifty
        words = ["apple", "red", "green", "tree"]
        _, enc = small_encoder(words, dim=8, text_mode="transformer_lite",
                               text_heads=2)
        rng = np.random.default_rng(3)
        items = [(words[i % 4], " ".join(rng.choice(words, size=i % 7)))
                 for i in range(50)]
        one = tape_ops(lambda: encode_tails(enc, items[:1]))
        assert one > 0
        assert tape_ops(lambda: encode_tails(enc, items)) == one
