import numpy as np
import pytest

from hoplink.kg import KnowledgeGraph, load_dataset_dir
from hoplink.synth import (
    cue_hub,
    generate_synthetic_kg,
    hub_name,
    write_synthetic_dataset,
)


class TestGeneratedStructure:
    def test_fixed_counts(self):
        splits, texts = generate_synthetic_kg(0)
        assert len(texts) == 50
        assert len(splits["train"]) == 300
        assert len(splits["valid"]) == 15
        assert len(splits["test"]) == 15
        relations = {r for triples in splits.values() for _, r, _ in triples}
        assert relations == {"cue0", "cue1", "cue2", "cue3", "kin"}

    def test_every_cue_triple_matches_the_planted_rule(self):
        splits, _ = generate_synthetic_kg(3)
        for triples in splits.values():
            for h, r, t in triples:
                if not r.startswith("cue"):
                    continue
                i, k = int(h[4:]), int(r[3:])
                assert t == hub_name(cue_hub(i, k)), (h, r, t)

    def test_head_text_names_the_true_tail_anchor(self):
        # the planted signal: the gold hub's anchor token sits in the head desc
        splits, texts = generate_synthetic_kg(0)
        for triples in splits.values():
            for h, r, t in triples:
                if r.startswith("cue"):
                    hub_id = int(t[3:])
                    assert f"anchor{hub_id}" in texts[h][1].split()

    def test_holdout_splits_are_disjoint_cue_triples(self):
        splits, _ = generate_synthetic_kg(0)
        train = set(splits["train"])
        valid, test = set(splits["valid"]), set(splits["test"])
        assert not valid & test
        assert not valid & train
        assert not test & train
        assert all(r.startswith("cue") for _, r, _ in valid | test)

    def test_transductive_by_construction(self):
        splits, texts = generate_synthetic_kg(0)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            kg = KnowledgeGraph.build(splits, texts)
        assert not kg.entity_unseen.any()
        assert not kg.relation_unseen.any()

    def test_seed_controls_the_holdout(self):
        one = generate_synthetic_kg(0)
        again = generate_synthetic_kg(0)
        other = generate_synthetic_kg(1)
        assert one == again
        assert one[0]["valid"] != other[0]["valid"]
        # the full cue/kin population is seed-independent
        assert sorted(one[0]["train"] + one[0]["valid"] + one[0]["test"]) \
            == sorted(other[0]["train"] + other[0]["valid"] + other[0]["test"])


class TestWriter:
    def test_roundtrip_through_the_loader(self, tmp_path):
        write_synthetic_dataset(tmp_path / "synth", seed=0)
        kg = load_dataset_dir(tmp_path / "synth")
        assert kg.num_entities == 50
        assert kg.num_base_relations == 5
        assert {k: len(v) for k, v in kg.splits.items()} == {
            "train": 300, "valid": 15, "test": 15}

    def test_written_files_are_deterministic(self, tmp_path):
        a = write_synthetic_dataset(tmp_path / "a", seed=0)
        b = write_synthetic_dataset(tmp_path / "b", seed=0)
        for name in ("train.txt", "valid.txt", "test.txt", "entities.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
