import json

import numpy as np
import pytest

from hoplink.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=(4,)),
        "scalarish": np.array([1.5]),
    }


class TestRoundtrip:
    def test_everything_survives(self, tmp_path):
        path = tmp_path / "model.ckpt"
        config = {"dim": 8, "lambda": 0.2, "encoder": "gat"}
        vocab = {"<pad>": 0, "alpha": 1, "beta": 2}
        tensors = sample_tensors()
        save_checkpoint(path, config, vocab, tensors)
        config2, vocab2, tensors2 = load_checkpoint(path)
        assert config2 == config
        assert vocab2 == vocab
        assert set(tensors2) == set(tensors)
        for name in tensors:
            assert tensors2[name].shape == tensors[name].shape
            assert tensors2[name].tobytes() == tensors[name].tobytes()

    def test_file_starts_with_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, {}, sample_tensors())
        assert path.read_bytes()[:8] == MAGIC

    def test_insertion_order_does_not_change_the_bytes(self, tmp_path):
        tensors = sample_tensors()
        reversed_order = dict(reversed(list(tensors.items())))
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, {"x": 1}, {}, tensors)
        save_checkpoint(b, {"x": 1}, {}, reversed_order)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_arrays_are_writable_copies(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, {}, sample_tensors())
        _, _, tensors = load_checkpoint(path)
        tensors["w"][0, 0] = 99.0  # must not raise


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, {}, sample_tensors())
        data = bytearray(path.read_bytes())
        # bump format_version inside the JSON header
        patched = bytes(data).replace(
            f'"format_version":{FORMAT_VERSION}'.encode(),
            f'"format_version":{FORMAT_VERSION + 1}'.encode())
        assert patched != bytes(data)
        path.write_bytes(patched)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, {}, sample_tensors())
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, {}, sample_tensors())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_header_length_past_end_of_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + (1000).to_bytes(8, "little") + b"{}")
        with pytest.raises(CheckpointError, match="past the end"):
            load_checkpoint(path)

    def test_short_file_after_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(CheckpointError, match="past the end"):
            load_checkpoint(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "model.ckpt"
        blob = b"\xff{not json"
        path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob)
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["tensors", "config", "vocab"])
    def test_missing_header_key(self, tmp_path, key):
        header = {"format_version": FORMAT_VERSION, "config": {}, "vocab": {},
                  "tensors": []}
        del header[key]
        blob = json.dumps(header).encode()
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob)
        with pytest.raises(CheckpointError, match=f"lacks {key}"):
            load_checkpoint(path)


def write_header(path, config, vocab):
    """A checkpoint with no tensors and the given config and vocabulary."""
    save_checkpoint(path, config, vocab, {})


class TestMalformedHeaderSections:
    @pytest.mark.parametrize("config, vocab", [
        ([["dim", 8]], {}), ("dim=8", {}), ({}, [["<pad>", 0]]), ({}, None)],
        ids=["config-list", "config-string", "vocab-list", "vocab-null"])
    def test_section_that_is_not_an_object(self, tmp_path, config, vocab):
        path = tmp_path / "model.ckpt"
        write_header(path, config, vocab)
        with pytest.raises(CheckpointError, match="is not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("ids", [
        ["x", 1], [0, 88], [1, 2], [0, 0], [0, 1.0], [False, 1], [0, None]],
        ids=["string", "past-the-table", "no-zero", "repeated", "float",
             "bool", "null"])
    def test_vocabulary_ids_other_than_0_to_v_minus_1(self, tmp_path, ids):
        path = tmp_path / "model.ckpt"
        write_header(path, {}, dict(zip(["<pad>", "alpha"], ids)))
        with pytest.raises(CheckpointError, match="vocabulary ids"):
            load_checkpoint(path)

    def test_dense_ids_in_any_order_load(self, tmp_path):
        path = tmp_path / "model.ckpt"
        vocab = {"beta": 2, "<pad>": 0, "alpha": 1}
        write_header(path, {"dim": 8}, vocab)
        assert load_checkpoint(path)[:2] == ({"dim": 8}, vocab)


def write_index(path, tensors, payload=b""):
    """A checkpoint whose header carries ``tensors`` as its tensor index."""
    header = {"format_version": FORMAT_VERSION, "config": {}, "vocab": {},
              "tensors": tensors}
    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + payload)


class TestMalformedTensorIndex:
    def test_shape_holding_a_string(self, tmp_path):
        path = tmp_path / "model.ckpt"
        write_index(path, [["w", ["2", 2]]], b"\x00" * 32)
        with pytest.raises(CheckpointError, match="non-negative integers"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tensors", [
        [["w"]], [["w", [1], "extra"]], ["w"], [[["w"], [1]]],
        {"w": [1]},
    ], ids=["one-item", "three-items", "bare-name", "list-name", "dict"])
    def test_index_that_is_not_a_list_of_pairs(self, tmp_path, tensors):
        path = tmp_path / "model.ckpt"
        write_index(path, tensors, b"\x00" * 8)
        with pytest.raises(CheckpointError, match="not a"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[-1, -1], [2, -1], [1.0], [True]])
    def test_shape_not_of_non_negative_integers(self, tmp_path, shape):
        path = tmp_path / "model.ckpt"
        write_index(path, [["w", shape]], b"\x00" * 8)
        with pytest.raises(CheckpointError, match="non-negative integers"):
            load_checkpoint(path)

    def test_duplicated_tensor_name(self, tmp_path):
        path = tmp_path / "model.ckpt"
        write_index(path, [["w", [1]], ["w", [1]]], b"\x00" * 16)
        with pytest.raises(CheckpointError, match="listed twice"):
            load_checkpoint(path)

    def test_zero_sized_and_scalar_shapes_still_load(self, tmp_path):
        path = tmp_path / "model.ckpt"
        write_index(path, [["e", [0, 3]], ["s", []]], b"\x00" * 8)
        _, _, tensors = load_checkpoint(path)
        assert tensors["e"].shape == (0, 3) and tensors["s"].shape == ()


class TestAtomicSave:
    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"x": 1}, {}, sample_tensors())
        before = path.read_bytes()
        # "a" is written before "z" fails to convert, part-way through
        broken = {"a": np.ones((2, 2)), "z": np.array(["not a number"])}
        with pytest.raises(ValueError):
            save_checkpoint(path, {"x": 2}, {}, broken)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_replaces_an_existing_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), {"x": 1}, {}, sample_tensors())
        save_checkpoint(str(path), {"x": 2}, {}, sample_tensors())
        assert load_checkpoint(path)[0] == {"x": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
