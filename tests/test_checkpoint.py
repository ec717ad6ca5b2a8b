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
        vocab = {"<pad>": 0, "alpha": 3, "beta": 4}
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
