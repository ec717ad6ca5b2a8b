"""Self-describing checkpoint container.

Layout: 8-byte magic, 8-byte little-endian header length, a JSON header
(config, vocabulary, tensor index), then raw little-endian float64 buffers in
index order. JSON keys are sorted and floats repr'd by json itself, so two
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MAGIC = b"HLCKPT01"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(path, config: dict, vocab: dict[str, int],
                    tensors: dict[str, np.ndarray]) -> None:
    names = sorted(tensors)
    index = [[name, list(tensors[name].shape)] for name in names]
    header = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "vocab": vocab,
        "tensors": index,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, int], dict[str, np.ndarray]]:
    """Read a checkpoint, raising CheckpointError for any malformed file: bad
    magic, a header that is cut off, not JSON or missing a section, a
    truncated tensor, or bytes after the last tensor."""
    data = Path(path).read_bytes()
    if data[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    header_len = int.from_bytes(data[8:16], "little")
    if len(data) < 16 or 16 + header_len > len(data):
        raise CheckpointError(f"{path}: header runs past the end of the file")
    try:  # UnicodeDecodeError and JSONDecodeError are both ValueErrors
        header = json.loads(data[16:16 + header_len].decode("utf-8"))
    except ValueError as err:
        raise CheckpointError(f"{path}: header is not valid JSON ({err})") from None
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version} "
                              f"not supported (expected {FORMAT_VERSION})")
    for key in ("config", "vocab", "tensors"):
        if key not in header:
            raise CheckpointError(f"{path}: header lacks {key}")
    tensors: dict[str, np.ndarray] = {}
    offset = 16 + header_len
    for name, shape in header["tensors"]:
        count = int(np.prod(shape)) if shape else 1
        raw = data[offset:offset + 8 * count]
        if len(raw) != 8 * count:
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        offset += 8 * count
    if offset != len(data):
        raise CheckpointError(
            f"{path}: {len(data) - offset} trailing bytes after the last tensor")
    return header["config"], header["vocab"], tensors
