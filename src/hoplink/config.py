"""Run configuration: a flat key = value file, every key overridable from the
command line. The file key for the loss mixing weight is `lambda`; it maps to
the `lambda_weight` attribute because of the Python keyword."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .gnn import GraphEncoderConfig
from .text import TextEncoderConfig


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    dataset_dir: str = ""
    out_dir: str = "runs/default"
    seed: int = 0
    dim: int = 64
    text_mode: str = "mean_pool"
    text_layers: int = 1
    text_heads: int = 2
    text_ff: int = 128
    min_frequency: int = 1
    max_len: int = 64
    encoder: str = "gat"
    layers: int = 2
    heads: int = 3
    activation: str = "relu"
    k: int = 1
    cap_per_hop: int = 32
    tau: float = 0.05
    learn_tau: bool = True
    lambda_weight: float = 0.2
    mask_ratio: float = 0.15
    latent_dim: int = 0
    batch_size: int = 50
    epochs: int = 30
    lr: float = 0.01
    weight_decay: float = 0.0001
    resample_neighborhoods: bool = True

    def validate(self) -> "RunConfig":
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ConfigError(
                f"lambda must lie in [0, 1], got {self.lambda_weight}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.epochs < 0 or self.batch_size < 2:
            raise ConfigError("epochs must be >= 0 and batch_size >= 2")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError(
                f"mask_ratio must lie in (0, 1), got {self.mask_ratio}")
        if self.dim < 1 or self.cap_per_hop < 1:
            raise ConfigError(f"dim and cap_per_hop must be >= 1, got "
                              f"{self.dim} and {self.cap_per_hop}")
        if self.lr <= 0 or self.weight_decay < 0:
            raise ConfigError(f"lr must be positive and weight_decay >= 0, "
                              f"got {self.lr} and {self.weight_decay}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if self.latent_dim < 0:
            raise ConfigError(f"latent_dim must be >= 0 (0 means dim // 2), "
                              f"got {self.latent_dim}")
        try:
            self.text_encoder_config()
            self.graph_encoder_config()
        except ValueError as err:
            raise ConfigError(str(err)) from None
        return self

    def text_encoder_config(self) -> TextEncoderConfig:
        return TextEncoderConfig(dim=self.dim, mode=self.text_mode,
                                 layers=self.text_layers, heads=self.text_heads,
                                 ff_width=self.text_ff)

    def graph_encoder_config(self) -> GraphEncoderConfig:
        return GraphEncoderConfig(variant=self.encoder, layers=self.layers,
                                  dim=self.dim, heads=self.heads,
                                  activation=self.activation)

    @property
    def resolved_latent_dim(self) -> int:
        return self.latent_dim if self.latent_dim > 0 else max(1, self.dim // 2)


_FIELD_BY_KEY = {("lambda" if f.name == "lambda_weight" else f.name): f
                 for f in fields(RunConfig)}
VALID_KEYS = tuple(sorted(_FIELD_BY_KEY))


def _convert(key: str, raw: str):
    kind = _FIELD_BY_KEY[key].type
    raw = raw.strip()
    try:
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {raw!r} (expected {kind})")


def _unknown_key_error(key: str) -> ConfigError:
    return ConfigError(f"unknown config key {key!r}; valid keys: "
                       + ", ".join(VALID_KEYS))


def set_key(config: RunConfig, key: str, raw: str) -> None:
    if key not in _FIELD_BY_KEY:
        raise _unknown_key_error(key)
    setattr(config, _FIELD_BY_KEY[key].name, _convert(key, raw))


def parse_config_file(path) -> RunConfig:
    config = RunConfig()
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, _, value = line.partition("=")
            try:
                set_key(config, key.strip(), value)
            except ConfigError as err:
                raise ConfigError(f"{path}:{line_no}: {err}") from None
    return config


def apply_overrides(config: RunConfig, pairs: list[str]) -> RunConfig:
    """Consume leftover CLI args of the form --key value."""
    i = 0
    while i < len(pairs):
        flag = pairs[i]
        if not flag.startswith("--"):
            raise ConfigError(f"expected --key, got {flag!r}")
        key = flag[2:]
        if "=" in key:
            key, _, value = key.partition("=")
        else:
            if i + 1 >= len(pairs):
                raise ConfigError(f"flag --{key} is missing a value")
            i += 1
            value = pairs[i]
        set_key(config, key, value)
        i += 1
    return config


def config_to_dict(config: RunConfig) -> dict:
    return {key: getattr(config, f.name) for key, f in _FIELD_BY_KEY.items()}


# exact value types a field type accepts from a checkpoint, so a bool is no int
_ACCEPTED = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def config_from_dict(data: dict) -> RunConfig:
    config = RunConfig()
    for key, value in data.items():
        if key not in _FIELD_BY_KEY:
            raise _unknown_key_error(key)
        kind = _FIELD_BY_KEY[key].type
        if type(value) not in _ACCEPTED[kind]:
            raise ConfigError(f"bad value for {key!r}: {value!r} (expected {kind})")
        setattr(config, _FIELD_BY_KEY[key].name,
                float(value) if kind == "float" else value)
    return config


def write_config_snapshot(config: RunConfig, path) -> None:
    """Materialize every key so the run can be reproduced from this file."""
    lines = [f"{key} = {value}\n" for key, value in
             sorted(config_to_dict(config).items())]
    Path(path).write_text("".join(lines), encoding="utf-8")
