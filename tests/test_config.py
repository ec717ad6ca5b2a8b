import math

import pytest

from hoplink.config import (
    ConfigError,
    RunConfig,
    VALID_KEYS,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    parse_config_file,
    set_key,
    write_config_snapshot,
)


class TestParsing:
    def test_file_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "\n"
            "dim = 32   # trailing comment\n"
            "lambda = 0.5\n"
            "encoder = sage\n"
            "learn_tau = false\n")
        config = parse_config_file(path)
        assert config.dim == 32
        assert config.lambda_weight == 0.5
        assert config.encoder == "sage"
        assert config.learn_tau is False

    def test_lambda_file_key_maps_to_attribute(self):
        config = RunConfig()
        set_key(config, "lambda", "0.75")
        assert config.lambda_weight == 0.75
        assert "lambda" in VALID_KEYS
        assert "lambda_weight" not in VALID_KEYS

    def test_unknown_key_lists_valid_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not_a_key = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert "valid keys" in str(err.value)
        assert "lambda" in str(err.value)

    def test_bad_value_reports_key_and_expected_type(self):
        with pytest.raises(ConfigError, match="dim.*int"):
            set_key(RunConfig(), "dim", "many")
        with pytest.raises(ConfigError, match="learn_tau"):
            set_key(RunConfig(), "learn_tau", "perhaps")

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dim 32\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    def test_error_carries_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dim = 32\nwat = 1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            parse_config_file(path)


class TestOverrides:
    def test_both_flag_styles(self):
        config = RunConfig()
        apply_overrides(config, ["--dim", "48", "--lambda=0.3", "--k", "2"])
        assert (config.dim, config.lambda_weight, config.k) == (48, 0.3, 2)

    def test_missing_value_rejected(self):
        with pytest.raises(ConfigError, match="missing a value"):
            apply_overrides(RunConfig(), ["--dim"])

    def test_non_flag_token_rejected(self):
        with pytest.raises(ConfigError, match="expected --key"):
            apply_overrides(RunConfig(), ["dim", "48"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_overrides(RunConfig(), ["--bogus", "1"])


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("lambda_weight", 1.5), ("lambda_weight", -0.2), ("tau", 0.0),
        ("tau", -1.0), ("k", 0), ("batch_size", 1), ("epochs", -1),
        ("mask_ratio", 0.0), ("mask_ratio", 1.0), ("lr", 0.0), ("lr", -1.0),
        ("weight_decay", -1.0), ("max_len", 0), ("text_layers", 0),
        ("text_ff", 0), ("latent_dim", -1),
        # learnable tau (the default) outside [0.001, 1]
        ("tau", 2.0), ("tau", 0.0001),
        ("text_mode", "bag"), ("encoder", "gnn"), ("layers", 0),
        ("activation", "tanh"),
        # GAT (the default) heads outside [1, dim = 64]
        ("heads", 0), ("heads", 65),
        ("lr", math.nan), ("lr", math.inf), ("weight_decay", math.nan),
        ("weight_decay", math.inf), ("lambda_weight", math.nan),
        ("mask_ratio", math.nan),
    ])
    def test_out_of_range_values(self, field, value):
        config = RunConfig(**{field: value})
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize("settings, message", [
        ({"tau": math.inf, "learn_tau": False}, "tau must be finite"),
        ({"tau": math.nan, "learn_tau": False}, "tau must be finite"),
        ({"text_mode": "transformer_lite", "text_heads": 3},
         "dim 64 not divisible by head count 3"),
        ({"text_mode": "transformer_lite", "text_heads": 0},
         "not divisible by head count 0"),
        ({"dim": 4, "heads": 5}, r"head count 5 must lie in \[1, dim=4\]"),
    ], ids=["fixed-tau-inf", "fixed-tau-nan", "text-heads-3", "text-heads-0",
            "gat-heads-past-dim"])
    def test_out_of_range_combinations(self, settings, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**settings).validate()

    def test_heads_outside_the_gat_range_are_free_for_other_encoders(self):
        for encoder in ("gcn", "sage"):
            RunConfig(encoder=encoder, heads=0).validate()

    def test_fixed_tau_may_lie_outside_the_learnable_range(self):
        config = RunConfig(tau=2.0, learn_tau=False)
        assert config.validate() is config

    def test_defaults_validate(self):
        config = RunConfig()
        assert config.validate() is config

    def test_latent_dim_resolution(self):
        assert RunConfig(dim=64).resolved_latent_dim == 32
        assert RunConfig(dim=64, latent_dim=7).resolved_latent_dim == 7
        assert RunConfig(dim=1).resolved_latent_dim == 1


class TestSnapshot:
    def test_snapshot_materializes_every_key(self, tmp_path):
        config = RunConfig(dim=24, lambda_weight=0.4, encoder="gcn", seed=9)
        path = tmp_path / "snapshot.cfg"
        write_config_snapshot(config, path)
        text = path.read_text()
        for key in VALID_KEYS:
            assert f"{key} = " in text, key

    def test_snapshot_reparses_to_the_same_config(self, tmp_path):
        config = RunConfig(dim=24, lambda_weight=0.4, encoder="gcn",
                           learn_tau=False, lr=0.003)
        path = tmp_path / "snapshot.cfg"
        write_config_snapshot(config, path)
        assert parse_config_file(path) == config

    def test_dict_roundtrip(self):
        config = RunConfig(dim=24, lambda_weight=0.4)
        assert config_from_dict(config_to_dict(config)) == config

    def test_dict_with_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"mystery": 1})

    @pytest.mark.parametrize("key, value", [
        ("k", "2"), ("k", 2.0), ("k", True), ("seed", None), ("dim", [64]),
        ("tau", "0.05"), ("tau", False), ("learn_tau", 1), ("learn_tau", "true"),
        ("encoder", 3), ("encoder", None)])
    def test_dict_value_of_the_wrong_type_rejected(self, key, value):
        kind = {"k": "int", "seed": "int", "dim": "int", "tau": "float",
                "learn_tau": "bool", "encoder": "str"}[key]
        with pytest.raises(ConfigError, match=f"'{key}'.*expected {kind}"):
            config_from_dict({key: value})

    def test_dict_int_for_a_float_field_stored_as_float(self):
        config = config_from_dict({"lambda": 1, "lr": 0.5, "k": 3,
                                   "learn_tau": False, "encoder": "gcn"})
        assert config.lambda_weight == 1.0 and type(config.lambda_weight) is float
        assert type(config.lr) is float and type(config.k) is int
        assert config.learn_tau is False and config.encoder == "gcn"
