import json
import re
from pathlib import Path

import numpy as np
import pytest

import hoplink.cli as cli
from hoplink.checkpoint import load_checkpoint, save_checkpoint
from hoplink.cli import main
from hoplink.kg import load_dataset_dir
from hoplink.text import tokenize


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    assert main(["synth", "--out-dir", str(out), "--seed", "0"]) == 0
    return out


def write_config(path, dataset_dir, out_dir, **extra):
    values = dict(dataset_dir=str(dataset_dir), out_dir=str(out_dir),
                  dim=12, heads=2, epochs=1, batch_size=64, k=1, seed=3)
    values.update(extra)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def json_types(payload: dict) -> dict:
    return {key: type(value) for key, value in payload.items()}


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, dataset_dir):
    root = tmp_path_factory.mktemp("run")
    cfg = write_config(root / "run.cfg", dataset_dir, root / "out")
    assert main(["train", "--config", str(cfg)]) == 0
    return {"root": root, "config": cfg, "out": root / "out",
            "checkpoint": root / "out" / "checkpoint.ckpt"}


class TestPreprocess:
    def test_reports_counts_and_writes_artifacts(self, dataset_dir, tmp_path,
                                                 capsys):
        code = main(["preprocess", "--dataset-dir", str(dataset_dir),
                     "--out-dir", str(tmp_path / "prep")])
        assert code == 0
        out = capsys.readouterr().out
        for line in ("entities=50", "relations=5", "train=300",
                     "valid=15", "test=15"):
            assert line in out
        prep = tmp_path / "prep"
        for name in ("manifest.txt", "vocab.txt", "entity_ids.txt",
                     "relation_ids.txt"):
            assert (prep / name).exists(), name
        manifest = (prep / "manifest.txt").read_text()
        assert "entities = 50" in manifest

    def test_expected_manifest_match_passes(self, dataset_dir, tmp_path):
        expect = tmp_path / "expect.txt"
        expect.write_text("entities = 50\nrelations = 5\ntrain = 300\n")
        assert main(["preprocess", "--dataset-dir", str(dataset_dir),
                     "--out-dir", str(tmp_path / "p"),
                     "--expect", str(expect)]) == 0

    def test_expected_manifest_mismatch_exits_one_with_diff(
            self, dataset_dir, tmp_path, capsys):
        expect = tmp_path / "expect.txt"
        expect.write_text("entities = 51\ntrain = 300\n")
        code = main(["preprocess", "--dataset-dir", str(dataset_dir),
                     "--out-dir", str(tmp_path / "p"),
                     "--expect", str(expect)])
        assert code == 1
        err = capsys.readouterr().err
        assert "entities" in err and "51" in err and "50" in err

    def test_corrupt_line_exits_one_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "train.txt").write_text("a\tr\tb\nbroken line here\n")
        (bad / "entities.txt").write_text("a\ta\t\nb\tb\t\n")
        code = main(["preprocess", "--dataset-dir", str(bad),
                     "--out-dir", str(tmp_path / "p")])
        assert code == 1
        assert ":2" in capsys.readouterr().err

    def test_relation_named_like_an_inverse_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "train.txt").write_text("a\tfoo\tb\nb\tinverse of foo\ta\n")
        (bad / "entities.txt").write_text("a\ta\t\nb\tb\t\n")
        code = main(["preprocess", "--dataset-dir", str(bad),
                     "--out-dir", str(tmp_path / "p")])
        assert code == 1
        assert "'inverse of foo'" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_missing_dataset_dir_exits_one(self, tmp_path):
        assert main(["preprocess", "--dataset-dir", str(tmp_path / "nope"),
                     "--out-dir", str(tmp_path / "p")]) == 1


class TestTrain:
    def test_writes_checkpoint_log_and_snapshot(self, trained_run):
        out = trained_run["out"]
        assert (out / "checkpoint.ckpt").exists()
        assert (out / "train_log.txt").exists()
        assert (out / "config_snapshot.txt").exists()
        log = (out / "train_log.txt").read_text().splitlines()
        assert len(log) == 1
        assert re.match(
            r"^epoch=0 train_loss=-?\d+\.\d{6} valid_mrr=\d+\.\d{6}$", log[0])

    def test_identical_rerun_is_byte_identical(self, trained_run):
        before_ckpt = trained_run["checkpoint"].read_bytes()
        before_log = (trained_run["out"] / "train_log.txt").read_bytes()
        assert main(["train", "--config", str(trained_run["config"])]) == 0
        assert trained_run["checkpoint"].read_bytes() == before_ckpt
        assert (trained_run["out"] / "train_log.txt").read_bytes() \
            == before_log

    def test_snapshot_reproduces_the_run(self, trained_run, tmp_path):
        # a resolved snapshot plus an out_dir override replays identically
        snapshot = trained_run["out"] / "config_snapshot.txt"
        assert main(["train", "--config", str(snapshot),
                     "--out_dir", str(tmp_path / "replay")]) == 0
        ours = trained_run["checkpoint"].read_bytes()
        replay = (tmp_path / "replay" / "checkpoint.ckpt").read_bytes()
        # configs differ only in out_dir, so tensors and vocab must agree
        from hoplink.checkpoint import load_checkpoint
        _, vocab_a, tensors_a = load_checkpoint(trained_run["checkpoint"])
        _, vocab_b, tensors_b = load_checkpoint(
            tmp_path / "replay" / "checkpoint.ckpt")
        assert vocab_a == vocab_b
        assert set(tensors_a) == set(tensors_b)
        for name in tensors_a:
            assert tensors_a[name].tobytes() == tensors_b[name].tobytes()

    def test_override_changes_the_run(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", dataset_dir, tmp_path / "o")
        assert main(["train", "--config", str(cfg), "--lambda", "1.0"]) == 0
        snapshot = (tmp_path / "o" / "config_snapshot.txt").read_text()
        assert "lambda = 1.0" in snapshot

    def test_unknown_override_key_exits_one_and_lists_keys(
            self, trained_run, capsys):
        code = main(["train", "--config", str(trained_run["config"]),
                     "--rainbow", "7"])
        assert code == 1
        err = capsys.readouterr().err
        assert "valid keys" in err and "lambda" in err

    def test_invalid_config_value_exits_one(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", dataset_dir, tmp_path / "o")
        assert main(["train", "--config", str(cfg),
                     "--lambda", "1.5"]) == 1

    def test_missing_config_file_exits_one(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "ghost.cfg")]) == 1

    @pytest.mark.parametrize("override", [
        ["--cap_per_hop", "0"], ["--heads", "0"], ["--dim", "0"],
        ["--layers", "0"],
        ["--dim", "16", "--text_mode", "transformer_lite", "--text_heads", "3"],
        ["--lr", "-1"], ["--weight_decay", "-1"], ["--max_len", "0"],
        ["--text_layers", "0"], ["--text_ff", "0"], ["--latent_dim", "-1"]],
        ids=["cap_per_hop", "heads", "dim", "layers", "text_heads", "lr",
             "weight_decay", "max_len", "text_layers", "text_ff",
             "latent_dim"])
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_out_of_range_value_exits_one_before_any_output(
            self, dataset_dir, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path / "run.cfg", dataset_dir, tmp_path / "o")
        axis = ["--axis", "hops"] if command == "ablate" else []
        assert main([command, "--config", str(cfg), *axis, *override]) == 1
        assert "runtime failure" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [
        ["--lr", "nan"], ["--lr", "inf"], ["--weight_decay", "nan"],
        ["--learn_tau", "false", "--tau", "inf"]],
        ids=["lr-nan", "lr-inf", "weight_decay-nan", "fixed-tau-inf"])
    def test_non_finite_value_exits_one_before_any_output(
            self, dataset_dir, tmp_path, capsys, override):
        cfg = write_config(tmp_path / "run.cfg", dataset_dir, tmp_path / "o")
        assert main(["train", "--config", str(cfg), *override]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite" in captured.err
        assert not (tmp_path / "o").exists()


class TestEval:
    def test_prints_metrics_and_writes_reports(self, trained_run, capsys):
        code = main(["eval", "--checkpoint", str(trained_run["checkpoint"]),
                     "--split", "test"])
        assert code == 0
        out = capsys.readouterr().out
        values = {}
        for key in ("mrr", "hits@1", "hits@3", "hits@10", "count"):
            m = re.search(rf"^{re.escape(key)}=(\S+)$", out, re.M)
            assert m, key
            values[key] = float(m.group(1))
        assert values["hits@1"] <= values["hits@3"] <= values["hits@10"]
        assert values["count"] == 30
        report = trained_run["out"] / "eval_test.json"
        payload = json.loads(report.read_text())
        assert json_types(payload) == {
            "split": str, "mrr": float, "hits@1": float, "hits@3": float,
            "hits@10": float, "count": int, "checkpoint": str}
        assert payload["split"] == "test"
        assert payload["mrr"] == pytest.approx(values["mrr"], abs=1e-6)
        assert (trained_run["out"] / "eval_test.txt").exists()

    def test_missing_checkpoint_exits_one(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "no.ckpt")]) == 1

    def test_garbage_checkpoint_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"this is not a checkpoint at all")
        assert main(["eval", "--checkpoint", str(bad)]) == 1
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("cut, message", [(True, "past the end"),
                                              (False, "trailing bytes")])
    def test_malformed_checkpoint_exits_one(self, trained_run, tmp_path,
                                            capsys, cut, message):
        data = trained_run["checkpoint"].read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data[:40] if cut else data + b"\0")
        assert main(["eval", "--checkpoint", str(bad)]) == 1
        assert message in capsys.readouterr().err

    def test_wrong_typed_config_value_exits_one(self, trained_run, tmp_path,
                                                capsys):
        config, vocab, tensors = load_checkpoint(trained_run["checkpoint"])
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, {**config, "k": "1"}, vocab, tensors)
        assert main(["eval", "--checkpoint", str(bad)]) == 1
        assert "'k'" in capsys.readouterr().err

    def test_non_finite_config_value_exits_one(self, trained_run, tmp_path,
                                               capsys):
        config, vocab, tensors = load_checkpoint(trained_run["checkpoint"])
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, {**config, "lr": float("nan")}, vocab, tensors)
        assert main(["eval", "--checkpoint", str(bad)]) == 1
        assert "lr must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("config-list", "config is not a JSON object"),
        ("vocab-id-string", "vocabulary ids"),
        ("vocab-id-past-table", "vocabulary ids")])
    def test_malformed_header_exits_one(self, trained_run, tmp_path, capsys,
                                        case, message):
        config, vocab, tensors = load_checkpoint(trained_run["checkpoint"])
        last = max(vocab, key=vocab.get)
        if case == "config-list":
            config = list(config.items())
        elif case == "vocab-id-string":
            vocab = {**vocab, last: "x"}
        else:  # a row the embedding table does not have
            vocab = {**vocab, last: len(vocab) + 7}
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, config, vocab, tensors)
        assert main(["eval", "--checkpoint", str(bad)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("missing-tensor", "state mismatch: missing ['gnn.l0_h0_adst']"),
        ("tensor-row-short", "shape mismatch for gnn.l0_h0_adst"),
        ("config-dim-16", "shape mismatch for text.embeddings")])
    def test_tensors_that_do_not_fit_the_config_exit_one(
            self, trained_run, tmp_path, capsys, case, message):
        config, vocab, tensors = load_checkpoint(trained_run["checkpoint"])
        if case == "missing-tensor":
            del tensors["gnn.l0_h0_adst"]
        elif case == "tensor-row-short":
            tensors["gnn.l0_h0_adst"] = tensors["gnn.l0_h0_adst"][:-1]
        else:
            config = {**config, "dim": 16}
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, config, vocab, tensors)
        for command in (["eval"], ["explain", "--head", "x", "--relation", "y"]):
            assert main([*command, "--checkpoint", str(bad)]) == 1
            err = capsys.readouterr().err
            assert message in err and "runtime failure" not in err


@pytest.fixture(scope="module")
def encoder_table(tmp_path_factory, dataset_dir):
    root = tmp_path_factory.mktemp("abl")
    cfg = write_config(root / "abl.cfg", dataset_dir, root / "out")
    code = main(["ablate", "--config", str(cfg), "--axis", "encoder",
                 "--split", "valid"])
    payload = json.loads(
        (root / "out" / "ablation_encoder.json").read_text())
    return code, root / "out", payload


class TestAblate:
    def test_encoder_axis_rows_and_exit(self, encoder_table):
        code, out, payload = encoder_table
        assert code == 0
        assert [r["setting"] for r in payload["rows"]] \
            == ["GCN", "GraphSAGE", "GAT"]
        assert (out / "ablation_encoder.txt").exists()

    def test_rows_carry_all_metrics_plus_average(self, encoder_table):
        _, _, payload = encoder_table
        for row in payload["rows"]:
            assert json_types(row) == {
                "setting": str, "status": str, "mrr": float, "hits@1": float,
                "hits@3": float, "hits@10": float, "count": int,
                "avg": float, "checkpoint": str}
            assert row["status"] == "ok"
            metrics = [row["mrr"], row["hits@1"], row["hits@3"],
                       row["hits@10"]]
            assert row["avg"] == pytest.approx(np.mean(metrics))
            assert (0.0 <= row["hits@1"] <= row["hits@3"]
                    <= row["hits@10"] <= 1.0)

    def test_hops_axis_rows(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path / "abl.cfg", dataset_dir,
                           tmp_path / "out")
        assert main(["ablate", "--config", str(cfg), "--axis", "hops",
                     "--split", "valid"]) == 0
        payload = json.loads(
            (tmp_path / "out" / "ablation_hops.json").read_text())
        assert [r["setting"] for r in payload["rows"]] \
            == ["1-hop", "2-hop", "3-hop"]

    def test_failed_cell_is_recorded_not_fatal(self, tmp_path, dataset_dir,
                                               monkeypatch, capsys):
        real_trainer = cli.Trainer

        class Sabotaged(real_trainer):
            def train(self):
                if self.config.encoder == "sage":
                    raise RuntimeError("injected failure")
                return super().train()

        monkeypatch.setattr(cli, "Trainer", Sabotaged)
        cfg = write_config(tmp_path / "abl.cfg", dataset_dir,
                           tmp_path / "out")
        code = main(["ablate", "--config", str(cfg), "--axis", "encoder",
                     "--split", "valid"])
        assert code == 2
        payload = json.loads(
            (tmp_path / "out" / "ablation_encoder.json").read_text())
        by_name = {r["setting"]: r for r in payload["rows"]}
        assert json_types(by_name["GraphSAGE"]) == {
            "setting": str, "status": str, "error": str}
        assert by_name["GraphSAGE"]["status"] == "failed"
        assert "injected failure" in by_name["GraphSAGE"]["error"]
        assert by_name["GCN"]["status"] == "ok"
        assert by_name["GAT"]["status"] == "ok"
        assert "failed" in capsys.readouterr().out

    def test_unknown_axis_exits_one(self, trained_run):
        assert main(["ablate", "--config", str(trained_run["config"]),
                     "--axis", "moons"]) == 1


class TestExplain:
    def test_report_structure_and_consistency(self, trained_run, capsys):
        code = main(["explain", "--checkpoint",
                     str(trained_run["checkpoint"]),
                     "--head", "item05", "--relation", "cue2",
                     "--top-n", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "query: (item05, cue2, ?)" in out
        payload = json.loads(
            (trained_run["out"] / "explanation.json").read_text())
        assert json_types(payload) == {
            "head": str, "head_description": str, "relation": str,
            "predictions": list, "gold": dict, "neighbors": list,
            "neighborhood_empty": bool}
        assert len(payload["predictions"]) == 3
        scores = [p["score"] for p in payload["predictions"]]
        assert scores == sorted(scores, reverse=True)
        assert payload["gold"]["entity"] == "hub5"  # bit 2 of 5 is 1
        # highlights really are the token overlap with the top prediction
        top_tokens = set(tokenize(payload["predictions"][0]["entity"]))
        for n in payload["neighbors"]:
            expected = sorted(top_tokens
                              & set(tokenize(f"{n['name']} "
                                             f"{n['description']}")))
            assert n["highlights"] == expected

    @pytest.mark.parametrize("k", [1, 2])
    def test_every_neighbor_names_its_connecting_train_edge(
            self, trained_run, dataset_dir, tmp_path, k):
        if k == 1:
            checkpoint = trained_run["checkpoint"]
        else:
            cfg = write_config(tmp_path / "k2.cfg", dataset_dir, tmp_path / "o",
                               k=2, cap_per_hop=6)
            assert main(["train", "--config", str(cfg)]) == 0
            checkpoint = tmp_path / "o" / "checkpoint.ckpt"
        kg = load_dataset_dir(dataset_dir)
        names = [rec.name for rec in kg.entities]
        assert len(set(names)) == len(names)
        entity_of = {name: e for e, name in enumerate(names)}
        listed = 0
        for head in ("item01", "item05", "hub2"):
            assert main(["explain", "--checkpoint", str(checkpoint),
                         "--head", head, "--relation", "cue1"]) == 0
            payload = json.loads(
                (checkpoint.parent / "explanation.json").read_text())
            # subgraph node order is hop, then entity id
            rank = {entity_of[head]: (0, entity_of[head])}
            rank.update((entity_of[n["name"]], (n["hop"], entity_of[n["name"]]))
                        for n in payload["neighbors"])
            for n in payload["neighbors"]:
                node = entity_of[n["name"]]
                # the joining train triple whose other end ranks first, then
                # by relation, then by the rank of its head
                joins = [(rank[tr.tail if tr.head == node else tr.head],
                          tr.relation, rank[tr.head], tr)
                         for tr in kg.splits["train"]
                         if (tr.head == node and tr.tail in rank)
                         or (tr.tail == node and tr.head in rank)]
                tr = min(joins, key=lambda j: j[:3])[3]
                assert n["relation"] == kg.relation_labels[tr.relation]
                assert n["edge"] == f"{names[tr.head]} -> {names[tr.tail]}"
                listed += 1
        assert listed > 3 * k

    def test_anchor_text_shows_up_as_a_highlight(self, trained_run):
        # some cue neighbor names the hub that tops the prediction list;
        # checked over several heads so the assertion is not knife-edged
        hits = 0
        for head in ("item01", "item05", "item09", "item13"):
            assert main(["explain", "--checkpoint",
                         str(trained_run["checkpoint"]),
                         "--head", head, "--relation", "cue0"]) == 0
            payload = json.loads(
                (trained_run["out"] / "explanation.json").read_text())
            if any(n["highlights"] for n in payload["neighbors"]):
                hits += 1
        assert hits > 0

    def test_gold_marked_even_outside_top_n(self, trained_run):
        assert main(["explain", "--checkpoint",
                     str(trained_run["checkpoint"]),
                     "--head", "item05", "--relation", "cue2",
                     "--top-n", "1"]) == 0
        payload = json.loads(
            (trained_run["out"] / "explanation.json").read_text())
        assert payload["gold"]["entity"] == "hub5"
        assert payload["gold"]["rank"] >= 1
        assert isinstance(payload["gold"]["in_top_n"], bool)

    def test_unknown_head_suggests_neighbors(self, trained_run, capsys):
        code = main(["explain", "--checkpoint",
                     str(trained_run["checkpoint"]),
                     "--head", "itm05", "--relation", "cue2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown entity" in err
        assert "item05" in err

    @pytest.mark.parametrize("top_n", ["0", "-45"])
    def test_top_n_below_one_exits_one(self, trained_run, capsys, top_n):
        code = main(["explain", "--checkpoint", str(trained_run["checkpoint"]),
                     "--head", "item05", "--relation", "cue2",
                     "--top-n", top_n])
        assert code == 1
        assert "--top-n" in capsys.readouterr().err

    def test_unknown_relation_suggests_neighbors(self, trained_run, capsys):
        code = main(["explain", "--checkpoint",
                     str(trained_run["checkpoint"]),
                     "--head", "item05", "--relation", "que2"])
        assert code == 1
        assert "cue2" in capsys.readouterr().err

    def test_empty_neighborhood_is_reported(self, tmp_path, capsys):
        # ghost only appears in valid, so its train neighborhood is empty
        data = tmp_path / "mini"
        data.mkdir()
        (data / "train.txt").write_text(
            "a\tr\tb\nb\tr\tc\nc\tr\ta\nb\tr\ta\n")
        (data / "valid.txt").write_text("ghost\tr\ta\n")
        (data / "test.txt").write_text("a\tr\tc\n")
        (data / "entities.txt").write_text(
            "a\talpha\tfirst marker\nb\tbeta\tsecond marker\n"
            "c\tgamma\tthird marker\nghost\tghost\tno friends\n")
        cfg = write_config(tmp_path / "mini.cfg", data, tmp_path / "o",
                           batch_size=2)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--config", str(cfg)]) == 0
            assert main(["explain", "--checkpoint",
                         str(tmp_path / "o" / "checkpoint.ckpt"),
                         "--head", "ghost", "--relation", "r"]) == 0
        out = capsys.readouterr().out
        assert "(empty neighborhood)" in out
        payload = json.loads((tmp_path / "o" / "explanation.json").read_text())
        assert payload["neighborhood_empty"] is True
        assert len(payload["predictions"]) == 3


class TestSynthCommand:
    def test_writes_loadable_dataset(self, dataset_dir):
        for name in ("train.txt", "valid.txt", "test.txt", "entities.txt"):
            assert (dataset_dir / name).exists()

    def test_out_root_env_prefixes_relative_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOPLINK_OUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--out-dir", "nested/data"]) == 0
        assert (tmp_path / "root" / "nested" / "data" / "train.txt").exists()

    def test_out_root_env_leaves_absolute_dirs_alone(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("HOPLINK_OUT_ROOT", str(tmp_path / "root"))
        target = tmp_path / "abs" / "data"
        assert main(["synth", "--out-dir", str(target)]) == 0
        assert (target / "train.txt").exists()
        assert not (tmp_path / "root").exists()

    def test_relative_out_root_is_prepended_once(self, dataset_dir, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("HOPLINK_OUT_ROOT", "outroot")
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "abl.cfg", dataset_dir, "runs/demo")
        assert main(["ablate", "--config", str(cfg), "--axis", "hops"]) == 0
        run = Path("outroot/runs/demo")
        assert (run / "ablation_hops.json").exists()
        checkpoint = run / "ablate_hops" / "1_hop" / "checkpoint.ckpt"
        assert checkpoint.exists()
        # reports go beside the checkpoint as given; a passed --out-dir is
        # put under the root
        assert main(["eval", "--checkpoint", str(checkpoint)]) == 0
        assert main(["explain", "--checkpoint", str(checkpoint),
                     "--head", "item05", "--relation", "cue2"]) == 0
        assert sorted(p.name for p in checkpoint.parent.iterdir()) == [
            "checkpoint.ckpt", "eval_test.json", "eval_test.txt",
            "explanation.json", "explanation.txt"]
        assert main(["eval", "--checkpoint", str(checkpoint),
                     "--out-dir", "reports"]) == 0
        assert Path("outroot/reports/eval_test.json").exists()
        assert not Path("outroot/outroot").exists()


class TestUsage:
    def test_unknown_command_exits_one(self):
        assert main(["conjure"]) == 1

    def test_missing_required_flag_exits_one(self):
        assert main(["train"]) == 1

    def test_no_command_exits_one(self):
        assert main([]) == 1

    @pytest.mark.parametrize("command",
                             ["preprocess", "eval", "explain", "synth"])
    def test_unrecognized_argument_exits_one(self, dataset_dir, trained_run,
                                             tmp_path, capsys, command):
        # only train and ablate take --key value overrides
        flags = {"preprocess": ["--dataset-dir", str(dataset_dir)],
                 "eval": ["--checkpoint", str(trained_run["checkpoint"])],
                 "explain": ["--checkpoint", str(trained_run["checkpoint"]),
                             "--head", "item05", "--relation", "cue2"],
                 "synth": []}[command]
        assert main([command, *flags, "--out-dir", str(tmp_path / "o"),
                     "--shiny"]) == 1
        assert "unrecognized arguments: --shiny" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
