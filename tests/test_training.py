import math
import re

import numpy as np
import pytest
from scipy.sparse._compressed import _cs_matrix

import hoplink.autodiff as ad
from hoplink import evaluation, training
from hoplink.autodiff import ShapeError, Tensor, finite_diff_check
from hoplink.config import ConfigError, RunConfig
from hoplink.gnn import GraphBatch
from hoplink.kg import KnowledgeGraph
from hoplink.model import KgcModel
from hoplink.seeding import derive_seed
from hoplink.training import (
    DegenerateBatchError,
    DivergenceError,
    Trainer,
    batch_edge_loss,
    combined_loss,
    info_nce_loss,
)
from hoplink.vgae import mask_edges

from conftest import chain_graph


def reference_info_nce(Q: np.ndarray, T: np.ndarray, inv_tau: float) -> float:
    """Plain numpy restatement of the contrastive loss, for cross-checking."""
    def norm_rows(M):
        n = np.linalg.norm(M, axis=1, keepdims=True)
        return M / np.where(n == 0, 1.0, n), (n[:, 0] == 0)

    qn, q_zero = norm_rows(Q)
    tn, t_zero = norm_rows(T)
    S = inv_tau * (qn @ tn.T)
    shifted = S - S.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    kept = [i for i in range(Q.shape[0]) if not (q_zero[i] or t_zero[i])]
    return float(np.mean([-log_probs[i, i] for i in kept]))


class TestInfoNce:
    @pytest.mark.parametrize("b", [2, 5, 9])
    def test_identical_rows_give_log_batch_size(self, b):
        # every pair is equally similar, so each row is a uniform softmax
        row = np.array([0.3, -1.2, 0.8, 0.05])
        Q = Tensor(np.tile(row, (b, 1)))
        T = Tensor(np.tile(row, (b, 1)))
        loss = info_nce_loss(Q, T, inv_tau=7.3)
        assert loss.values == pytest.approx(math.log(b), abs=1e-12)

    def test_two_orthogonal_pairs_hand_value(self):
        # diag cosine 1, off-diag 0; at inv_tau=2 each row costs ln(1 + e^-2)
        Q = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        T = Tensor(np.array([[2.0, 0.0], [0.0, 0.5]]))
        loss = info_nce_loss(Q, T, inv_tau=2.0)
        assert loss.values == pytest.approx(0.12692801104297263, abs=1e-12)

    def test_matches_numpy_reference_on_random_batches(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            Q = rng.normal(size=(6, 5))
            T = rng.normal(size=(6, 5))
            got = info_nce_loss(Tensor(Q), Tensor(T), inv_tau=13.0)
            assert got.item() == pytest.approx(
                reference_info_nce(Q, T, 13.0), abs=1e-12)

    def test_tensor_temperature_matches_float(self):
        rng = np.random.default_rng(3)
        Q, T = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        by_float = info_nce_loss(Tensor(Q), Tensor(T), inv_tau=20.0)
        by_tensor = info_nce_loss(Tensor(Q), Tensor(T),
                                  inv_tau=Tensor([20.0]))
        assert by_float.values == pytest.approx(by_tensor.values, abs=1e-12)

    def test_zero_rows_are_dropped_from_the_mean(self):
        rng = np.random.default_rng(7)
        Q = rng.normal(size=(4, 3))
        T = rng.normal(size=(4, 3))
        Q[2] = 0.0
        T[1] = 0.0
        loss = info_nce_loss(Tensor(Q), Tensor(T), inv_tau=5.0)
        assert list(loss.skipped_rows) == [False, True, True, False]
        assert loss.item() == pytest.approx(
            reference_info_nce(Q, T, 5.0), abs=1e-12)

    def test_row_rescaling_does_not_change_the_loss(self):
        rng = np.random.default_rng(11)
        Q = rng.normal(size=(5, 4))
        T = rng.normal(size=(5, 4))
        base = info_nce_loss(Tensor(Q), Tensor(T), inv_tau=9.0).item()
        Q2, T2 = Q.copy(), T.copy()
        Q2[0] *= 37.0
        Q2[3] *= 0.004
        T2[2] *= 512.0
        again = info_nce_loss(Tensor(Q2), Tensor(T2), inv_tau=9.0).item()
        assert again == pytest.approx(base, abs=1e-9)

    def test_joint_rotation_does_not_change_the_loss(self):
        rng = np.random.default_rng(13)
        Q = rng.normal(size=(5, 4))
        T = rng.normal(size=(5, 4))
        rot, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        base = info_nce_loss(Tensor(Q), Tensor(T), inv_tau=4.0).item()
        spun = info_nce_loss(Tensor(Q @ rot), Tensor(T @ rot),
                              inv_tau=4.0).item()
        assert spun == pytest.approx(base, abs=1e-9)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(17)
        T = Tensor(rng.normal(size=(4, 6)))
        x = ad.parameter(rng.normal(size=(4, 6)))
        err = finite_diff_check(lambda t: info_nce_loss(t, T, inv_tau=3.7), x)
        assert err < 1e-4

    def test_temperature_gradient_against_finite_differences(self):
        rng = np.random.default_rng(19)
        Q = Tensor(rng.normal(size=(4, 3)))
        T = Tensor(rng.normal(size=(4, 3)))
        s = ad.parameter(np.array([6.5]))
        err = finite_diff_check(lambda t: info_nce_loss(Q, T, inv_tau=t), s)
        assert err < 1e-4

    def test_single_row_batch_rejected(self):
        with pytest.raises(DegenerateBatchError):
            info_nce_loss(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))

    def test_all_zero_batch_rejected(self):
        Z = Tensor(np.zeros((3, 4)))
        with pytest.raises(DegenerateBatchError):
            info_nce_loss(Z, Z)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            info_nce_loss(Tensor(np.ones((3, 4))), Tensor(np.ones((4, 3))))


class TestCombinedLoss:
    def test_hand_arithmetic(self):
        total = combined_loss(Tensor([1.0]), Tensor([0.5]), 0.2)
        assert total.item() == pytest.approx(0.6, abs=1e-15)

    def test_lambda_one_keeps_only_the_ranking_term(self):
        total = combined_loss(Tensor([1.5]), None, 1.0)
        assert total.item() == 1.5

    def test_lambda_one_sends_exactly_zero_gradient_to_the_edge_term(self):
        kg_in = ad.parameter(np.array([2.0]))
        edge_in = ad.parameter(np.array([3.0]))
        with ad.Tape():
            total = combined_loss(ad.scale(kg_in, 1.0), ad.scale(edge_in, 1.0), 1.0)
            ad.backward(total)
        assert edge_in.grad is not None and np.all(edge_in.grad == 0.0)
        assert np.all(kg_in.grad == 1.0)

    def test_missing_term_requires_matching_lambda(self):
        with pytest.raises(ValueError):
            combined_loss(Tensor([1.0]), None, 0.5)

    def test_lambda_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            combined_loss(Tensor([1.0]), Tensor([1.0]), 1.2)
        with pytest.raises(ConfigError):
            combined_loss(Tensor([1.0]), Tensor([1.0]), -0.1)


def small_config(**overrides) -> RunConfig:
    base = dict(dim=12, heads=2, k=2, epochs=2, batch_size=8,
                lambda_weight=0.7, seed=5)
    base.update(overrides)
    return RunConfig(**base)


def batch_mask(batch, seed, arrows=None):
    """One mask over the batch's stacked arrows, or over ``arrows`` laid out
    as the batch, drawn from one seed."""
    graph = (batch.graph if arrows is None
             else GraphBatch(arrows, batch.graph.sizes))
    return mask_edges(graph, 0.3, seed)


class TestBatchEdgeLoss:
    def make_batch(self, kg, cfg, pairs):
        trainer = Trainer(kg, cfg)
        model = trainer.model
        seeds = [11 * (i + 1) for i in range(len(pairs))]
        return model, model.encode_queries(kg, pairs, seeds)

    def test_deterministic_and_finite(self, chain_kg):
        cfg = small_config()
        model, batch = self.make_batch(chain_kg, cfg, [(0, 0), (2, 1), (4, 0)])
        mask = batch_mask(batch, 9)
        one = batch_edge_loss(model, batch, mask, noise_seed=3).item()
        two = batch_edge_loss(model, batch, mask, noise_seed=3).item()
        assert one == two
        assert np.isfinite(one) and one > 0.0

    def test_gradient_reaches_the_decoder(self, chain_kg):
        cfg = small_config()
        with ad.Tape():
            model, batch = self.make_batch(chain_kg, cfg, [(0, 0), (2, 1)])
            mask = batch_mask(batch, 4)
            loss = batch_edge_loss(model, batch, mask, noise_seed=1)
            ad.backward(loss)
        grads = [p.grad for p in model.vgae.params.values()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).sum() > 0 for g in grads)

    def test_all_empty_masks_mean_skip(self, chain_kg):
        cfg = small_config()
        model, batch = self.make_batch(chain_kg, cfg, [(0, 0), (2, 1)])
        empty = batch_mask(batch, 1, arrows=batch.graph.arrows[:0])
        loss = batch_edge_loss(model, batch, empty, noise_seed=1)
        assert loss.skipped
        assert loss.item() == 0.0

    def test_masked_pair_hidden_in_both_directions(self, monkeypatch):
        # every train triple has its reciprocal, so every arrow does too
        texts = {f"e{i}": (f"entity {i}", f"thing {i}") for i in range(5)}
        train = [(f"e{a}", "r", f"e{b}") for a, b in
                 [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]]
        kg = KnowledgeGraph.build(
            {"train": train + [(t, r, h) for h, r, t in train]}, texts)
        model, batch = self.make_batch(kg, small_config(k=1), [(0, 0), (2, 0)])
        mask = batch_mask(batch, 6)
        seen = []
        encode = model.vgae.encode
        monkeypatch.setattr(model.vgae, "encode",
                            lambda X, graph: seen.append(graph) or encode(X, graph))
        batch_edge_loss(model, batch, mask, noise_seed=1)
        op = seen[0].gcn_operator.toarray()
        pairs = [(i, j) for i, j in mask.positives.tolist()]
        arrows = {tuple(a) for a in batch.graph.arrows.tolist()}
        assert pairs and all((j, i) in arrows for i, j in pairs)
        for i, j in pairs:
            assert op[i, j] == op[j, i] == 0.0
        hidden = {frozenset(p) for p in pairs}
        for i, j in arrows:
            if frozenset((i, j)) not in hidden:
                assert op[i, j] > 0.0

    def test_rejected_without_a_decoder(self, chain_kg):
        cfg = small_config(lambda_weight=1.0)
        model, batch = self.make_batch(chain_kg, cfg, [(0, 0), (2, 1)])
        mask = batch_mask(batch, 2)
        with pytest.raises(ValueError, match="without an edge decoder"):
            batch_edge_loss(model, batch, mask, noise_seed=1)


class TestTrainer:
    def run_trainer(self, cfg, lines=None):
        kg = chain_graph()
        trainer = Trainer(kg, cfg, log_fn=(lines.append if lines is not None
                                           else None))
        trainer.train()
        return trainer

    def test_sparse_constructions_do_not_grow_with_heads_or_layers(self, monkeypatch):
        # operators are built once per batch, never once per product or
        # gather, so a deeper, wider GAT builds no more CSR/CSC matrices
        built = []
        init = _cs_matrix.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_cs_matrix, "__init__", counting)
        counts = []
        for heads, layers in [(1, 1), (3, 3)]:
            trainer = Trainer(chain_graph(), small_config(encoder="gat", heads=heads,
                                                            layers=layers))
            indices = np.arange(trainer.config.batch_size)
            built.clear()
            with ad.Tape():
                trainer._train_batch(0, 0, trainer.queries[indices], indices)
            counts.append(len(built))
        assert counts[0] > 0 and counts[0] == counts[1], counts

    def test_log_line_format(self):
        lines = []
        self.run_trainer(small_config(epochs=2), lines)
        assert len(lines) == 2
        pattern = re.compile(
            r"^epoch=\d+ train_loss=-?\d+\.\d{6} valid_mrr=\d+\.\d{6}$")
        for line in lines:
            assert pattern.match(line), line

    def test_two_runs_are_bit_identical(self):
        first = self.run_trainer(small_config())
        second = self.run_trainer(small_config())
        assert first.history == second.history
        s1, s2 = first.model.state_arrays(), second.model.state_arrays()
        assert set(s1) == set(s2)
        for name in s1:
            assert s1[name].tobytes() == s2[name].tobytes(), name

    def test_seed_changes_the_trajectory(self):
        first = self.run_trainer(small_config(seed=5))
        second = self.run_trainer(small_config(seed=6))
        assert first.history != second.history

    def test_training_updates_every_parameter_kind(self):
        trainer = Trainer(chain_graph(), small_config(epochs=1))
        before = trainer.model.state_arrays()
        trainer.train()
        after = trainer.model.state_arrays()
        changed = {name for name in before
                   if not np.array_equal(before[name], after[name])}
        assert any(name.startswith("text.") for name in changed)
        assert any(name.startswith("gnn.") for name in changed)
        assert any(name.startswith("vgae.") for name in changed)
        assert "log_inv_tau" in changed

    def test_lambda_one_trains_without_a_decoder(self):
        trainer = self.run_trainer(small_config(lambda_weight=1.0))
        assert trainer.model.vgae is None
        assert all(np.isfinite(r["train_loss"]) for r in trainer.history)

    def test_lambda_zero_trains_on_edges_alone(self):
        trainer = self.run_trainer(small_config(lambda_weight=0.0, epochs=1))
        assert np.isfinite(trainer.history[0]["train_loss"])

    def test_non_finite_loss_aborts_and_rolls_back(self):
        trainer = Trainer(chain_graph(), small_config())
        good = trainer.model.state_arrays()
        trainer.model.parameters()[0].values[:] = np.nan
        with pytest.raises(DivergenceError):
            trainer.train_epochs(1)
        restored = trainer.model.state_arrays()
        for name in good:
            assert np.array_equal(good[name], restored[name]), name

    def test_frozen_neighborhoods_reuse_the_first_draw(self):
        trainer = Trainer(chain_graph(),
                          small_config(resample_neighborhoods=False))
        assert (trainer._neighborhood_seed(0, 4)
                == trainer._neighborhood_seed(7, 4))
        resampling = Trainer(chain_graph(), small_config())
        assert (resampling._neighborhood_seed(0, 4)
                != resampling._neighborhood_seed(7, 4))

    def test_seeds_are_derived_only_where_the_sampler_reads_them(self, monkeypatch):
        # at one hop and a cap of 2 the chain's heads with three neighbors
        # sample on every call; the others are stored at their first call
        trainer = Trainer(chain_graph(), small_config(k=1, cap_per_hop=2))
        trainer.train_epochs(1)
        derived = []
        monkeypatch.setattr(training, "derive_seed", lambda root, label: (
            derived.append(label) or derive_seed(root, label)))
        trainer.train_epochs(1)
        cfg, stored = trainer.config, trainer.kg.neighborhoods
        sampled = sum((head, cfg.k, cfg.cap_per_hop) not in stored
                      for head in trainer.queries[:, 0].tolist())
        assert 0 < sampled < len(trainer.queries)
        assert sum(label.startswith("nbhd:") for label in derived) == sampled

    def test_skipped_seeds_change_no_bit(self, monkeypatch):
        runs = []
        for derive_all in (False, True):
            if derive_all:
                # every query's seed, as before the memo was consulted
                every = lambda kg, heads, k, cap, seed_of: [  # noqa: E731
                    seed_of(i) for i in range(len(heads))]
                monkeypatch.setattr(training, "neighborhood_seeds", every)
                monkeypatch.setattr(evaluation, "neighborhood_seeds", every)
            trainer = self.run_trainer(small_config(k=1, cap_per_hop=2))
            runs.append((trainer.history, trainer.model.state_arrays()))
        (history, state), (history_0, state_0) = runs
        assert history == history_0
        for name in state:
            assert state[name].tobytes() == state_0[name].tobytes(), name

    def test_leftover_single_query_batch_is_skipped(self):
        # 10 train triples -> 20 queries; batch 19 leaves a final batch of 1
        trainer = Trainer(chain_graph(),
                          small_config(epochs=1, batch_size=19))
        records = trainer.train()
        assert np.isfinite(records[0]["train_loss"])

    def test_train_epochs_resumes_the_epoch_counter(self):
        trainer = Trainer(chain_graph(), small_config(epochs=4))
        trainer.train_epochs(2)
        trainer.train_epochs(2)
        assert [r["epoch"] for r in trainer.history] == [0, 1, 2, 3]

    def test_queries_reassigned_as_a_list_of_rows_train_the_same(self):
        # perfbench's wide-k2 job keeps a sample of the query rows as a list
        pick = sorted(np.random.default_rng(3).choice(20, size=12, replace=False))
        as_list = Trainer(chain_graph(), small_config(batch_size=4))
        as_array = Trainer(chain_graph(), small_config(batch_size=4))
        assert as_array.queries.shape == (20, 3)
        as_list.queries = [as_list.queries[i] for i in pick]
        as_array.queries = as_array.queries[pick]
        as_list.train()
        as_array.train()
        assert as_list.history == as_array.history
        assert len({r["train_loss"] for r in as_list.history}) == 2
        s1, s2 = as_list.model.state_arrays(), as_array.model.state_arrays()
        for name in s1:
            assert s1[name].tobytes() == s2[name].tobytes(), name

    def test_split_resume_matches_single_run(self):
        whole = Trainer(chain_graph(), small_config(epochs=4))
        whole.train()
        split = Trainer(chain_graph(), small_config(epochs=4))
        split.train_epochs(1)
        split.train_epochs(3)
        assert whole.history == split.history
        s1, s2 = whole.model.state_arrays(), split.model.state_arrays()
        for name in s1:
            assert s1[name].tobytes() == s2[name].tobytes(), name
