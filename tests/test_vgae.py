import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoplink import autodiff as ad
from hoplink.autodiff import AdamW, Tape, Tensor, backward
from hoplink.gnn import GraphBatch
from hoplink.vgae import (
    EdgeMask,
    Vgae,
    VgaeState,
    decode_edge,
    edge_loss,
    kl_to_standard_normal,
    mask_edges,
    reconstruction_accuracy,
    reparameterize,
)


def ring_graph(n=5):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = 1.0
    return A


def arrows_of(A):
    return np.argwhere(A > 0)


def mask_dense(A, ratio, seed):
    """The n x n masking that ``mask_edges`` replaced, kept as its oracle."""
    edges = np.argwhere(A > 0)
    if len(edges) == 0:
        return A.copy(), [], []
    rng = np.random.default_rng(seed)
    n_mask = math.ceil(ratio * len(edges))
    picked = rng.choice(len(edges), size=n_mask, replace=False)
    positives = [tuple(map(int, edges[i])) for i in sorted(picked)]
    A_visible = A.copy()
    for i, j in positives:
        A_visible[i, j] = 0.0
    non_edges = np.argwhere((A == 0) & ~np.eye(len(A), dtype=bool))
    negatives = []
    if len(non_edges):
        idx = rng.choice(len(non_edges), size=n_mask,
                         replace=len(non_edges) < n_mask)
        negatives = [tuple(map(int, non_edges[i])) for i in sorted(idx)]
    return A_visible, positives, negatives


class TestMaskEdges:
    def test_counts_at_ratio(self):
        A = np.zeros((6, 6))
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                 (5, 0), (0, 2), (1, 3), (2, 4), (3, 5)]
        for i, j in pairs:
            A[i, j] = 1.0
        visible, mask = mask_edges(arrows_of(A), 6, 0.2, seed=0)
        assert len(mask.positives) == 2
        assert len(mask.negatives) == 2
        assert len(visible) == 8

    def test_single_edge_never_unmasked(self):
        A = np.zeros((3, 3))
        A[0, 1] = 1.0
        _, mask = mask_edges(arrows_of(A), 3, 0.01, seed=0)
        assert mask.positives == [(0, 1)]

    def test_masked_pairs_were_edges_and_negatives_were_not(self):
        rng = np.random.default_rng(3)
        A = (rng.random((10, 10)) > 0.7).astype(float)
        np.fill_diagonal(A, 0)
        visible, mask = mask_edges(arrows_of(A), 10, 0.3, seed=7)
        for i, j in mask.positives:
            assert A[i, j] == 1.0 and [i, j] not in visible.tolist()
        for i, j in mask.negatives:
            assert A[i, j] == 0.0 and i != j
        assert len(mask.negatives) == len(mask.positives)

    def test_same_seed_same_mask(self):
        A = ring_graph(8)
        _, m1 = mask_edges(arrows_of(A), 8, 0.4, seed=11)
        _, m2 = mask_edges(arrows_of(A), 8, 0.4, seed=11)
        assert (m1.positives, m1.negatives) == (m2.positives, m2.negatives)

    def test_edgeless_graph_gives_skip_mask(self):
        visible, mask = mask_edges(np.zeros((0, 2), dtype=int), 4, 0.15, seed=0)
        assert mask.empty
        assert len(visible) == 0

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            mask_edges(arrows_of(ring_graph()), 5, 0.0, seed=0)

    def test_shift_offsets_pairs(self):
        mask = EdgeMask([(0, 1)], [(2, 0)], 0.15, 0)
        shifted = mask.shift(10)
        assert shifted.positives == [(10, 11)]
        assert shifted.negatives == [(12, 10)]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 7), fill=st.floats(0.0, 1.0),
           ratio=st.floats(0.01, 0.99), seed=st.integers(0, 2**16))
    def test_matches_dense_argwhere_masking(self, n, fill, ratio, seed):
        # fill near 1 leaves too few non-edges and forces sampling with
        # replacement; the diagonal may carry self-loop arrows
        A = (np.random.default_rng(seed).random((n, n)) < fill).astype(float)
        visible, mask = mask_edges(arrows_of(A), n, ratio, seed)
        A_visible, positives, negatives = mask_dense(A, ratio, seed)
        assert (mask.positives, mask.negatives) == (positives, negatives)
        np.testing.assert_array_equal(visible, arrows_of(A_visible).reshape(-1, 2))


class TestEncode:
    def test_zero_parameters_give_zero_state(self):
        model = Vgae(4, np.random.default_rng(0), latent_dim=2)
        for p in model.parameters():
            p.values[:] = 0.0
        state = model.encode(Tensor(np.ones((3, 4))),
                             GraphBatch(arrows_of(ring_graph(3)), 3))
        np.testing.assert_array_equal(state.mu.values, np.zeros((3, 2)))
        np.testing.assert_array_equal(state.log_sigma.values, np.zeros((3, 2)))

    def test_output_shapes(self):
        model = Vgae(6, np.random.default_rng(0))
        state = model.encode(Tensor(np.random.default_rng(1).normal(size=(5, 6))),
                             GraphBatch(arrows_of(ring_graph(5)), 5))
        assert state.mu.shape == (5, 3)
        assert state.log_sigma.shape == (5, 3)

    def test_gradient_with_frozen_noise(self):
        rng = np.random.default_rng(2)
        model = Vgae(4, np.random.default_rng(3), latent_dim=2)
        A = ring_graph(4)
        visible, mask = mask_edges(arrows_of(A), 4, 0.3, seed=5)
        graph = GraphBatch(visible, 4)
        X = ad.parameter(rng.normal(size=(4, 4)))

        def loss(_):
            state = model.encode(X, graph)
            Z = reparameterize(state, seed=9)
            return edge_loss(state, Z, mask)

        assert ad.finite_diff_check(loss, X, eps=1e-5) < 1e-4
        assert ad.finite_diff_check(loss, model.params["mu"], eps=1e-5) < 1e-4


class TestReparameterize:
    def state(self, mu, log_sigma):
        return VgaeState(mu=Tensor(mu), log_sigma=Tensor(log_sigma))

    def test_tiny_sigma_returns_mu(self):
        mu = np.random.default_rng(0).normal(size=(3, 2))
        Z = reparameterize(self.state(mu, np.full((3, 2), -10.0)), seed=1)
        np.testing.assert_allclose(Z.values, mu, atol=1e-3)

    def test_same_seed_same_draw(self):
        mu = np.zeros((3, 2))
        s = self.state(mu, np.zeros((3, 2)))
        np.testing.assert_array_equal(reparameterize(s, seed=4).values,
                                      reparameterize(s, seed=4).values)

    def test_monte_carlo_mean_near_mu(self):
        mu = np.array([[0.5, -1.0], [2.0, 0.0]])
        s = self.state(mu, np.zeros((2, 2)))
        with ad.no_grad():
            total = np.zeros_like(mu)
            n = 10_000
            for seed in range(n):
                total += reparameterize(s, seed=seed).values
        np.testing.assert_allclose(total / n, mu, atol=3.0 / np.sqrt(n) + 1e-3)


class TestDecodeEdge:
    def test_orthogonal_latents_score_half(self):
        Z = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert decode_edge(Z, 0, 1).item() == 0.5

    def test_shared_latent_log3_norm(self):
        v = np.sqrt(np.log(3.0) / 2.0)
        Z = Tensor([[v, v], [v, v]])
        np.testing.assert_allclose(decode_edge(Z, 0, 1).item(), 0.75)

    def test_probability_in_open_interval(self):
        rng = np.random.default_rng(5)
        Z = Tensor(rng.normal(size=(4, 3)))
        for i in range(4):
            for j in range(4):
                p = decode_edge(Z, i, j).item()
                assert 0.0 < p < 1.0

    def test_extreme_latents_stay_in_unit_interval(self):
        Z = Tensor([[1000.0, 0.0], [1000.0, 0.0], [-1000.0, 0.0]])
        assert 0.0 <= decode_edge(Z, 0, 2).item() <= decode_edge(Z, 0, 1).item() <= 1.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            decode_edge(Tensor(np.zeros((2, 2))), 0, 5)


class TestEdgeLoss:
    def test_standard_normal_posterior_has_zero_kl(self):
        state = VgaeState(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))))
        assert abs(kl_to_standard_normal(state).item()) < 1e-12

    def test_kl_positive_otherwise(self):
        rng = np.random.default_rng(6)
        state = VgaeState(Tensor(rng.normal(size=(3, 2))),
                          Tensor(rng.normal(size=(3, 2))))
        assert kl_to_standard_normal(state).item() > 0.0

    def test_perfect_predictions_drive_bce_to_zero(self):
        state = VgaeState(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))))
        Z = Tensor([[30.0, 0.0], [30.0, 0.0], [-30.0, 0.0]])
        mask = EdgeMask([(0, 1)], [(0, 2)], 0.15, 0)
        assert edge_loss(state, Z, mask, beta=0.0).item() < 1e-9

    def test_three_node_hand_case(self):
        state = VgaeState(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))))
        Z_values = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mask = EdgeMask([(0, 2)], [(0, 1)], 0.15, 0)
        got = edge_loss(state, Tensor(Z_values), mask, beta=0.0)
        sigmoid = lambda s: 1.0 / (1.0 + np.exp(-s))
        expected = (-np.log(sigmoid(1.0)) - np.log(1.0 - sigmoid(0.0))) / 2.0
        np.testing.assert_allclose(got.item(), expected, atol=1e-9)

    def test_empty_mask_skips(self):
        state = VgaeState(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
        loss = edge_loss(state, Tensor(np.zeros((2, 2))), EdgeMask([], [], 0.15, 0))
        assert loss.skipped
        assert loss.item() == 0.0

    def test_loss_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            state = VgaeState(Tensor(rng.normal(size=(n, 2))),
                              Tensor(rng.normal(size=(n, 2))))
            Z = Tensor(rng.normal(size=(n, 2)))
            mask = EdgeMask([(0, 1)], [(1, 0)], 0.15, 0)
            assert edge_loss(state, Z, mask).item() >= 0.0


class TestToyTraining:
    def test_two_cliques_reconstruct_held_out_edges(self):
        n = 8
        A = np.zeros((n, n))
        for block in (range(4), range(4, 8)):
            for i in block:
                for j in block:
                    if i != j:
                        A[i, j] = 1.0
        visible, mask = mask_edges(arrows_of(A), n, 0.3, seed=1)
        assert len(mask.positives) == 8
        graph = GraphBatch(visible, n)

        X = ad.constant(np.random.default_rng(0).normal(size=(n, 8)))
        model = Vgae(8, np.random.default_rng(3), latent_dim=4)
        for p in model.parameters():
            # start confidently wrong so the descent is visible in the curve
            p.values *= 2.0
        opt = AdamW(model.parameters(), lr=0.008, weight_decay=0.0)
        losses = []
        for step in range(200):
            with Tape():
                state = model.encode(X, graph)
                Z = reparameterize(state, seed=step)
                loss = edge_loss(state, Z, mask)
                opt.zero_grad()
                backward(loss)
                opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

        with ad.no_grad():
            state = model.encode(X, graph)
        assert reconstruction_accuracy(state.mu.values, mask) >= 0.9
