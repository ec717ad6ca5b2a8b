import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoplink import autodiff as ad
from hoplink.autodiff import AdamW, ShapeError, Tape, Tensor, backward
from hoplink.gnn import GraphBatch
from hoplink.vgae import (
    EdgeMask,
    Vgae,
    VgaeState,
    edge_loss,
    kl_to_standard_normal,
    mask_edges,
    reparameterize,
)


def ring_graph(n=5):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = 1.0
    return A


def arrows_of(A):
    return np.argwhere(A > 0)


def pairs(*ps):
    return np.array(ps, dtype=np.int64).reshape(-1, 2)


def mask_dense(A, ratio, seed):
    """The n x n masking that ``mask_edges`` replaced, kept as its oracle.
    A non-edge is an off-diagonal cell with A + A^T == 0."""
    edges = np.argwhere(A > 0)
    if len(edges) == 0:
        return A.copy(), pairs(), pairs()
    rng = np.random.default_rng(seed)
    n_mask = math.ceil(ratio * len(edges))
    picked = rng.choice(len(edges), size=n_mask, replace=False)
    positives = edges[np.sort(picked)]
    A_visible = A.copy()
    for i, j in positives:
        A_visible[i, j] = 0.0
    non_edges = np.argwhere((A + A.T == 0) & ~np.eye(len(A), dtype=bool))
    negatives = pairs()
    if len(non_edges):
        idx = rng.choice(len(non_edges), size=n_mask,
                         replace=len(non_edges) < n_mask)
        negatives = non_edges[np.sort(idx)]
    return A_visible, positives, negatives


def one_mask(positives, negatives):
    """A one-subgraph batch mask."""
    return EdgeMask(positives, negatives, np.array([len(positives)]),
                    np.array([len(negatives)]))


def mask_per_subgraph(arrows, num_nodes, ratio, seed):
    """The per-subgraph masking that the batched ``mask_edges`` replaced,
    kept as its oracle: one generator, unique, delete and searchsorted per
    subgraph, indexed from 0."""
    arrows = np.asarray(arrows, dtype=np.int64).reshape(-1, 2)
    if len(arrows) == 0:
        return arrows.copy(), one_mask(arrows.copy(), arrows.copy())
    rng = np.random.default_rng(seed)
    n_mask = math.ceil(ratio * len(arrows))
    picked = np.sort(rng.choice(len(arrows), size=n_mask, replace=False))
    positives = arrows[picked]
    visible = np.delete(arrows, picked, axis=0)
    n = num_nodes
    src, dst = arrows[:, 0], arrows[:, 1]
    taken = np.unique(np.concatenate([src * n + dst, dst * n + src,
                                      np.arange(n) * (n + 1)]))
    n_free = n * n - len(taken)
    if n_free == 0:
        negatives = np.zeros((0, 2), dtype=np.int64)
    else:
        replace = n_free < n_mask
        ranks = np.sort(rng.choice(n_free, size=n_mask, replace=replace))
        cells = ranks + np.searchsorted(taken - np.arange(len(taken)), ranks,
                                        side="right")
        negatives = np.stack([cells // n, cells % n], axis=1)
    return visible, one_mask(positives, negatives)


def stacked_arrows(subgraphs):
    """The (n, row-major cells) subgraphs' arrows over consecutive rows."""
    offsets = np.cumsum([0] + [n for n, _ in subgraphs[:-1]])
    return np.concatenate([arrows_of(np.reshape(cells, (n, n))) + offset
                           for (n, cells), offset in zip(subgraphs, offsets)]
                          ).reshape(-1, 2)


class TestMaskEdges:
    def test_counts_at_ratio(self):
        A = np.zeros((6, 6))
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                 (5, 0), (0, 2), (1, 3), (2, 4), (3, 5)]
        for i, j in pairs:
            A[i, j] = 1.0
        visible, mask = mask_edges(arrows_of(A), [6], 0.2, [0])
        assert len(mask.positives) == 2
        assert len(mask.negatives) == 2
        assert len(visible) == 8

    def test_single_edge_never_unmasked(self):
        A = np.zeros((3, 3))
        A[0, 1] = 1.0
        _, mask = mask_edges(arrows_of(A), [3], 0.01, [0])
        assert mask.positives.tolist() == [[0, 1]]

    def test_masked_pairs_were_edges_and_negatives_were_not(self):
        rng = np.random.default_rng(3)
        A = (rng.random((10, 10)) > 0.7).astype(float)
        np.fill_diagonal(A, 0)
        visible, mask = mask_edges(arrows_of(A), [10], 0.3, [7])
        for i, j in mask.positives:
            assert A[i, j] == 1.0 and [i, j] not in visible.tolist()
        for i, j in mask.negatives:
            assert A[i, j] == 0.0 and i != j
        assert len(mask.negatives) == len(mask.positives)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 7), fill=st.floats(0.0, 0.9),
           seed=st.integers(0, 2**16))
    def test_no_negative_is_a_reversed_arrow(self, n, fill, seed):
        # the encoder links an arrow's nodes both ways and the decoder scores
        # (j, i) as (i, j), so neither direction of an arrow is a non-edge
        A = (np.random.default_rng(seed).random((n, n)) < fill).astype(float)
        _, mask = mask_edges(arrows_of(A), [n], 0.3, [seed])
        for i, j in mask.negatives:
            assert A[i, j] == 0.0 and A[j, i] == 0.0

    def test_same_seed_same_mask(self):
        A = ring_graph(8)
        _, m1 = mask_edges(arrows_of(A), [8], 0.4, [11])
        _, m2 = mask_edges(arrows_of(A), [8], 0.4, [11])
        np.testing.assert_array_equal(m1.positives, m2.positives)
        np.testing.assert_array_equal(m1.negatives, m2.negatives)

    def test_edgeless_graph_gives_skip_mask(self):
        visible, mask = mask_edges(np.zeros((0, 2), dtype=int), [4], 0.15, [0])
        assert mask.empty
        assert len(visible) == 0

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            mask_edges(arrows_of(ring_graph()), [5], 0.0, [0])

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 7), fill=st.floats(0.0, 1.0),
           ratio=st.floats(0.01, 0.99), seed=st.integers(0, 2**16))
    def test_matches_dense_argwhere_masking(self, n, fill, ratio, seed):
        # fill near 1 leaves too few non-edges and forces sampling with
        # replacement; the diagonal may carry self-loop arrows
        A = (np.random.default_rng(seed).random((n, n)) < fill).astype(float)
        visible, mask = mask_edges(arrows_of(A), [n], ratio, [seed])
        A_visible, positives, negatives = mask_dense(A, ratio, seed)
        np.testing.assert_array_equal(mask.positives, positives)
        np.testing.assert_array_equal(mask.negatives, negatives)
        np.testing.assert_array_equal(visible, arrows_of(A_visible).reshape(-1, 2))


class TestEncode:
    def test_zero_parameters_give_zero_state(self):
        model = Vgae(4, np.random.default_rng(0), latent_dim=2)
        for p in model.params.values():
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
        visible, mask = mask_edges(arrows_of(A), [4], 0.3, [5])
        graph = GraphBatch(visible, 4)
        X = ad.parameter(rng.normal(size=(4, 4)))

        def loss(_):
            state = model.encode(X, graph)
            Z = reparameterize(state, seed=9)
            return edge_loss(state, Z, mask, [4])

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


def decoded(Z, i, j):
    """edge_loss's decoder probability sigmoid(z_i . z_j) of the pair (i, j),
    read back from a mask that holds it as its one positive: with a zero
    posterior the KL vanishes and the loss is -log P."""
    zero = VgaeState(Tensor(np.zeros(Z.shape)), Tensor(np.zeros(Z.shape)))
    mask = one_mask(pairs((i, j)), pairs())
    return math.exp(-edge_loss(zero, Z, mask, [Z.shape[0]]).item())


class TestEdgeDecoder:
    def test_orthogonal_latents_score_half(self):
        Z = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert decoded(Z, 0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_shared_latent_log3_norm(self):
        v = np.sqrt(np.log(3.0) / 2.0)
        Z = Tensor([[v, v], [v, v]])
        np.testing.assert_allclose(decoded(Z, 0, 1), 0.75)

    def test_probability_in_open_interval(self):
        rng = np.random.default_rng(5)
        Z = Tensor(rng.normal(size=(4, 3)))
        for i in range(4):
            for j in range(4):
                p = decoded(Z, i, j)
                assert 0.0 < p < 1.0

    def test_extreme_latents_stay_in_unit_interval(self):
        Z = Tensor([[1000.0, 0.0], [1000.0, 0.0], [-1000.0, 0.0]])
        assert 0.0 <= decoded(Z, 0, 2) <= decoded(Z, 0, 1) <= 1.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            decoded(Tensor(np.zeros((2, 2))), 0, 5)


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
        mask = one_mask(pairs((0, 1)), pairs((0, 2)))
        assert edge_loss(state, Z, mask, [3]).item() < 1e-9

    def test_three_node_hand_case(self):
        state = VgaeState(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))))
        Z_values = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mask = one_mask(pairs((0, 2)), pairs((0, 1)))
        got = edge_loss(state, Tensor(Z_values), mask, [3])
        sigmoid = lambda s: 1.0 / (1.0 + np.exp(-s))
        expected = (-np.log(sigmoid(1.0)) - np.log(1.0 - sigmoid(0.0))) / 2.0
        np.testing.assert_allclose(got.item(), expected, atol=1e-9)

    def test_empty_mask_skips(self):
        state = VgaeState(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
        loss = edge_loss(state, Tensor(np.zeros((2, 2))),
                         one_mask(pairs(), pairs()), [2])
        assert loss.skipped
        assert loss.item() == 0.0

    def test_loss_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            state = VgaeState(Tensor(rng.normal(size=(n, 2))),
                              Tensor(rng.normal(size=(n, 2))))
            Z = Tensor(rng.normal(size=(n, 2)))
            mask = one_mask(pairs((0, 1)), pairs((1, 0)))
            assert edge_loss(state, Z, mask, [n]).item() >= 0.0


def per_subgraph_edge_loss(state, Z, masks, sizes):
    """The per-subgraph loop that the batched ``edge_loss`` replaced, kept as
    its oracle: for each non-empty mask, mean BCE over its pairs plus the KL
    of its rows divided by their count; the sum over the batch size."""
    def scores(pairs_):
        left = ad.gather_rows(Z, [i for i, _ in pairs_])
        right = ad.gather_rows(Z, [j for _, j in pairs_])
        return ad.row_sums(ad.hadamard(left, right))

    terms = []
    offset = 0
    for mask, size in zip(masks, sizes):
        if not mask.empty:
            pos = [(i + offset, j + offset) for i, j in mask.positives]
            neg = [(i + offset, j + offset) for i, j in mask.negatives]
            bce = ad.sum_all(ad.softplus(ad.scale(scores(pos), -1.0)))
            if neg:
                bce = ad.add(bce, ad.sum_all(ad.softplus(scores(neg))))
            bce = ad.scale(bce, 1.0 / (len(pos) + len(neg)))
            rows = list(range(offset, offset + size))
            mu = ad.gather_rows(state.mu, rows)
            log_sigma = ad.gather_rows(state.log_sigma, rows)
            inner = ad.sub(ad.add(ad.exp(ad.scale(log_sigma, 2.0)),
                                  ad.hadamard(mu, mu)),
                           ad.scale(log_sigma, 2.0))
            kl = ad.add(ad.scale(ad.sum_all(inner), 0.5),
                        ad.constant(-0.5 * mu.values.size))
            terms.append(ad.add(bce, ad.scale(kl, 1.0 / size)))
        offset += size
    if not terms:
        out = ad.constant(np.zeros(()))
        out.skipped = True
        return out
    acc = terms[0]
    for term in terms[1:]:
        acc = ad.add(acc, term)
    out = ad.scale(acc, 1.0 / len(masks))
    out.skipped = False
    return out


# 5 nodes, every arrow but 0 -> 1 and 1 -> 0: 18 arrows, 6 masked at ratio
# 0.3, and only 2 free cells, so negatives are drawn with replacement
NEAR_COMPLETE = (5, [i != j and {i, j} != {0, 1}
                     for i in range(5) for j in range(5)])
SUBGRAPH = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * n, max_size=n * n)))


ARROWLESS = (4, [False] * 16)
ONE_NODE = (1, [False])
SPECIAL = st.sampled_from([NEAR_COMPLETE, ARROWLESS, ONE_NODE, (1, [True])])


class TestBatchedMaskMatchesPerSubgraphOracle:
    @settings(max_examples=200, deadline=None)
    @given(subgraphs=st.lists(st.one_of(SUBGRAPH, SUBGRAPH, SPECIAL),
                              min_size=1, max_size=8),
           ratio=st.floats(0.01, 0.99), seed=st.integers(0, 2**63))
    @example(subgraphs=[(3, [True, False, True] * 3), ARROWLESS,
                        (2, [False, True, True, False]), ONE_NODE,
                        (4, [i % 3 == 1 for i in range(16)]), NEAR_COMPLETE,
                        (3, [i != 4 for i in range(9)])],
             ratio=0.3, seed=7)
    @example(subgraphs=[ARROWLESS, ONE_NODE], ratio=0.5, seed=1)
    def test_each_subgraph_gets_its_own_draws(self, subgraphs, ratio, seed):
        sizes = [n for n, _ in subgraphs]
        seeds = [seed + k for k in range(len(sizes))]
        visible, mask = mask_edges(stacked_arrows(subgraphs), sizes, ratio,
                                   seeds)
        want_visible, want_pos, want_neg = [], [], []
        for k, ((n, cells), offset) in enumerate(
                zip(subgraphs, np.cumsum([0] + sizes))):
            v, m = mask_per_subgraph(arrows_of(np.reshape(cells, (n, n))),
                                     n, ratio, seeds[k])
            want_visible.append(v + offset)
            want_pos.append(m.positives + offset)
            want_neg.append(m.negatives + offset)
            assert mask.pos_counts[k] == len(m.positives)
            assert mask.neg_counts[k] == len(m.negatives)
        for got, want in ((visible, want_visible), (mask.positives, want_pos),
                          (mask.negatives, want_neg)):
            want = np.concatenate(want)
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("arrows, sizes, seeds", [
        ([[0, 1], [3, 5]], [2, 3], [1, 2]),    # endpoint past the 5 rows
        ([[-1, 0]], [2, 3], [1, 2]),           # negative endpoint
        ([[0, 2]], [2, 3], [1, 2]),            # crosses into the next run
        ([[3, 4], [0, 1]], [2, 3], [1, 2]),    # runs out of batch order
        ([[0, 1]], [2, 3], [1]),               # one seed short
        ([[0, 1]], [2], [1, 2]),               # one seed too many
    ])
    def test_malformed_batch_rejected(self, arrows, sizes, seeds):
        with pytest.raises(ShapeError):
            mask_edges(np.array(arrows), sizes, 0.5, seeds)


class TestBatchedEdgeLossMatchesPerSubgraphOracle:
    def losses(self, subgraphs, ratio, seed):
        masks = [mask_per_subgraph(arrows_of(np.reshape(cells, (n, n))), n,
                                   ratio, seed + k)[1]
                 for k, (n, cells) in enumerate(subgraphs)]
        sizes = [n for n, _ in subgraphs]
        _, batched = mask_edges(stacked_arrows(subgraphs), sizes, ratio,
                                [seed + k for k in range(len(sizes))])
        rng = np.random.default_rng(seed)
        leaves = [ad.parameter(rng.normal(size=(sum(sizes), 3)))
                  for _ in range(3)]
        results = []
        for loss_fn in (edge_loss, per_subgraph_edge_loss):
            for leaf in leaves:
                leaf.grad = None
            with Tape():
                loss = loss_fn(VgaeState(leaves[0], leaves[1]), leaves[2],
                               batched if loss_fn is edge_loss else masks,
                               sizes)
                backward(loss)
            grads = [np.zeros_like(leaf.values) if leaf.grad is None
                     else leaf.grad for leaf in leaves]
            results.append((loss.item(), loss.skipped, grads))
        return masks, results

    @settings(max_examples=150, deadline=None)
    @given(subgraphs=st.lists(SUBGRAPH, min_size=2, max_size=5),
           ratio=st.floats(0.05, 0.95), seed=st.integers(0, 2**16))
    @example(subgraphs=[(3, [False, True, False, False, False, True,
                             True, False, False]),
                        (3, [False] * 9), (2, [False] * 4),
                        (4, [i % 3 == 1 for i in range(16)])],
             ratio=0.3, seed=1)
    @example(subgraphs=[(1, [True]), (1, [False]), (2, [False, True,
                                                          False, False])],
             ratio=0.5, seed=2)
    @example(subgraphs=[NEAR_COMPLETE, (3, [False] * 9), NEAR_COMPLETE],
             ratio=0.3, seed=3)
    def test_values_and_gradients_within_1e_12(self, subgraphs, ratio, seed):
        _, ((got, got_skip, got_grads),
            (want, want_skip, want_grads)) = self.losses(subgraphs, ratio, seed)
        assert got_skip == want_skip
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)

    def test_near_complete_subgraph_samples_with_replacement(self):
        masks, ((got, _, _), (want, _, _)) = self.losses(
            [NEAR_COMPLETE, NEAR_COMPLETE], 0.3, seed=4)
        for mask in masks:
            assert len(mask.positives) == len(mask.negatives) == 6
            assert {tuple(p) for p in mask.negatives.tolist()} <= {(0, 1), (1, 0)}
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_all_empty_batch_is_skipped(self):
        _, ((got, got_skip, got_grads), (want, want_skip, _)) = self.losses(
            [(2, [False] * 4), (1, [False]), (3, [False] * 9)], 0.3, seed=5)
        assert got_skip and want_skip
        assert got == want == 0.0
        for g in got_grads:
            np.testing.assert_array_equal(g, 0.0)


class TestToyTraining:
    def test_two_cliques_reconstruct_held_out_edges(self):
        n = 8
        A = np.zeros((n, n))
        for block in (range(4), range(4, 8)):
            for i in block:
                for j in block:
                    if i != j:
                        A[i, j] = 1.0
        visible, mask = mask_edges(arrows_of(A), [n], 0.3, [1])
        assert len(mask.positives) == 8
        graph = GraphBatch(visible, n)

        X = ad.constant(np.random.default_rng(0).normal(size=(n, 8)))
        model = Vgae(8, np.random.default_rng(3), latent_dim=4)
        for p in model.params.values():
            # start confidently wrong so the descent is visible in the curve
            p.values *= 2.0
        opt = AdamW(list(model.params.values()), lr=0.008, weight_decay=0.0)
        losses = []
        for step in range(200):
            with Tape():
                state = model.encode(X, graph)
                Z = reparameterize(state, seed=step)
                loss = edge_loss(state, Z, mask, [n])
                opt.zero_grad()
                backward(loss)
                opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

        with ad.no_grad():
            state = model.encode(X, graph)
        Z = state.mu.values
        pos, neg = ((Z[p[:, 0]] * Z[p[:, 1]]).sum(axis=1)
                    for p in (mask.positives, mask.negatives))
        # held-out pairs classified correctly at the 0.5 threshold
        assert np.concatenate([pos > 0, neg <= 0]).mean() >= 0.9
