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
    mask_edges,
    reparameterize,
    visible_graph,
)

from conftest import (composed_edge_loss, reference_mask_edges, row_sums,
                      softplus, sub)


def ring_graph(n=5):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = 1.0
    return A


def arrows_of(A):
    return np.argwhere(A > 0)


def graph_of(A):
    """A one-subgraph batch of A's arrows."""
    return GraphBatch(arrows_of(A), [len(A)])


def lone(n):
    """A one-subgraph batch of n rows, for a loss that reads only the
    layout."""
    return GraphBatch(np.zeros((0, 2), dtype=np.int64), [n])


def pairs(*ps):
    return np.array(ps, dtype=np.int64).reshape(-1, 2)


def one_mask(positives, negatives):
    """A one-subgraph batch mask."""
    return EdgeMask(positives, negatives, np.array([len(positives)]),
                    np.array([len(negatives)]))


def visible_arrows(arrows, mask):
    """The arrows that ``mask`` holds out in neither direction: the encoder
    links an arrow's nodes both ways, so held (i, j) also hides (j, i)."""
    held = np.concatenate([mask.positives, mask.positives[:, ::-1]])
    hidden = (arrows[:, None, :] == held[None, :, :]).all(-1).any(1)
    return arrows[~hidden]


def split_mask(mask, sizes):
    """One single-subgraph mask per subgraph of a batched mask, indexed from
    each subgraph's first row."""
    offsets = np.cumsum([0] + list(sizes))
    pos_ends, neg_ends = np.cumsum(mask.pos_counts), np.cumsum(mask.neg_counts)
    return [one_mask(mask.positives[pe - p:pe] - offset,
                     mask.negatives[ne - q:ne] - offset)
            for p, pe, q, ne, offset in zip(mask.pos_counts, pos_ends,
                                            mask.neg_counts, neg_ends,
                                            offsets)]


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
        mask = mask_edges(graph_of(A), 0.2, 0)
        assert len(mask.positives) == 2
        assert len(mask.negatives) == 2

    def test_single_edge_never_unmasked(self):
        A = np.zeros((3, 3))
        A[0, 1] = 1.0
        mask = mask_edges(graph_of(A), 0.01, 0)
        assert mask.positives.tolist() == [[0, 1]]

    def test_masked_pairs_were_edges_and_negatives_were_not(self):
        rng = np.random.default_rng(3)
        A = (rng.random((10, 10)) > 0.7).astype(float)
        np.fill_diagonal(A, 0)
        mask = mask_edges(graph_of(A), 0.3, 7)
        for i, j in mask.positives:
            assert A[i, j] == 1.0
        assert len({tuple(p) for p in mask.positives.tolist()}) == len(
            mask.positives)
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
        mask = mask_edges(graph_of(A), 0.3, seed)
        for i, j in mask.negatives:
            assert A[i, j] == 0.0 and A[j, i] == 0.0

    def test_same_seed_same_mask(self):
        A = ring_graph(8)
        m1 = mask_edges(graph_of(A), 0.4, 11)
        m2 = mask_edges(graph_of(A), 0.4, 11)
        np.testing.assert_array_equal(m1.positives, m2.positives)
        np.testing.assert_array_equal(m1.negatives, m2.negatives)

    def test_edgeless_graph_gives_skip_mask(self):
        mask = mask_edges(lone(4), 0.15, 0)
        assert mask.empty
        assert len(mask.negatives) == 0

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            mask_edges(graph_of(ring_graph()), 0.0, 0)

    def test_draw_frequencies_match_uniform_rates(self):
        # subgraph 0: a 4-ring (4 arrows, 2 held out, 4 free cells: the
        # diagonals 0-2 and 1-3 both ways); subgraph 1: 5 nodes with the arrows
        # 0->1, 1->2 and 3->1 (3 arrows, 1 held out, 14 free cells). Over
        # 2,000 seeds each arrow is held out at rate ceil(ratio m)/m, and each
        # free cell is drawn count/free times per mask on average
        first, second = ring_graph(4), np.zeros((5, 5))
        for i, j in [(0, 1), (1, 2), (3, 1)]:
            second[i, j] = 1.0
        subgraphs = [(4, first.ravel() > 0), (5, second.ravel() > 0)]
        arrows = stacked_arrows(subgraphs)
        graph = GraphBatch(arrows, [4, 5])
        seeds = 2000
        held = np.zeros(len(arrows))
        drawn = {}
        for seed in range(seeds):
            mask = mask_edges(graph, 0.4, seed)
            assert mask.pos_counts.tolist() == mask.neg_counts.tolist() == [2, 2]
            for pair in map(tuple, mask.positives.tolist()):
                held[np.flatnonzero((arrows == pair).all(1))] += 1
            for pair in map(tuple, mask.negatives.tolist()):
                drawn[pair] = drawn.get(pair, 0) + 1
        rates = np.array([2 / 4] * 4 + [2 / 3] * 3)
        stderr = np.sqrt(rates * (1 - rates) / seeds)
        assert (np.abs(held / seeds - rates) < 5 * stderr).all()

        free = [{(i, j) for i in range(n) for j in range(n)
                 if i != j and A[i, j] == A[j, i] == 0}
                for n, A in ((4, first), (5, second))]
        assert [len(f) for f in free] == [4, 14]
        cells = [(i, j) for i, j in free[0]] + [(i + 4, j + 4)
                                                for i, j in free[1]]
        assert set(drawn) <= set(cells)
        for pair in cells:
            p = 1 / (4 if pair[0] < 4 else 14)
            # each of a subgraph's 2 negatives hits the cell with chance p
            rate, sd = 2 * p, np.sqrt(2 * p * (1 - p) / seeds)
            assert abs(drawn.get(pair, 0) / seeds - rate) < 5 * sd, pair


class TestEncode:
    def test_zero_parameters_give_zero_state(self):
        model = Vgae(4, 2, np.random.default_rng(0))
        for p in model.params.values():
            p.values[:] = 0.0
        state = model.encode(Tensor(np.ones((3, 4))),
                             graph_of(ring_graph(3)))
        np.testing.assert_array_equal(state.mu.values, np.zeros((3, 2)))
        np.testing.assert_array_equal(state.log_sigma.values, np.zeros((3, 2)))

    def test_output_shapes(self):
        model = Vgae(6, 3, np.random.default_rng(0))
        state = model.encode(Tensor(np.random.default_rng(1).normal(size=(5, 6))),
                             graph_of(ring_graph(5)))
        assert state.mu.shape == (5, 3)
        assert state.log_sigma.shape == (5, 3)

    def test_gradient_with_frozen_noise(self):
        rng = np.random.default_rng(2)
        model = Vgae(4, 2, np.random.default_rng(3))
        A = ring_graph(4)
        mask = mask_edges(graph_of(A), 0.3, 5)
        graph = GraphBatch(visible_arrows(arrows_of(A), mask), [4])
        X = ad.parameter(rng.normal(size=(4, 4)))

        def loss(_):
            state = model.encode(X, graph)
            Z = reparameterize(state, seed=9)
            return edge_loss(state, Z, mask, graph)

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
    return math.exp(-edge_loss(zero, Z, mask, lone(Z.shape[0])).item())


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


def kl_term(state):
    """``edge_loss``'s KL term of a one-subgraph batch: at Z = 0 every pair
    scores softplus(0) = ln 2, so the loss minus ln 2 is all KL."""
    Z = Tensor(np.zeros(state.mu.shape))
    loss = edge_loss(state, Z, one_mask(pairs((0, 1)), pairs((1, 2))),
                     lone(state.mu.shape[0]))
    return loss.item() - math.log(2.0)


class TestEdgeLoss:
    def test_standard_normal_posterior_has_zero_kl(self):
        state = VgaeState(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))))
        assert abs(kl_term(state)) < 1e-12

    def test_kl_positive_otherwise(self):
        rng = np.random.default_rng(6)
        state = VgaeState(Tensor(rng.normal(size=(3, 2))),
                          Tensor(rng.normal(size=(3, 2))))
        assert kl_term(state) > 0.0

    def test_perfect_predictions_drive_bce_to_zero(self):
        state = VgaeState(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))))
        Z = Tensor([[30.0, 0.0], [30.0, 0.0], [-30.0, 0.0]])
        mask = one_mask(pairs((0, 1)), pairs((0, 2)))
        assert edge_loss(state, Z, mask, lone(3)).item() < 1e-9

    def test_three_node_hand_case(self):
        state = VgaeState(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))))
        Z_values = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mask = one_mask(pairs((0, 2)), pairs((0, 1)))
        got = edge_loss(state, Tensor(Z_values), mask, lone(3))
        sigmoid = lambda s: 1.0 / (1.0 + np.exp(-s))
        expected = (-np.log(sigmoid(1.0)) - np.log(1.0 - sigmoid(0.0))) / 2.0
        np.testing.assert_allclose(got.item(), expected, atol=1e-9)

    def test_empty_mask_skips(self):
        state = VgaeState(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
        loss = edge_loss(state, Tensor(np.zeros((2, 2))),
                         one_mask(pairs(), pairs()), lone(2))
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
            assert edge_loss(state, Z, mask, lone(n)).item() >= 0.0


def per_subgraph_edge_loss(state, Z, masks, sizes):
    """The per-subgraph loop that the batched ``edge_loss`` replaced, kept as
    its oracle: for each non-empty mask, mean BCE over its pairs plus the KL
    of its rows divided by their count; the sum over the batch size."""
    def scores(pairs_):
        left = ad.gather_rows(Z, [i for i, _ in pairs_])
        right = ad.gather_rows(Z, [j for _, j in pairs_])
        return row_sums(ad.hadamard(left, right))

    terms = []
    offset = 0
    for mask, size in zip(masks, sizes):
        if not mask.empty:
            pos = [(i + offset, j + offset) for i, j in mask.positives]
            neg = [(i + offset, j + offset) for i, j in mask.negatives]
            bce = ad.sum_all(softplus(ad.scale(scores(pos), -1.0)))
            if neg:
                bce = ad.add(bce, ad.sum_all(softplus(scores(neg))))
            bce = ad.scale(bce, 1.0 / (len(pos) + len(neg)))
            rows = list(range(offset, offset + size))
            mu = ad.gather_rows(state.mu, rows)
            log_sigma = ad.gather_rows(state.log_sigma, rows)
            inner = sub(ad.add(ad.exp(ad.scale(log_sigma, 2.0)),
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
# 0.3, and only 2 free cells for 6 negatives, so negatives repeat
NEAR_COMPLETE = (5, [i != j and {i, j} != {0, 1}
                     for i in range(5) for j in range(5)])
SUBGRAPH = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * n, max_size=n * n)))


ARROWLESS = (4, [False] * 16)
ONE_NODE = (1, [False])
SPECIAL = st.sampled_from([NEAR_COMPLETE, ARROWLESS, ONE_NODE, (1, [True])])
BATCH = st.lists(st.one_of(SUBGRAPH, SUBGRAPH, SPECIAL), min_size=1, max_size=8)


class TestBatchedMaskMatchesPerSubgraphOracle:
    @settings(max_examples=200, deadline=None)
    @given(subgraphs=BATCH, ratio=st.floats(0.01, 0.99),
           seed=st.integers(0, 2**63))
    @example(subgraphs=[(3, [True, False, True] * 3), ARROWLESS,
                        (2, [False, True, True, False]), ONE_NODE,
                        (4, [i % 3 == 1 for i in range(16)]), NEAR_COMPLETE,
                        (3, [i != 4 for i in range(9)])],
             ratio=0.3, seed=7)
    @example(subgraphs=[ARROWLESS, ONE_NODE], ratio=0.5, seed=1)
    def test_each_subgraph_gets_its_own_draws(self, subgraphs, ratio, seed):
        sizes = [n for n, _ in subgraphs]
        arrows = stacked_arrows(subgraphs)
        graph = GraphBatch(arrows, sizes)
        mask = mask_edges(graph, ratio, seed)
        assert mask.positives.dtype == mask.negatives.dtype == np.int64
        again = mask_edges(graph, ratio, seed)
        np.testing.assert_array_equal(again.positives, mask.positives)
        np.testing.assert_array_equal(again.negatives, mask.negatives)
        for (n, cells), got in zip(subgraphs, split_mask(mask, sizes)):
            A = np.reshape(cells, (n, n))
            own = arrows_of(A)
            count = math.ceil(ratio * len(own))
            free = ((A + A.T == 0) & ~np.eye(n, dtype=bool)).sum()
            assert len(got.positives) == count
            assert len(got.negatives) == (count if free else 0)
            # distinct arrows of the subgraph, in arrow order
            index = [np.flatnonzero((own == p).all(1)) for p in got.positives]
            assert all(len(k) == 1 for k in index)
            assert (np.diff([int(k[0]) for k in index]) > 0).all()
            # off the diagonal, in the subgraph's rows, in neither direction
            # an arrow, and in row-major cell order
            i, j = got.negatives.T
            assert ((0 <= i) & (i < n) & (0 <= j) & (j < n) & (i != j)).all()
            assert not (A[i, j] | A[j, i]).any()
            assert (np.diff(i * n + j) >= 0).all()

    @settings(max_examples=200, deadline=None)
    @given(subgraphs=BATCH, ratio=st.floats(0.01, 0.99),
           seed=st.integers(0, 2**63))
    # self-loops and two-way pairs, which the edge index holds once
    @example(subgraphs=[(3, [True, True, False, True, False, False,
                             False, False, True]), ONE_NODE, NEAR_COMPLETE,
                        ARROWLESS, (1, [True])],
             ratio=0.3, seed=7)
    # 1,050 subgraphs: more than one int64 sort key's worth (SORT_RUN), so
    # the held arrows of the subgraphs past the 1,024th are drawn too
    @example(subgraphs=[(3, [True, True, False, True, False, True,
                             True, False, True]),
                        (4, [i % 3 == 1 for i in range(16)]), ONE_NODE] * 350,
             ratio=0.3, seed=11)
    def test_draws_match_the_arrow_list_reference(self, subgraphs, ratio, seed):
        # the taken cells read off the graph's edge index give the same draws
        # as symmetrizing, sorting and deduplicating the arrows' own cells
        sizes = [n for n, _ in subgraphs]
        arrows = stacked_arrows(subgraphs)
        got = mask_edges(GraphBatch(arrows, sizes), ratio, seed)
        want = reference_mask_edges(arrows, sizes, ratio, seed)
        for field in ("positives", "negatives", "pos_counts", "neg_counts"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field
            assert a.tobytes() == b.tobytes(), field

    @pytest.mark.parametrize("arrows, sizes", [
        ([[0, 1], [3, 5]], [2, 3]),    # endpoint past the 5 rows
        ([[-1, 0]], [2, 3]),           # negative endpoint
        ([[0, 2]], [2, 3]),            # crosses into the next run
        ([[3, 4], [0, 1]], [2, 3]),    # runs out of batch order
        ([[0, 1]], [2, 0]),            # a subgraph without rows
        (np.zeros((0, 2)), []),        # no subgraphs
    ])
    def test_malformed_batch_rejected(self, arrows, sizes):
        # the batch's layout is checked once, where it is built
        with pytest.raises(ShapeError):
            GraphBatch(np.array(arrows), sizes)


class TestBatchedEdgeLossMatchesPerSubgraphOracle:
    def losses(self, subgraphs, ratio, seed):
        sizes = [n for n, _ in subgraphs]
        graph = GraphBatch(stacked_arrows(subgraphs), sizes)
        batched = mask_edges(graph, ratio, seed)
        masks = split_mask(batched, sizes)
        rng = np.random.default_rng(seed)
        leaves = [ad.parameter(rng.normal(size=(sum(sizes), 3)))
                  for _ in range(3)]
        results = []
        for loss_fn in (edge_loss, per_subgraph_edge_loss):
            for leaf in leaves:
                leaf.grad = None
            with Tape():
                loss = loss_fn(VgaeState(leaves[0], leaves[1]), leaves[2],
                               *((batched, graph) if loss_fn is edge_loss
                                 else (masks, sizes)))
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


def same_batch(got, want):
    """Two batch graphs agree field by field, bit for bit, the operators
    that the encoders read included."""
    assert got.num_nodes == want.num_nodes
    for field in ("sizes", "offsets", "arrows", "owner", "dst", "src",
                  "indptr", "weight"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field
    for name in ("gcn_operator", "mean_operator", "pattern"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        for part in ("data", "indices", "indptr"):
            x, y = getattr(a, part), getattr(b, part)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), (name, part)
            assert x.tobytes() == y.tobytes(), (name, part)


class TestVisibleGraphMatchesARebuiltBatch:
    """The visible graph is cut from the batch's sorted edges; a batch
    built afresh from the arrows that stay visible is its oracle."""

    @settings(max_examples=200, deadline=None)
    @given(subgraphs=BATCH, ratio=st.floats(0.01, 0.99),
           seed=st.integers(0, 2**63))
    @example(subgraphs=[(3, [True, True, False, True, False, False,
                             False, False, True]), ONE_NODE, NEAR_COMPLETE,
                        ARROWLESS, (1, [True])],
             ratio=0.9, seed=7)
    def test_masked_batches(self, subgraphs, ratio, seed):
        sizes = [n for n, _ in subgraphs]
        arrows = stacked_arrows(subgraphs)
        graph = GraphBatch(arrows, sizes)
        mask = mask_edges(graph, ratio, seed)
        same_batch(visible_graph(graph, mask),
                   GraphBatch(visible_arrows(arrows, mask), sizes))

    def test_held_self_loop_and_two_way_pair(self):
        # 0 -> 0, 0 <-> 1, 1 -> 2 and 2 -> 2; holding 0 -> 0 and 1 -> 0
        # leaves 1 -> 2 and 2 -> 2: node 0 keeps its diagonal at weight 1
        arrows = pairs((0, 0), (0, 1), (1, 0), (1, 2), (2, 2))
        graph = GraphBatch(arrows, [3])
        mask = one_mask(pairs((0, 0), (1, 0)), pairs())
        visible = visible_graph(graph, mask)
        assert visible.arrows.tolist() == [[1, 2], [2, 2]]
        assert list(zip(visible.dst.tolist(), visible.src.tolist())) == [
            (0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
        assert visible.weight.tolist() == [1.0, 1.0, 1.0, 1.0, 2.0]
        same_batch(visible, GraphBatch(visible_arrows(arrows, mask), [3]))

    def test_empty_mask_keeps_every_edge(self):
        arrows = stacked_arrows([NEAR_COMPLETE, (1, [True]), ARROWLESS])
        graph = GraphBatch(arrows, [5, 1, 4])
        empty = EdgeMask(pairs(), pairs(), np.zeros(3, np.int64),
                         np.zeros(3, np.int64))
        same_batch(visible_graph(graph, empty), GraphBatch(arrows, [5, 1, 4]))

    def test_a_pair_that_is_not_an_edge_is_rejected(self):
        graph = GraphBatch(pairs((0, 1)), [3])
        with pytest.raises(ShapeError):
            visible_graph(graph, one_mask(pairs((1, 2)), pairs()))


class TestFusedEdgeLossMatchesComposedTape:
    """``edge_loss`` records one op; the loss taped op by op, kept in
    conftest, must give the same value, skip flag and gradients, bit for
    bit, both on free leaves and behind the encoder and the
    reparameterization, where mu and log_sigma also take Z's gradient."""

    @staticmethod
    def equal(got, want):
        (value, skipped, grads), (value_0, skipped_0, grads_0) = got, want
        assert skipped == skipped_0
        assert value.dtype == value_0.dtype and np.array_equal(value, value_0)
        for g, w in zip(grads, grads_0):
            assert (g is None) == (w is None)
            if g is not None:
                assert g.shape == w.shape and np.array_equal(g, w)

    @staticmethod
    def leaves_run(loss_fn, graph, mask, seed):
        rng = np.random.default_rng(seed)
        leaves = [ad.parameter(rng.normal(size=(graph.num_nodes, 3)))
                  for _ in range(3)]
        with Tape():
            loss = loss_fn(VgaeState(leaves[0], leaves[1]), leaves[2], mask,
                           graph)
            backward(ad.scale(loss, 0.8))
        return loss.values, loss.skipped, [leaf.grad for leaf in leaves]

    @staticmethod
    def encoder_run(loss_fn, graph, mask, seed):
        model = Vgae(5, 3, np.random.default_rng(seed))
        X = ad.parameter(np.random.default_rng(seed + 1).normal(
            size=(graph.num_nodes, 5)))
        visible = visible_graph(graph, mask)
        with Tape():
            state = model.encode(X, visible)
            Z = reparameterize(state, seed + 2)
            loss = loss_fn(state, Z, mask, visible)
            backward(ad.scale(loss, 0.8))
        return loss.values, loss.skipped, [X.grad] + [
            p.grad for p in model.params.values()]

    @settings(max_examples=150, deadline=None)
    @given(subgraphs=BATCH, ratio=st.floats(0.01, 0.99),
           seed=st.integers(0, 2**16))
    @example(subgraphs=[NEAR_COMPLETE, (3, [False] * 9), NEAR_COMPLETE,
                        (1, [True])], ratio=0.3, seed=3)
    @example(subgraphs=[ARROWLESS, ONE_NODE], ratio=0.5, seed=1)
    def test_values_skip_flags_and_gradients_are_bit_equal(self, subgraphs,
                                                           ratio, seed):
        sizes = [n for n, _ in subgraphs]
        graph = GraphBatch(stacked_arrows(subgraphs), sizes)
        mask = mask_edges(graph, ratio, seed)
        for run in (self.leaves_run, self.encoder_run):
            self.equal(run(edge_loss, graph, mask, seed),
                       run(composed_edge_loss, graph, mask, seed))

    def test_one_latent_column(self):
        # a single latent column takes the scatter's bincount path
        graph = GraphBatch(stacked_arrows([NEAR_COMPLETE, NEAR_COMPLETE]),
                           [5, 5])
        mask = mask_edges(graph, 0.3, 4)
        values = np.random.default_rng(9).normal(size=(3, 10, 1))
        runs = []
        for loss_fn in (edge_loss, composed_edge_loss):
            leaves = [ad.parameter(v.copy()) for v in values]
            with Tape():
                loss = loss_fn(VgaeState(leaves[0], leaves[1]), leaves[2],
                               mask, graph)
                backward(loss)
            runs.append((loss.values, loss.skipped,
                         [leaf.grad for leaf in leaves]))
        self.equal(*runs)

    def test_records_one_op(self):
        graph = GraphBatch(stacked_arrows([NEAR_COMPLETE]), [5])
        mask = mask_edges(graph, 0.3, 4)
        leaves = [ad.parameter(np.ones((5, 2))) for _ in range(3)]
        with Tape() as tape:
            edge_loss(VgaeState(leaves[0], leaves[1]), leaves[2], mask, graph)
        assert len(tape) == 1


class TestToyTraining:
    def test_two_cliques_reconstruct_held_out_edges(self):
        n = 8
        A = np.zeros((n, n))
        for block in (range(4), range(4, 8)):
            for i in block:
                for j in block:
                    if i != j:
                        A[i, j] = 1.0
        mask = mask_edges(graph_of(A), 0.3, 1)
        assert len(mask.positives) == 8
        graph = GraphBatch(visible_arrows(arrows_of(A), mask), [n])

        X = ad.constant(np.random.default_rng(0).normal(size=(n, 8)))
        model = Vgae(8, 4, np.random.default_rng(3))
        for p in model.params.values():
            # start confidently wrong so the descent is visible in the curve
            p.values *= 2.0
        opt = AdamW(list(model.params.values()), lr=0.008, weight_decay=0.0)
        losses = []
        for step in range(200):
            with Tape():
                state = model.encode(X, graph)
                Z = reparameterize(state, seed=step)
                loss = edge_loss(state, Z, mask, graph)
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
