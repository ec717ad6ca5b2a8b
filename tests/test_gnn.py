from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from hoplink import autodiff as ad
from hoplink.autodiff import ShapeError, Tensor
from hoplink.gnn import (
    SCORE_WIDTH,
    GraphBatch,
    GraphEncoder,
    gat_layer,
    gcn_layer,
    head_widths,
    sage_layer,
    score_width,
)
from hoplink.cli import ATTENTION_DECIMALS, neighbor_order
from hoplink.config import ConfigError, RunConfig
from hoplink.model import KgcModel
from hoplink.text import build_vocab
from hoplink.vgae import Vgae

from conftest import dozen_graph


def stack_blocks(blocks):
    """Arrows of dense blocks laid out as consecutive runs of rows, in
    row-major order, and each block's first row."""
    offsets = np.cumsum([0] + [len(A) for A in blocks[:-1]]).tolist()
    arrows = np.concatenate([np.argwhere(np.asarray(A) > 0) + offset
                             for A, offset in zip(blocks, offsets)])
    return arrows, offsets


def graph_of(A):
    return GraphBatch(np.argwhere(np.asarray(A) > 0), [len(A)])


def encode_one(enc, A, X):
    """e_hr (1 x d) of one subgraph whose X row 0 is the head encoding."""
    return enc.encode(X, graph_of(A), [0])


def encoder(variant, dim=6, layers=2, heads=3, seed=0):
    cfg = RunConfig(encoder=variant, layers=layers, dim=dim, heads=heads)
    return GraphEncoder(cfg, np.random.default_rng(seed))


# -- dense oracle: the n x n encoders the edge-index batch replaced -----------

def dense_gcn_operator(A):
    A_tilde = np.maximum(A, A.T) + np.eye(len(A))
    d_inv_sqrt = 1.0 / np.sqrt(A_tilde.sum(axis=1))
    return A_tilde * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def dense_mean_operator(A):
    A_sym = np.maximum(A, A.T)
    deg = A_sym.sum(axis=1)
    deg[deg == 0] = 1.0
    return A_sym / deg[:, None]


def dense_gat_head(X, A, W, a_src, a_dst, alpha=0.2):
    n = X.shape[0]
    h = ad.matmul(X, W)
    scores = ad.leaky_relu(ad.add(
        ad.matmul(ad.matmul(h, a_src), ad.constant(np.ones((1, n)))),
        ad.matmul(ad.constant(np.ones((n, 1))),
                  ad.transpose(ad.matmul(h, a_dst)))), alpha)
    blocked = np.where(np.maximum(A, A.T) + np.eye(n) > 0, 0.0, -np.inf)
    att = ad.exp(ad.log_softmax_rows(ad.add(scores, ad.constant(blocked))))
    return ad.matmul(att, h), att.values


def dense_encode(enc, X, A, readout, attention=None):
    """The encoder over dense n x n operators; a GAT run appends each
    layer's head-mean attention matrix to ``attention`` when given."""
    cfg, p = enc.config, enc.params
    act = ad.relu if cfg.activation == "relu" else ad.leaky_relu
    H = X
    for layer in range(cfg.layers):
        last = layer == cfg.layers - 1
        if cfg.encoder == "gcn":
            H = ad.matmul(ad.matmul(ad.constant(dense_gcn_operator(A)), H),
                          p[f"l{layer}_w"])
        elif cfg.encoder == "sage":
            mean = ad.matmul(ad.constant(dense_mean_operator(A)), H)
            H = ad.matmul(ad.concat_cols([H, mean]), p[f"l{layer}_w"])
        else:
            heads = [dense_gat_head(H, A, p[f"l{layer}_h{h}_w"],
                                    p[f"l{layer}_h{h}_asrc"],
                                    p[f"l{layer}_h{h}_adst"])
                     for h in range(cfg.heads)]
            if attention is not None:
                attention.append(np.mean([a for _, a in heads], axis=0))
            outs = [out for out, _ in heads]
            H = (ad.scale(reduce(ad.add, outs), 1.0 / cfg.heads) if last
                 else ad.concat_cols(outs))
        H = H if last else act(H)
    return ad.add(ad.gather_rows(H, readout), ad.gather_rows(X, readout))


def dense_vgae_encode(vgae, X, A):
    A_hat = ad.constant(dense_gcn_operator(A))
    hidden = ad.relu(ad.matmul(ad.matmul(A_hat, X), vgae.params["shared"]))
    mu = ad.matmul(ad.matmul(A_hat, hidden), vgae.params["mu"])
    log_sigma = ad.matmul(ad.matmul(A_hat, hidden), vgae.params["log_sigma"])
    return ad.add(mu, ad.clamp(log_sigma, -10.0, 10.0))


def vgae_encode(vgae, X, graph):
    state = vgae.encode(X, graph)
    return ad.add(state.mu, state.log_sigma)


def value_and_grads(f, X0, weights, params):
    """f(X)'s values, then the gradients of X and of each parameter."""
    X = ad.parameter(X0.copy())
    for p in params:
        p.grad = None
    with ad.Tape():
        out = f(X)
        ad.backward(ad.sum_all(ad.hadamard(out, ad.constant(weights))))
    return [out.values, X.grad] + [p.grad for p in params]


# (node count, relation-labelled arrows (i, r, j)) per subgraph
subgraph_strategy = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2),
                       st.integers(0, n - 1)), max_size=3 * n)))


def stacked_batch(subs):
    """The dense block-diagonal adjacency, GraphBatch and head rows of
    subgraphs given as strategy draws."""
    blocks = []
    for n, triples in subs:
        A = np.zeros((n, n))
        for i, _, j in triples:
            A[i, j] = 1.0
        blocks.append(A)
    arrows, offsets = stack_blocks(blocks)
    A = block_diag(*blocks)
    return A, GraphBatch(arrows, [len(B) for B in blocks]), offsets


# (variant, heads, dim): GAT with one head, and with three heads whose
# hidden widths are equal (2/2/2) and unequal (3/2/2)
ENCODER_SHAPES = [("gcn", 3, 6), ("sage", 3, 6),
                  ("gat", 1, 6), ("gat", 3, 6), ("gat", 3, 7)]


def assert_encoders_agree(A, graph, readout, layers, seed):
    rng = np.random.default_rng(seed)
    for variant, heads, dim in ENCODER_SHAPES:
        enc = encoder(variant, dim=dim, layers=layers, heads=heads, seed=seed)
        X0 = rng.normal(size=(len(A), dim))
        weights = rng.normal(size=(len(readout), dim))
        got = value_and_grads(
            lambda X: enc.encode(X, graph, readout), X0, weights,
            list(enc.params.values()))
        want = value_and_grads(
            lambda X: dense_encode(enc, X, A, readout), X0, weights,
            list(enc.params.values()))
        for g, w in zip(got, want):
            np.testing.assert_allclose(
                g, w, rtol=1e-12, atol=1e-12,
                err_msg=f"{variant}, {heads} heads, dim {dim}, {layers} layers")


class TestEdgeIndexMatchesDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(subs=st.lists(subgraph_strategy, min_size=1, max_size=3),
           seed=st.integers(0, 2**16))
    # self-loop triple, reciprocal arrows, two relations on one pair and an
    # isolated node, all in one batch
    @example(subs=[(3, [(0, 0, 0), (0, 1, 1), (1, 0, 0)]),
                   (2, [(0, 0, 1), (0, 2, 1)]), (1, [])], seed=0)
    def test_encoders_agree_in_values_and_input_gradients(self, subs, seed):
        A, graph, offsets = stacked_batch(subs)
        assert_encoders_agree(A, graph, offsets, 2, seed)

        rng = np.random.default_rng(seed)
        X0 = rng.normal(size=(len(A), 6))
        vgae = Vgae(6, 3, np.random.default_rng(seed))
        weights = rng.normal(size=(len(A), 3))
        got = value_and_grads(
            lambda X: vgae_encode(vgae, X, graph), X0, weights,
            list(vgae.params.values()))
        want = value_and_grads(
            lambda X: dense_vgae_encode(vgae, X, A), X0, weights,
            list(vgae.params.values()))
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(subs=st.lists(subgraph_strategy, min_size=1, max_size=3),
           layers=st.sampled_from([1, 2, 3]), picks=st.lists(
               st.integers(0, 2**16), min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    # a batch of one one-node subgraph
    @example(subs=[(1, [])], layers=1, picks=[0], seed=0)
    @example(subs=[(1, [])], layers=3, picks=[0, 0], seed=1)
    # rows that are not subgraph starts, unsorted and repeated, next to a
    # one-node subgraph
    @example(subs=[(3, [(0, 0, 1), (1, 1, 2)]), (1, []),
                   (4, [(0, 0, 3), (2, 1, 1), (3, 0, 2)])],
             layers=3, picks=[6, 1, 3, 6, 0, 5], seed=2)
    @example(subs=[(3, [(0, 0, 1), (1, 1, 2)]), (1, []),
                   (4, [(0, 0, 3), (2, 1, 1), (3, 0, 2)])],
             layers=1, picks=[5, 5, 2, 3, 0], seed=3)
    @example(subs=[(3, [(0, 0, 1), (1, 1, 2)]), (1, []),
                   (4, [(0, 0, 3), (2, 1, 1), (3, 0, 2)])],
             layers=2, picks=[7, 3, 0, 3, 1], seed=4)
    def test_any_readout_rows_and_layer_count(self, subs, layers, picks, seed):
        A, graph, _ = stacked_batch(subs)
        assert_encoders_agree(A, graph, [p % len(A) for p in picks], layers,
                              seed)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_final_gat_attention_covers_only_readout_edges(self, layers):
        A, graph, _ = stacked_batch([(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3)]),
                                     (3, [(0, 0, 1), (2, 0, 1)])])
        readout = [5, 0, 5, 2]
        enc = encoder("gat", layers=layers)
        X = Tensor(np.random.default_rng(0).normal(size=(len(A), 6)))
        enc.encode(X, graph, readout)
        assert [a.size for a in enc.last_attention[:-1]] \
            == [len(graph.dst)] * (layers - 1)
        # the edges into each readout row in readout order, each row's in
        # graph order: explain reads row 0's off the front
        attention = []
        dense_encode(enc, X, A, readout, attention)
        want = np.concatenate([
            attention[-1][r, graph.src[graph.indptr[r]:graph.indptr[r + 1]]]
            for r in readout])
        np.testing.assert_allclose(enc.last_attention[-1], want,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_final_gat_layer_projects_only_readout_rows(self, layers):
        # three 12-node paths: 36 stacked rows against 2 readout rows
        path = (12, [(i, 0, i + 1) for i in range(11)])
        A, graph, _ = stacked_batch([path] * 3)
        readout = [13, 0]
        enc = encoder("gat", layers=layers)
        final = {id(p) for name, p in enc.params.items()
                 if name.startswith(f"l{layers - 1}_")}
        X = ad.parameter(np.random.default_rng(16).normal(size=(len(A), 6)))
        with ad.Tape() as tape:
            enc.encode(X, graph, readout)
        # the final layer's ops: every one from the first that reads one of
        # its parameters on
        records = tape._records
        start = next(i for i, (_, parents, _) in enumerate(records)
                     if any(id(p) in final for p in parents))
        products = [(parents[0].shape[0], parents[1].shape[1])
                    for _, parents, rule in records[start:]
                    if rule.__qualname__ == "matmul.<locals>.rule"]
        # the one exemption: the score product of every head, recognised by
        # its fixed width, reads every stacked row
        width = score_width(enc.config.heads)
        assert [rows for rows, cols in products if cols == width] == [len(A)]
        others = [(rows, cols) for rows, cols in products if cols != width]
        assert any(cols >= 2 for _, cols in others)
        assert all(rows <= len(readout) for rows, cols in others
                   if cols >= 2), products

    def test_self_loop_arrow_weighs_twice_in_gcn(self):
        op = GraphBatch(np.array([[0, 0], [0, 1]]), [2]).gcn_operator.toarray()
        np.testing.assert_allclose(op, dense_gcn_operator(
            np.array([[1.0, 1.0], [0.0, 0.0]])))
        assert op[0, 0] == pytest.approx(2.0 / 3.0)


class TestNormalizeAdjacency:
    def test_single_isolated_node(self):
        np.testing.assert_array_equal(
            graph_of(np.zeros((1, 1))).gcn_operator.toarray(), [[1.0]])

    def test_two_nodes_single_edge(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(graph_of(A).gcn_operator.toarray(),
                                   [[0.5, 0.5], [0.5, 0.5]])

    def test_symmetric_input_gives_symmetric_output(self):
        rng = np.random.default_rng(1)
        A = (rng.random((6, 6)) > 0.6).astype(float)
        A = np.maximum(A, A.T)
        np.fill_diagonal(A, 0)
        Ahat = graph_of(A).gcn_operator.toarray()
        np.testing.assert_allclose(Ahat, Ahat.T)
        assert (Ahat >= 0).all()

    def test_out_of_range_arrow_rejected(self):
        with pytest.raises(ShapeError):
            GraphBatch(np.array([[0, 2]]), [2])


class TestGraphRows:
    def test_edges_into_each_row_in_graph_order(self):
        # the final GAT layer reads a row slice of pattern and repeats each
        # readout row once per entry as that entry's destination
        graph = graph_of(TestEncodeNeighborhood.PATH5)
        readout = [3, 0, 3]
        rows = graph.readout_rows(graph.pattern, np.array(readout))
        want = [np.arange(graph.indptr[r], graph.indptr[r + 1])
                for r in readout]
        np.testing.assert_array_equal(
            rows.indptr, np.cumsum([0] + [len(w) for w in want]))
        edges = np.concatenate(want)
        np.testing.assert_array_equal(
            np.repeat(readout, np.diff(rows.indptr)), graph.dst[edges])
        np.testing.assert_array_equal(rows.indices, graph.src[edges])
        np.testing.assert_array_equal(rows.toarray(),
                                      graph.pattern.toarray()[readout])

    def test_readout_cut_equals_scipy_row_indexing(self):
        # repeated and last rows, empty rows, columns unsorted within a row
        rng = np.random.default_rng(26)
        counts = rng.integers(0, 6, size=50)
        counts[[0, 3]] = 0
        cols = np.concatenate([rng.permutation(50)[:c] for c in counts])
        op = ad.csr_rows(rng.normal(size=counts.sum()), cols, counts, 50)
        readout = np.array([7, 0, 7, 49, 3])
        cut = GraphBatch(np.zeros((0, 2)), [50]).readout_rows(op, readout)
        want = op[readout]
        assert cut.shape == want.shape
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(cut, name), getattr(want, name))


class TestGcnLayer:
    def test_identity_adjacency_is_linear_map(self):
        rng = np.random.default_rng(2)
        X = Tensor(rng.normal(size=(3, 4)))
        W = Tensor(rng.normal(size=(4, 4)))
        out = gcn_layer(X, sp.identity(3, format="csr"), W)
        np.testing.assert_allclose(out.values, X.values @ W.values)

    def test_two_node_hand_case(self):
        A_hat = graph_of(np.array([[0.0, 1.0], [0.0, 0.0]])).gcn_operator
        out = gcn_layer(Tensor(np.eye(2)), A_hat, Tensor(np.eye(2)))
        np.testing.assert_allclose(out.values, [[0.5, 0.5], [0.5, 0.5]])

    def test_gradient_through_two_stacked_layers(self):
        rng = np.random.default_rng(3)
        A_hat = graph_of(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])).gcn_operator
        X = ad.parameter(rng.normal(size=(3, 4)))
        W0 = ad.parameter(rng.normal(size=(4, 4)))
        W1 = ad.parameter(rng.normal(size=(4, 4)))

        def loss(_):
            h = gcn_layer(X, A_hat, W0, ad.relu)
            return ad.sum_all(gcn_layer(h, A_hat, W1))

        assert ad.finite_diff_check(loss, X) < 1e-5
        assert ad.finite_diff_check(loss, W0) < 1e-5


def dense_attention(graph, att):
    out = np.zeros((graph.num_nodes, graph.num_nodes))
    out[graph.dst, graph.src] = att
    return out


def one_head(X, graph, W, a_src, a_dst):
    """A single GAT head through ``gat_layer``: H = XW scored by
    H [a_src a_dst], zero-padded to the score width."""
    return gat_layer(X, graph.pattern, graph.dst, [W], [a_src], [a_dst])


class TestEdgeAttention:
    def test_single_node_attends_to_itself(self):
        rng = np.random.default_rng(4)
        X = Tensor(rng.normal(size=(1, 4)))
        W = Tensor(rng.normal(size=(4, 4)))
        a = Tensor(rng.normal(size=(4, 1))), Tensor(rng.normal(size=(4, 1)))
        out, att = one_head(X, graph_of(np.zeros((1, 1))), W, *a)
        ref_out, _ = dense_gat_head(X, np.zeros((1, 1)), W, *a)
        np.testing.assert_array_equal(att, [1.0])
        np.testing.assert_allclose(out.values, ref_out.values, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.values, X.values @ W.values, rtol=1e-12, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        A = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        graph = graph_of(A)
        args = (Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 4))),
                Tensor(rng.normal(size=(4, 1))), Tensor(rng.normal(size=(4, 1))))
        _, att = one_head(args[0], graph, *args[1:])
        _, ref_att = dense_gat_head(args[0], A, *args[1:])
        dense = dense_attention(graph, att)
        np.testing.assert_allclose(dense, ref_att, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(dense[0, 2], 0.0)

    def test_matches_dense_reference_on_path_graph(self):
        self.assert_heads_match_dense_reference([5])

    # five heads need 10 score columns, so the product takes 16
    @pytest.mark.parametrize("widths", [[2, 3], [3, 2, 2], [1, 2, 1, 1, 1]])
    def test_heads_side_by_side_match_dense_reference(self, widths):
        self.assert_heads_match_dense_reference(widths)

    @staticmethod
    def assert_heads_match_dense_reference(widths):
        # heads side by side over their blocks of one projection, in values,
        # head-mean attention and every input's gradient
        rng = np.random.default_rng(6)
        A = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0]], float)
        graph = graph_of(A)
        X0 = rng.normal(size=(4, 5))
        W = [ad.parameter(rng.normal(size=(5, w))) for w in widths]
        a = [ad.parameter(rng.normal(size=(w, 1))) for w in widths for _ in "sd"]
        weights = rng.normal(size=(4, sum(widths)))
        attention = {}

        def fused(X):
            out, att = gat_layer(X, graph.pattern, graph.dst, W, a[::2], a[1::2])
            attention["got"] = dense_attention(graph, att)
            return out

        def dense(X):
            heads = [dense_gat_head(X, A, Wk, a[2 * k], a[2 * k + 1])
                     for k, Wk in enumerate(W)]
            attention["want"] = np.mean([att for _, att in heads], axis=0)
            return ad.concat_cols([out for out, _ in heads])

        got = value_and_grads(fused, X0, weights, W + a)
        want = value_and_grads(dense, X0, weights, W + a)
        for g, w in zip(got + [attention["got"]], want + [attention["want"]]):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("cells", [1, 5, 64])
    def test_gradients_do_not_depend_on_the_gather_chunk(self, monkeypatch,
                                                         cells):
        # the backward gathers a few entries at a time; every chunking,
        # partial last chunk included, gives the one-chunk bits
        A, graph, offsets = stacked_batch([(5, [(0, 0, 1), (1, 0, 2), (3, 0, 0)]),
                                           (4, [(0, 0, 3), (2, 0, 1)])])
        enc = encoder("gat", dim=7, layers=2, heads=3)
        X0 = np.random.default_rng(7).normal(size=(len(A), 7))
        weights = np.random.default_rng(8).normal(size=(len(offsets), 7))
        params = list(enc.params.values())

        def grads():
            return value_and_grads(lambda X: enc.encode(X, graph, offsets),
                                   X0, weights, params)

        want = grads()
        monkeypatch.setattr(ad, "GATHER_CELLS", cells)
        for got, w in zip(grads(), want):
            np.testing.assert_array_equal(got, w)

    def test_malformed_inputs_rejected(self):
        graph = graph_of(np.array([[0, 1], [0, 0]]))
        x, s = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 8)))
        nnz = graph.pattern.nnz
        for args in [(Tensor(np.ones((3, 3))), s, graph.dst),
                     (x, Tensor(np.zeros((2, 3))), graph.dst),
                     (x, s, graph.dst[:-1]),
                     (x, s, graph.dst.astype(float)),
                     (x, s, np.full(nnz, 2))]:
            with pytest.raises(ShapeError):
                ad.edge_attention(args[0], args[1], graph.pattern, args[2],
                                  [slice(0, 1), slice(1, 3)])


class TestSageLayer:
    def test_isolated_node_mean_term_is_zero(self):
        rng = np.random.default_rng(7)
        X = Tensor(rng.normal(size=(1, 3)))
        W = Tensor(rng.normal(size=(6, 3)))
        out = sage_layer(X, graph_of(np.zeros((1, 1))).mean_operator, W, ad.relu)
        expected = np.maximum(
            np.concatenate([X.values, np.zeros((1, 3))], axis=1) @ W.values, 0)
        np.testing.assert_allclose(out.values, expected)

    def test_two_node_identity_blocks(self):
        X = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        W = Tensor(np.vstack([np.eye(2), np.eye(2)]))
        M = graph_of(np.array([[0.0, 1.0], [0.0, 0.0]])).mean_operator
        out = sage_layer(X, M, W)
        # self features plus the single neighbor's features
        np.testing.assert_allclose(out.values, [[4.0, 6.0], [4.0, 6.0]])

    def test_equal_neighbor_doubles(self):
        X = Tensor(np.array([[1.0, 1.0], [1.0, 1.0]]))
        W = Tensor(np.vstack([np.eye(2), np.eye(2)]))
        M = graph_of(np.array([[0.0, 1.0], [1.0, 0.0]])).mean_operator
        out = sage_layer(X, M, W)
        np.testing.assert_allclose(out.values, [[2.0, 2.0], [2.0, 2.0]])


def gcn_encode_reference(X, A, W0, W1):
    A_hat = dense_gcn_operator(A)
    hidden = np.maximum(A_hat @ X @ W0, 0)
    return A_hat @ hidden @ W1 + X


class TestEncodeNeighborhood:
    PATH5 = np.array([[0, 1, 0, 0, 0],
                      [0, 0, 1, 0, 0],
                      [0, 0, 0, 1, 0],
                      [0, 0, 0, 0, 1],
                      [0, 0, 0, 0, 0]], dtype=float)

    def test_head_only_gcn_is_residual_plus_linear(self):
        enc = encoder("gcn", dim=4)
        X = Tensor(np.random.default_rng(8).normal(size=(1, 4)))
        out = encode_one(enc, np.zeros((1, 1)), X)
        w0, w1 = enc.params["l0_w"].values, enc.params["l1_w"].values
        expected = np.maximum(X.values @ w0, 0) @ w1 + X.values
        np.testing.assert_allclose(out.values, expected)

    def test_gcn_matches_dense_reference(self):
        rng = np.random.default_rng(9)
        enc = encoder("gcn", dim=6)
        X = rng.normal(size=(5, 6))
        out = encode_one(enc, self.PATH5, Tensor(X))
        ref = gcn_encode_reference(X, self.PATH5, enc.params["l0_w"].values,
                                   enc.params["l1_w"].values)
        np.testing.assert_allclose(out.values, ref[:1], atol=1e-9)

    @pytest.mark.parametrize("variant", ["gcn", "gat", "sage"])
    def test_permutation_invariance(self, variant):
        rng = np.random.default_rng(10)
        enc = encoder(variant, dim=6)
        n = 6
        A = (rng.random((n, n)) > 0.6).astype(float)
        np.fill_diagonal(A, 0)
        X = rng.normal(size=(n, 6))
        base = encode_one(enc, A, Tensor(X)).values

        perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
        out = encode_one(enc, A[np.ix_(perm, perm)], Tensor(X[perm])).values
        np.testing.assert_allclose(out, base, atol=1e-9)

    @pytest.mark.parametrize("variant", ["gcn", "gat", "sage"])
    def test_output_shapes_interchangeable(self, variant):
        enc = encoder(variant, dim=6)
        X = Tensor(np.random.default_rng(11).normal(size=(5, 6)))
        out = encode_one(enc, self.PATH5, X)
        assert out.shape == (1, 6)

    @pytest.mark.parametrize("variant", ["gcn", "gat", "sage"])
    def test_gradient_check(self, variant):
        rng = np.random.default_rng(12)
        enc = encoder(variant, dim=6)
        X = ad.parameter(rng.normal(size=(5, 6)))

        def loss(_):
            return ad.sum_all(encode_one(enc, self.PATH5, X))

        assert ad.finite_diff_check(loss, X) < 1e-5
        first_w = next(iter(enc.params.values()))
        assert ad.finite_diff_check(loss, first_w) < 1e-5

    def test_row_count_mismatch_rejected(self):
        enc = encoder("gcn", dim=4)
        with pytest.raises(ShapeError):
            encode_one(enc, np.zeros((2, 2)), Tensor(np.zeros((3, 4))))

    @pytest.mark.parametrize("variant", ["gcn", "gat", "sage"])
    def test_block_diagonal_batch_equals_loop(self, variant):
        rng = np.random.default_rng(13)
        enc = encoder(variant, dim=6)
        subs = []
        feats = []
        for n in (3, 5, 4):
            A = (rng.random((n, n)) > 0.5).astype(float)
            np.fill_diagonal(A, 0)
            subs.append(A)
            feats.append(rng.normal(size=(n, 6)))
        arrows, offsets = stack_blocks(subs)
        assert offsets == [0, 3, 8]
        graph = GraphBatch(arrows, [3, 5, 4])
        batched = enc.encode(Tensor(np.vstack(feats)), graph, offsets).values
        for row, (A, X) in enumerate(zip(subs, feats)):
            single = enc.encode(Tensor(X), graph_of(A), [0]).values
            np.testing.assert_allclose(batched[row], single[0],
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("variant", ["gcn", "gat", "sage"])
    @pytest.mark.parametrize("readout, error, match", [
        pytest.param([0, -1], IndexError, "readout row out of range", id="-1"),
        pytest.param([0, 5], IndexError, "readout row out of range", id="5"),
        pytest.param([], ShapeError, "non-empty", id="empty"),
        pytest.param([1.9], ShapeError, "integer rows", id="float"),
        pytest.param(np.array([1.0, 0.0]), ShapeError, "integer rows",
                     id="whole-float"),
        pytest.param([True, False], ShapeError, "integer rows", id="bool")])
    def test_out_of_range_readout_row_rejected(self, variant, readout, error,
                                               match):
        enc = encoder(variant, dim=6)
        X = Tensor(np.random.default_rng(15).normal(size=(5, 6)))
        with pytest.raises(error, match=match):
            enc.encode(X, graph_of(self.PATH5), readout)

    @pytest.mark.parametrize("variant", ["gcn", "gat", "sage"])
    def test_readout_of_any_integer_dtype_accepted(self, variant):
        enc = encoder(variant, dim=6)
        X = Tensor(np.random.default_rng(15).normal(size=(5, 6)))
        graph = graph_of(self.PATH5)
        want = enc.encode(X, graph, [3, 0, 3]).values
        for dtype in (np.int32, np.uint8):
            got = enc.encode(X, graph, np.array([3, 0, 3], dtype=dtype)).values
            np.testing.assert_array_equal(got, want)

    def test_gat_attention_recorded_per_layer(self):
        enc = encoder("gat", dim=6, layers=2)
        X = Tensor(np.random.default_rng(14).normal(size=(5, 6)))
        encode_one(enc, self.PATH5, X)
        assert len(enc.last_attention) == 2
        dense = dense_attention(graph_of(self.PATH5), enc.last_attention[0])
        np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-9)


class TestExplainNeighborOrder:
    def test_gat_order_follows_dense_final_attention_into_the_head(self):
        kg = dozen_graph()
        model = KgcModel(RunConfig(dim=12, heads=2, k=2, seed=5),
                         build_vocab(kg))
        with ad.no_grad():
            batch = model.encode_queries(kg, [(0, 0), (4, 1)], [3, 4])
        got = neighbor_order(model, batch, kg)

        graph = batch.graph
        A = np.zeros((graph.num_nodes, graph.num_nodes))
        A[graph.arrows[:, 0], graph.arrows[:, 1]] = 1.0
        attention = []
        dense_encode(model.gnn, batch.X, A, batch.graph.offsets, attention)
        into_head = np.round(attention[-1][0], ATTENTION_DECIMALS)
        want = sorted(range(1, batch.subgraphs[0].num_nodes),
                      key=lambda i: (-into_head[i], i))
        assert len(want) > 2
        assert got == want

    def test_attentions_a_last_bit_apart_go_in_row_order(self):
        # at k=1 every subgraph node is an edge into the head
        kg = dozen_graph()
        model = KgcModel(RunConfig(dim=12, heads=2, k=1, seed=5),
                         build_vocab(kg))
        with ad.no_grad():
            batch = model.encode_queries(kg, [(0, 0)], [3])
        into_head = slice(batch.graph.indptr[1])
        rows = batch.graph.src[into_head].tolist()
        neighbors = sorted(set(rows) - {0})
        assert len(neighbors) > 2
        # distinct weights falling with the row, but the last row's is one
        # ulp above the one before it; the head's self-loop keeps 0.5
        weight = dict(zip(neighbors, np.linspace(0.3, 0.1, len(neighbors))))
        weight[neighbors[-1]] = np.nextafter(weight[neighbors[-2]], 1.0)
        model.gnn.last_attention[-1][into_head] = [weight.get(r, 0.5) for r in rows]
        assert neighbor_order(model, batch, kg) == neighbors


class TestConfigValidation:
    # the encoder validates the whole config it is built from
    def test_bad_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            encoder("gnn")

    def test_gat_head_count_bounds(self):
        with pytest.raises(ConfigError, match="head count"):
            encoder("gat", dim=4, heads=5)
        with pytest.raises(ConfigError, match="head count"):
            encoder("gat", dim=4, heads=0)

    def test_gat_uneven_head_widths_concat_to_dim(self):
        # hidden layers concatenate, so widths absorb the remainder
        assert head_widths(7, 3) == [3, 2, 2]
        enc = encoder("gat", dim=7, heads=3)
        widths = [[enc.params[f"l{layer}_h{h}_w"].shape[1] for h in range(3)]
                  for layer in (0, 1)]
        assert widths == [[3, 2, 2], [7, 7, 7]]
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 2] = A[2, 3] = 1.0
        X = ad.constant(np.random.default_rng(1).normal(size=(4, 7)))
        out = enc.encode(X, graph_of(A), [0, 2])
        assert out.shape == (2, 7)

    def test_score_width_rounds_two_per_head_up_to_the_block(self):
        assert [score_width(h) for h in range(1, 10)] \
            == [SCORE_WIDTH] * 4 + [2 * SCORE_WIDTH] * 4 + [3 * SCORE_WIDTH]

    @pytest.mark.parametrize("variant, layers, heads", [
        ("gat", 1, 3), ("gat", 2, 3), ("gat", 2, 5), ("gcn", 2, 1),
        ("sage", 2, 1)])
    def test_a_staged_encode_gives_the_unstaged_bits(self, variant, layers,
                                                     heads):
        # layer 0's stage of the rows in another order, gathered back, with
        # X's readout rows as the residual: what evaluation does with the
        # entity table
        A = np.zeros((6, 6))
        A[0, 1] = A[1, 2] = A[2, 0] = A[3, 4] = A[4, 5] = 1.0
        graph, readout = graph_of(A), np.array([3, 0])
        enc = encoder(variant, dim=10, layers=layers, heads=heads)
        X = ad.constant(np.random.default_rng(3).normal(size=(6, 10)))
        want = enc.encode(X, graph, readout).values
        order = np.array([4, 0, 5, 2, 1, 3])
        stage = [ad.constant(s.values[np.argsort(order)])
                 for s in enc.rowwise(ad.constant(X.values[order]))]
        got = enc.encode(ad.constant(X.values[readout]), graph, readout, stage)
        assert got.values.tobytes() == want.tobytes()
        with pytest.raises(ShapeError, match="stage rows"):
            enc.encode(X, graph, readout, stage)
        with pytest.raises(ShapeError, match="stage rows"):
            enc.encode(ad.constant(X.values[readout]), graph, readout,
                       [ad.constant(s.values[1:]) for s in stage])

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigError, match="layer"):
            encoder("gat", layers=0)
