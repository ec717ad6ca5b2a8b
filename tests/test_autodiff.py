import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoplink import autodiff as ad
from hoplink.autodiff import (
    AdamW,
    DomainError,
    GraphError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    finite_diff_check,
    parameter,
)

# primitives that only the op-by-op edge loss oracle uses now
from conftest import row_sums, softplus, sub


def grad_of(f, x):
    x.grad = None
    with Tape():
        backward(f(x))
    return x.grad


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).values, b.values)

    def test_hand_case(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.values, [[11.0]])

    def test_gradient_hand_case(self):
        # d/da sum(a @ b) at a=[[1,1]], b=[[2],[5]] is b broadcast along rows
        a = parameter([[1.0, 1.0]])
        b = Tensor([[2.0], [5.0]])
        g = grad_of(lambda t: ad.sum_all(ad.matmul(t, b)), a)
        np.testing.assert_allclose(g, [[2.0, 5.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = parameter(rng.normal(size=(3, 4)))
        b = parameter(rng.normal(size=(4, 2)))
        err = finite_diff_check(lambda t: ad.sum_all(ad.matmul(t, b)), a)
        assert err < 1e-5
        err = finite_diff_check(lambda t: ad.sum_all(ad.matmul(a, t)), b)
        assert err < 1e-5

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestElementwise:
    def test_relu(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])
        # the bits of np.where(x > 0, x, 0.0) at every position of arrays
        # long and short enough for vector loops and their scalar tails:
        # NaN and -0.0 give +0.0, and subnormals and infinities pass as-is
        specials = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                    -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0]
        for n in (1, 7, 9, 17, 33):
            for p in range(n):
                for value in specials:
                    x = np.linspace(-1.0, 1.0, n)
                    x[p] = value
                    out = ad.relu(Tensor(x)).values
                    assert out.view(np.int64).tolist() == np.where(
                        x > 0, x, 0.0).view(np.int64).tolist(), (n, p, value)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_leaky_relu_slope(self):
        out = ad.leaky_relu(Tensor([-10.0, 10.0]), alpha=0.2)
        np.testing.assert_allclose(out.values, [-2.0, 10.0])

    @pytest.mark.parametrize("op", [ad.relu, ad.exp, softplus,
                                    lambda t: ad.leaky_relu(t, 0.2)])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(7)
        # keep away from the relu kink where central differences lie
        x = parameter(rng.normal(size=(2, 3)) + 0.1)
        assert finite_diff_check(lambda t: ad.sum_all(op(t)), x) < 1e-5

    def test_binary_gradients(self):
        rng = np.random.default_rng(8)
        a = parameter(rng.normal(size=(2, 3)))
        b = parameter(rng.normal(size=(2, 3)))
        for op in (ad.add, sub, ad.hadamard):
            assert finite_diff_check(lambda t: ad.sum_all(op(t, b)), a) < 1e-5
            assert finite_diff_check(lambda t: ad.sum_all(op(a, t)), b) < 1e-5

    def test_scale_by_tensor(self):
        x = parameter(np.array([[1.0, 2.0]]))
        s = parameter(np.array([3.0]))
        out = ad.scale_by(x, s)
        np.testing.assert_allclose(out.values, [[3.0, 6.0]])
        assert finite_diff_check(lambda t: ad.sum_all(ad.scale_by(x, t)), s) < 1e-5


def attention_weights(scores):
    """Row-wise softmax of the square scores through ``sequence_attention``:
    with one head of width n, q = S, k = sqrt(n) I and v = I, output row i
    is the softmax of row i of S."""
    n = scores.shape[0]
    eye = np.eye(n)
    return ad.sequence_attention(scores, Tensor(eye * np.sqrt(n)), Tensor(eye), [n], 1)


class TestSoftmax:
    def test_uniform_row(self):
        out = attention_weights(Tensor(np.zeros((3, 3))))
        np.testing.assert_allclose(out.values, np.full((3, 3), 1 / 3))

    def test_no_overflow(self):
        out = attention_weights(Tensor([[1000.0, 0.0], [-1000.0, 1000.0]]))
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values, np.eye(2), atol=1e-12)
        q = parameter([[1.0], [1.0]])
        with Tape():
            out = ad.sequence_attention(q, Tensor([[1000.0], [0.0]]),
                                        Tensor([[1.0], [0.0]]), [2], 1)
            backward(ad.sum_all(out))
        np.testing.assert_allclose(out.values, [[1.0], [1.0]], atol=1e-12)
        assert np.isfinite(q.grad).all()

    def test_hand_case(self):
        out = attention_weights(Tensor([[math.log(2.0), 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out.values[0], [2 / 3, 1 / 3], atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = parameter(rng.normal(size=(4, 4)))
        w = Tensor(rng.normal(size=(4, 4)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(attention_weights(t), w)), x) < 1e-5

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(9)
        x = parameter(rng.normal(size=(4, 4)))
        w = Tensor(rng.normal(size=(4, 4)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(ad.log_softmax_rows(t), w)), x) < 1e-5


    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1), st.floats(-50, 50))
    def test_rows_sum_to_one_and_shift_invariance(self, n, seed, shift):
        x = np.random.default_rng(seed).normal(size=(n, n)) * 5
        y = attention_weights(Tensor(x)).values
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)
        shifted = x.copy()
        shifted[0] += shift
        y2 = attention_weights(Tensor(shifted)).values
        np.testing.assert_allclose(y, y2, atol=1e-9)

    def test_sequence_attention_bad_lengths_and_heads_rejected(self):
        x = Tensor(np.zeros((3, 4)))
        for lengths in ([2], [2, 2], [4, -1], [[3]]):
            with pytest.raises(ShapeError, match="lengths"):
                ad.sequence_attention(x, x, x, lengths, 2)
        with pytest.raises(ShapeError, match="heads"):
            ad.sequence_attention(x, x, x, [3], 3)
        with pytest.raises(ShapeError, match="shapes"):
            ad.sequence_attention(x, x, Tensor(np.zeros((3, 2))), [3], 1)


class TestSegmentPrimitives:
    def test_empty_run_rejected(self):
        # edge_attention's softmax runs over the entries of each pattern row;
        # like a fully masked softmax row, an empty run has nothing to weigh
        x, s = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 2)))
        empty_row = sp.csr_matrix((np.ones(2), [0, 1], [0, 2, 2]), shape=(2, 2))
        with pytest.raises(ShapeError, match="needs an entry"):
            ad.edge_attention(x, s, empty_row, np.zeros(2, dtype=np.int64),
                              [slice(0, 3)])


class TestSparseMatmul:
    # row 0 holds entries 0-2 and row 1 entry 3, in columns out of order
    pattern = sp.csr_matrix((np.ones(4), [0, 1, 3, 2], [0, 3, 4]), shape=(2, 4))

    def test_sparse_matmul_matches_dense(self):
        rng = np.random.default_rng(14)
        bag = sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
        e = parameter(rng.normal(size=(3, 4)))
        out = ad.sparse_matmul(bag, e)
        np.testing.assert_allclose(out.values, bag.toarray() @ e.values)
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.sparse_matmul(bag, t)), e) < 1e-5

    def test_gradient_is_the_transpose_product(self):
        # sums over the row runs [0, 3) and [3, 4)
        runs = sp.csr_matrix((np.ones(4), [0, 1, 2, 3], [0, 3, 4]), shape=(2, 4))
        x = parameter(np.zeros((4, 2)))
        with Tape():
            out = ad.sparse_matmul(runs, x)
            backward(ad.sum_all(ad.hadamard(out, Tensor([[1.0, 2.0], [3.0, 4.0]]))))
        np.testing.assert_array_equal(x.grad, [[1, 2], [1, 2], [1, 2], [3, 4]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.sparse_matmul(self.pattern, Tensor(np.zeros((3, 2))))


def recorded_rule(op, *args):
    """The backward rule ``op(*args)`` records: called directly, it takes an
    upstream gradient of any memory layout."""
    with Tape() as tape:
        op(*args)
    return tape._records[-1][2]


def with_layout(a: np.ndarray, layout: str) -> np.ndarray:
    """``a``'s values in C order, Fortran order or as a strided view."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        return wide[:, ::2]
    return a


@st.composite
def csr_cases(draw):
    """A CSR matrix with empty rows, no entries at all or columns out of
    order within a row, on int32 or int64 index arrays."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    runs = [draw(st.lists(st.integers(0, cols - 1), unique=True, max_size=cols))
            for _ in range(rows)]
    seed = draw(st.integers(0, 2 ** 16))
    nnz = sum(map(len, runs))
    csr = sp.csr_matrix((np.random.default_rng(seed).normal(size=nnz),
                         [c for run in runs for c in run],
                         np.cumsum([0] + [len(run) for run in runs])),
                        shape=(rows, cols))
    if draw(st.booleans()):  # scipy's constructor picks int32; set int64 after
        csr.indptr, csr.indices = csr.indptr.astype(np.int64), csr.indices.astype(np.int64)
    return csr, seed


class TestSparseKernels:
    # sparse_matmul and the gather scatter call scipy's private kernels;
    # these pin them, bit for bit, to what scipy's public operators return

    @settings(max_examples=300, deadline=None)
    @given(case=csr_cases(), d=st.sampled_from([1, 2, 5]),
           layout=st.sampled_from(["C", "F", "strided"]))
    @example(case=(sp.csr_matrix((2, 3)), 0), d=1, layout="strided")
    @example(case=(sp.csr_matrix((2, 3)), 0), d=3, layout="F")
    def test_sparse_matmul_equals_scipy_products(self, case, d, layout):
        csr, seed = case
        rng = np.random.default_rng(seed + 1)
        x = parameter(rng.normal(size=(csr.shape[1], d)))
        out = ad.sparse_matmul(csr, x)
        expected = np.asarray(csr @ x.values)
        assert out.values.shape == expected.shape
        assert np.array_equal(out.values, expected)
        g = with_layout(rng.normal(size=(csr.shape[0], d)), layout)
        dx = recorded_rule(ad.sparse_matmul, csr, x)(g)[0]
        expected = np.asarray(csr.T @ g)
        assert dx.shape == expected.shape and np.array_equal(dx, expected)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), d=st.integers(2, 4),
           idx=st.lists(st.integers(0, 5), max_size=12),
           idx_dtype=st.sampled_from([np.int32, np.int64]),
           layout=st.sampled_from(["C", "F", "strided"]),
           seed=st.integers(0, 2 ** 16))
    @example(n=3, d=2, idx=[], idx_dtype=np.int64, layout="C", seed=0)
    def test_gather_gradient_equals_the_coo_scatter(self, n, d, idx, idx_dtype,
                                                    layout, seed):
        idx = np.asarray([i % n for i in idx], dtype=idx_dtype)
        rng = np.random.default_rng(seed)
        g = with_layout(rng.normal(size=(len(idx), d)), layout)
        dx = recorded_rule(ad.gather_rows, parameter(rng.normal(size=(n, d))), idx)(g)[0]
        scatter = sp.csr_matrix((np.ones(idx.size), (idx.astype(np.int64),
                                                     np.arange(idx.size))),
                                shape=(n, idx.size))
        expected = np.asarray(scatter @ g)
        assert dx.dtype == expected.dtype and dx.shape == expected.shape
        assert np.array_equal(dx, expected)


    def test_upstream_of_the_wrong_height_is_rejected(self):
        # the kernels check no bounds, so a short gradient must not reach them
        x = parameter(np.ones((4, 2)))
        cases = [(recorded_rule(ad.sparse_matmul, TestSparseMatmul.pattern, x), g)
                 for g in (np.ones((1, 2)), np.ones((1, 1)))]
        cases.append((recorded_rule(ad.gather_rows, x, [0, 3, 3]), np.ones((1, 2))))
        for rule, g in cases:
            with pytest.raises(ShapeError):
                rule(g)


class TestReductionsAndShaping:
    def test_mean_rows(self):
        # the mean over rows is a product with a (1, n) row of 1/n
        mean = sp.csr_matrix(np.full((1, 2), 0.5))
        out = ad.sparse_matmul(mean, Tensor([[2.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1.0, 2.0]])

    def test_l2_normalize(self):
        out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]])
        assert not out.zero_rows.any()

    def test_l2_normalize_zero_row_flagged(self):
        out = ad.l2_normalize_rows(Tensor([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_allclose(out.values[0], [0.0, 0.0])
        np.testing.assert_array_equal(out.zero_rows, [True, False])

    def test_gather_first_row(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(ad.gather_rows(x, [0]).values, x.values[:1])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            ad.gather_rows(Tensor(np.ones((2, 2))), [2])

    def test_gather_rejects_non_integer_indices(self):
        # a float index used to truncate ([1.9] gathered row 1) and a bool
        # one to cast ([True, False] gathered rows 1 and 0)
        x = Tensor(np.arange(6.0).reshape(3, 2))
        for bad in ([1.9], [True, False], np.array([1.0]), ["1"], [[0, 1]]):
            with pytest.raises(ShapeError, match="flat sequence of integers"):
                ad.gather_rows(x, bad)
        assert ad.gather_rows(x, []).shape == (0, 2)
        for ok in ([2, 0], np.array([2, 0], dtype=np.int32),
                   np.array([2, 0], dtype=np.uint8)):
            np.testing.assert_array_equal(ad.gather_rows(x, ok).values, x.values[[2, 0]])

    def test_gather_gradient_scatters_and_accumulates(self):
        x = parameter(np.ones((3, 2)))
        g = grad_of(lambda t: ad.sum_all(ad.gather_rows(t, [0, 0, 2])), x)
        np.testing.assert_array_equal(g, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), d=st.integers(1, 3),
           idx=st.lists(st.integers(0, 5), max_size=12),
           seed=st.integers(0, 2 ** 16))
    def test_gather_gradient_matches_add_at_oracle(self, n, d, idx, seed):
        # repeated, unsorted and empty index lists; rows never gathered get 0
        idx = [i % n for i in idx]
        rng = np.random.default_rng(seed)
        x = parameter(rng.normal(size=(n, d)))
        upstream = rng.normal(size=(len(idx), d))
        g = grad_of(lambda t: ad.sum_all(ad.hadamard(
            ad.gather_rows(t, idx), ad.constant(upstream))), x)
        expected = np.zeros((n, d))
        np.add.at(expected, np.asarray(idx, dtype=np.int64), upstream)
        np.testing.assert_allclose(g, expected, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), idx=st.lists(st.integers(0, 5), max_size=12),
           seed=st.integers(0, 2 ** 16))
    @example(n=3, idx=[], seed=0)
    @example(n=4, idx=[3, 1, 3, 0, 3, 1], seed=1)
    def test_one_column_gradient_equals_the_csr_scatter(self, n, idx, seed):
        # the one-column scatter must give the sparse scatter's bits,
        # dtype and shape, also for no indices at all
        idx = [i % n for i in idx]
        upstream = np.random.default_rng(seed).normal(size=(len(idx), 1))
        g = grad_of(lambda t: ad.sum_all(ad.hadamard(
            ad.gather_rows(t, idx), ad.constant(upstream))),
            parameter(np.zeros((n, 1))))
        scatter = sp.csr_matrix(
            (np.ones(len(idx)), (np.asarray(idx, dtype=np.int64),
                                 np.arange(len(idx)))), shape=(n, len(idx)))
        expected = np.asarray(scatter @ upstream)
        assert g.dtype == expected.dtype and g.shape == expected.shape
        assert np.array_equal(g, expected)

    def test_concat_cols_empty(self):
        with pytest.raises(ShapeError):
            ad.concat_cols([])

    def test_concat_rows_matches_vstack(self):
        rng = np.random.default_rng(23)
        parts = [rng.normal(size=(n, 4)) for n in (2, 1, 3)]
        out = ad.concat_rows([Tensor(p) for p in parts])
        np.testing.assert_array_equal(out.values, np.vstack(parts))

    def test_concat_rows_single_part_passthrough(self):
        x = Tensor(np.ones((2, 3)))
        assert ad.concat_rows([x]) is x
        with pytest.raises(ShapeError):
            ad.concat_rows([])

    def test_concat_rows_gradient_splits_by_block(self):
        rng = np.random.default_rng(24)
        a = parameter(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(6, 3)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(ad.concat_rows([t, b]), w)),
            a) < 1e-5

    def test_concat_and_row_sums_gradients(self):
        rng = np.random.default_rng(11)
        a = parameter(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=(3, 3)))
        assert finite_diff_check(lambda t: ad.sum_all(ad.concat_cols([t, b])), a) < 1e-5
        w = Tensor(rng.normal(size=(3, 1)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(row_sums(t), w)), a) < 1e-5

    def test_mean_rows_and_normalize_gradients(self):
        rng = np.random.default_rng(12)
        x = parameter(rng.normal(size=(4, 3)))
        # the mean over rows as a product with a (1, n) row of 1/n
        mean = sp.csr_matrix(np.full((1, 4), 0.25))
        w = Tensor(rng.normal(size=(1, 3)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(ad.sparse_matmul(mean, t), w)), x) < 1e-5
        w2 = Tensor(rng.normal(size=(4, 3)))
        assert finite_diff_check(
            lambda t: ad.sum_all(ad.hadamard(ad.l2_normalize_rows(t), w2)), x) < 1e-5


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = parameter([1.0, 2.0, 3.0])
        g = grad_of(lambda t: ad.sum_all(t), x)
        np.testing.assert_array_equal(g, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = parameter([1.0, 2.0])
        g = grad_of(lambda t: ad.sum_all(ad.hadamard(t, t)), x)
        np.testing.assert_allclose(g, [2.0, 4.0])
        assert finite_diff_check(lambda t: ad.sum_all(ad.hadamard(t, t)), x) < 1e-5

    def test_fanout_accumulation(self):
        x = parameter([1.0, 1.0])
        g = grad_of(lambda t: ad.sum_all(ad.add(t, t)), x)
        np.testing.assert_array_equal(g, [2.0, 2.0])

    @given(st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_fanout_multiplies_single_path_gradient(self, n):
        x = parameter([3.0])
        with Tape():
            acc = ad.scale(x, 1.0)
            for _ in range(n - 1):
                acc = ad.add(acc, ad.scale(x, 1.0))
            x.grad = None
            backward(ad.sum_all(acc))
        np.testing.assert_array_equal(x.grad, [float(n)])

    def test_non_scalar_root_rejected(self):
        x = parameter([1.0, 2.0])
        with pytest.raises(GraphError, match="scalar"):
            backward(x)

    def test_repeated_backward_accumulates(self):
        x = parameter([1.0])
        with Tape():
            loss = ad.sum_all(ad.scale(x, 2.0))
            backward(loss)
            backward(loss)
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_no_grad_suppresses_recording(self):
        x = parameter([1.0])
        with Tape() as tape:
            with ad.no_grad():
                y = ad.scale(x, 2.0)
            assert len(tape) == 0
            assert not y.requires_grad

    @staticmethod
    def rule_output(op, *args):
        """What the backward rule of the op that ``op(*args)`` records
        returns for a gradient of ones."""
        with Tape() as tape:
            out = op(*args)
        _, _, rule = tape._records[-1]
        return rule(np.ones(out.shape))

    def test_a_constant_factor_gets_no_product(self):
        # a mask, a weight or noise: backward would drop the product
        p, c = parameter([[1.0, 2.0]]), Tensor([[3.0, 4.0]])
        left, right = self.rule_output(ad.hadamard, p, c)
        np.testing.assert_array_equal(left, [[3.0, 4.0]])
        assert right is None
        left, right = self.rule_output(ad.hadamard, c, p)
        assert left is None
        np.testing.assert_array_equal(right, [[3.0, 4.0]])

    def test_a_constant_piece_gets_no_copy(self):
        # GAT's zero pads beside its score parameters
        p, pad = parameter(np.ones((2, 1))), Tensor(np.zeros((2, 3)))
        first, middle, last = self.rule_output(ad.concat_cols, [pad, p, pad])
        assert first is None and last is None
        np.testing.assert_array_equal(middle, np.ones((2, 1)))


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        p = parameter([1.0, -2.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_first_step_is_bias_corrected_unit_step(self):
        p = parameter([0.5])
        opt = AdamW([p], lr=0.1, betas=(0.9, 0.999), weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step()
        # m_hat = v_hat = 1 after correction, so the move is lr/(1 + eps)
        np.testing.assert_allclose(p.values, [0.5 - 0.1], atol=1e-8)

    def test_decay_only(self):
        p = parameter([2.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        p.grad = np.array([0.0])
        opt.step()
        np.testing.assert_allclose(p.values, [2.0 * (1.0 - 0.1 * 0.01)])

    def test_missing_gradient_rejected(self):
        p = parameter([1.0])
        opt = AdamW([p])
        with pytest.raises(GraphError, match="no gradient"):
            opt.step()

    def test_bit_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            p = parameter(rng.normal(size=(3, 3)))
            opt = AdamW([p], lr=0.05, weight_decay=0.01)
            for _ in range(5):
                p.grad = rng.normal(size=(3, 3))
                opt.step()
            return p.values.tobytes()

        assert run() == run()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_step_matches_the_formula_oracle(self, weight_decay):
        # the textbook update on fresh arrays; the in-place step must give
        # the same bits for parameters and both moments. The last tensor
        # spans two full update slices plus a remainder of 96 values.
        lr, (b1, b2), eps = 0.05, (0.9, 0.999), 1e-8
        rng = np.random.default_rng(8)
        shapes = [(40, 6), (6,), (3, 5), (2 * ad.ADAMW_SLICE // 32 + 3, 32)]
        params = [parameter(rng.normal(size=s)) for s in shapes]
        want = [p.values.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        opt = AdamW(params, lr=lr, betas=(b1, b2), eps=eps,
                    weight_decay=weight_decay)
        for t in range(1, 7):
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i, p in enumerate(params):
                g = rng.normal(size=shapes[i]) * (0.0 if t == 3 else 1.0)
                p.grad = g
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                if weight_decay:
                    want[i] *= 1.0 - lr * weight_decay
                want[i] -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
            opt.step()
            for i, p in enumerate(params):
                assert np.array_equal(p.values, want[i])
                assert np.array_equal(opt.m[i], m[i])
                assert np.array_equal(opt.v[i], v[i])


class TestFiniteDiffCheck:
    def test_linear_function_is_near_exact(self):
        x = parameter([1.0, 2.0, 3.0])
        assert finite_diff_check(ad.sum_all, x) < 1e-9

    def test_rejects_bad_eps(self):
        with pytest.raises(DomainError):
            finite_diff_check(ad.sum_all, parameter([1.0]), eps=0.0)

    def test_every_primitive_under_1e5(self):
        rng = np.random.default_rng(21)
        x = parameter(rng.normal(size=(4, 5)) + 0.05)
        w = Tensor(rng.normal(size=(4, 5)))
        m = Tensor(rng.normal(size=(5, 3)))
        cases = [
            lambda t: ad.sum_all(ad.matmul(t, m)),
            lambda t: ad.sum_all(ad.add(t, w)),
            lambda t: ad.sum_all(sub(t, w)),
            lambda t: ad.sum_all(ad.hadamard(t, w)),
            lambda t: ad.sum_all(ad.scale(t, -1.7)),
            lambda t: ad.sum_all(ad.relu(t)),
            lambda t: ad.sum_all(ad.leaky_relu(t, 0.2)),
            lambda t: ad.sum_all(ad.exp(t)),
            lambda t: ad.sum_all(softplus(t)),
            lambda t: ad.sum_all(ad.hadamard(ad.log_softmax_rows(t), w)),
            lambda t: ad.sum_all(ad.hadamard(ad.l2_normalize_rows(t), w)),
            lambda t: ad.sum_all(ad.gather_rows(t, [0, 2, 2])),
            lambda t, _w=Tensor(rng.normal(size=(4, 1))): ad.sum_all(ad.hadamard(row_sums(t), _w)),
            lambda t: ad.sum_all(ad.transpose(t)),
            lambda t: ad.sum_all(ad.concat_cols([t, w])),
        ]
        for f in cases:
            assert finite_diff_check(f, x) < 1e-5


class TestTapeIsolation:
    def test_scoped_tape_does_not_leak(self):
        outer = ad.active_tape()
        before = len(outer)
        with Tape():
            ad.scale(parameter([1.0]), 2.0)
        assert len(outer) == before

    def test_parallel_tapes_on_threads(self):
        import threading

        results = {}

        def work(name, seed):
            rng = np.random.default_rng(seed)
            x = parameter(rng.normal(size=(4,)))
            with Tape():
                backward(ad.sum_all(ad.hadamard(x, x)))
            results[name] = np.allclose(x.grad, 2 * x.values)

        threads = [threading.Thread(target=work, args=(i, i)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results.values())
